// Package wal applies journaled operations during recovery and
// serializes full-state snapshots. The store's operations are
// deterministic and journaled in execution order, so replaying the
// journal against the snapshot state reproduces the exact pre-crash
// state, including surrogates and binding bookkeeping; creation ops carry
// the originally assigned surrogate and replay verifies it.
package wal

import (
	"errors"
	"fmt"
	"runtime"
	"sync"

	"cadcam/internal/domain"
	"cadcam/internal/object"
	"cadcam/internal/oplog"
	"cadcam/internal/version"
)

// Replay applies decoded journal ops in order (recover mode) on one
// goroutine: the serial reference replay. Tools that keep part of a
// scanned journal (say, the ops at or below a pinned Seq) decode it whole
// with one oplog.Decoder and replay the ops they keep, since a subset of
// the records would not decode on its own.
//
// Concurrent writers on the sharded store may append ops to the journal
// out of sequence-counter order (each op's sequence is assigned inside
// its shard's critical section, but the group-commit batcher serializes
// appends by arrival). Replay therefore primes the store's counters from
// each op's recorded Seq/Out before re-executing it, so the re-execution
// reproduces the original assignment, and finally restores the counters
// to the maxima seen.
func Replay(ops []*oplog.Op, s *object.Store, vm *version.Manager) error {
	_, err := replayOps(ops, s, vm, 1)
	return err
}

// minParallelRun is the smallest run of shard-local ops worth fanning
// out; below it the goroutine handoff costs more than the replay.
const minParallelRun = 64

// shardLocal reports whether an op can replay inside its owning shard
// alone, with its journaled outcome applied verbatim: attribute writes
// carrying their sequence and acknowledgements carrying their resolved
// value. Everything else — creation, topology, records without a
// recorded Seq — is a barrier that replays serially.
func shardLocal(op *oplog.Op) bool {
	switch op.Kind {
	case oplog.KindSetAttr:
		return op.Seq > 0
	case oplog.KindAcknowledge:
		return op.Num > 0
	}
	return false
}

// applyShardLocal applies one shard-local op without touching the global
// counters (the journaled values are applied verbatim).
func applyShardLocal(op *oplog.Op, s *object.Store) error {
	switch op.Kind {
	case oplog.KindSetAttr:
		return s.SetAttrAt(op.Sur, op.Name, op.Value, op.Seq)
	case oplog.KindAcknowledge:
		return s.AcknowledgeAt(op.Name, op.Sur, op.Num, op.Seq)
	}
	return fmt.Errorf("wal: op kind %d is not shard-local", op.Kind)
}

// ReplayN decodes journal records through names, the journal's name
// table and Seq and surrogate state, replays the ops as Replay does on
// up to `workers` goroutines (<= 0: GOMAXPROCS), and returns the number
// of ops the records held (format and name records are not ops).
// A caller that feeds one journal in several calls (a follower, batch by
// batch) passes the same Decoder each time. Records decode serially, in
// order, since a name record defines what later records refer to and
// each op's Seq and surrogates are written relative to the ops before
// it; a decode error wraps oplog.ErrCorrupt or oplog.ErrFormat and
// applies nothing. On any error the Decoder is rewound to its state
// before the call, so the same records, fed again, decode to the same
// ops. Decoding is all the rewind restores: on an apply error ReplayN
// returns how many ops may already be in the store (those before the
// failing op, and in a parallel run the rest of that run), and unless
// that is 0 the records cannot be fed again to the same store, since
// those ops would apply twice.
//
// The ops are split into maximal runs of *shard-local* ops — attribute
// writes and acknowledgements, which in a long-running store are almost
// the entire tail — separated by structural barriers (creation, bind,
// delete, version ops), which replay serially as before. Within a run,
// ops partition by owning shard (object.Store.ShardIndex) and each
// partition replays on its own goroutine in journal order. This is the
// serialization order: a shard-local op's sequence number is assigned and
// journaled inside its shard's critical section, so per-shard journal
// order equals per-shard execution order, while effects that cross shards
// (binding bookkeeping) are commuting atomics whose outcome the ops carry
// explicitly. The merged result is therefore byte-identical to a serial
// replay ordered by the global Op.Seq, for any worker count.
func ReplayN(records [][]byte, names *oplog.Decoder, s *object.Store, vm *version.Manager, workers int) (int, error) {
	saved := *names
	ops := make([]*oplog.Op, 0, len(records))
	for i, rec := range records {
		op, err := names.Decode(rec)
		if err != nil {
			*names = saved
			return 0, fmt.Errorf("wal: record %d: %w", i, err)
		}
		if op != nil {
			ops = append(ops, op)
		}
	}
	if n, err := replayOps(ops, s, vm, workers); err != nil {
		*names = saved
		return n, err
	}
	return len(ops), nil
}

// replayOps applies decoded ops as ReplayN describes. On an error it
// returns how many ops may already have been applied.
func replayOps(ops []*oplog.Op, s *object.Store, vm *version.Manager, workers int) (int, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var maxSeq uint64
	var maxSur domain.Surrogate
	maxSeq = s.Seq()
	i := 0
	for i < len(ops) {
		op := ops[i]
		if shardLocal(op) && workers > 1 {
			j := i
			for j < len(ops) && shardLocal(ops[j]) {
				if ops[j].Seq > maxSeq {
					maxSeq = ops[j].Seq
				}
				j++
			}
			if j-i >= minParallelRun {
				if err := replayRun(ops[i:j], s, i, workers); err != nil {
					return j - 1, err
				}
				i = j
				continue
			}
			// Small run: not worth the fan-out, fall through op by op.
		}
		s.PrimeReplay(op.Seq, op.Out)
		if err := Apply(op, s, vm, true); err != nil {
			return i, fmt.Errorf("wal: op %d: %w", i, err)
		}
		if op.Seq > maxSeq {
			maxSeq = op.Seq
		}
		if op.Out > maxSur {
			maxSur = op.Out
		}
		if cur := s.Seq(); cur > maxSeq {
			maxSeq = cur // ops without a recorded Seq replay in append order
		}
		i++
	}
	s.FinishReplay(maxSeq, maxSur)
	return len(ops), nil
}

// replayRun applies one run of shard-local ops, partitioned by owning
// shard, one goroutine per non-empty partition (bounded by workers via
// partition interleaving). base is the run's first global op index,
// for error reporting. On concurrent failures the error of the earliest
// record wins, matching what a serial replay would have reported first.
func replayRun(run []*oplog.Op, s *object.Store, base, workers int) error {
	nshards := s.Shards()
	byShard := make([][]int, nshards)
	for i, op := range run {
		si := s.ShardIndex(op.Sur)
		byShard[si] = append(byShard[si], i)
	}
	if workers > nshards {
		workers = nshards
	}
	type fail struct {
		idx int
		err error
	}
	fails := make([]*fail, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for si := w; si < nshards; si += workers {
				for _, i := range byShard[si] {
					if err := applyShardLocal(run[i], s); err != nil {
						if fails[w] == nil || i < fails[w].idx {
							fails[w] = &fail{idx: i, err: err}
						}
						break // this shard's tail depends on the failed op
					}
				}
			}
		}(w)
	}
	wg.Wait()
	var first *fail
	for _, f := range fails {
		if f != nil && (first == nil || f.idx < first.idx) {
			first = f
		}
	}
	if first != nil {
		return fmt.Errorf("wal: op %d: %w", base+first.idx, first.err)
	}
	return nil
}

// Apply executes the op against a store and version manager.
//
// In recover mode, version-manager ops referencing objects that no longer
// exist are skipped: version registrations are journaled by the database
// facade slightly after their execution, so a concurrent delete can
// legitimately precede them in the journal.
func Apply(op *oplog.Op, s *object.Store, vm *version.Manager, recover bool) error {
	verify := func(got domain.Surrogate, err error) error {
		if err != nil {
			return err
		}
		if op.Out != 0 && got != op.Out {
			return fmt.Errorf("wal: replay divergence: op %d produced %s, journal says %s", op.Kind, got, op.Out)
		}
		return nil
	}
	lenient := func(err error) error {
		if err == nil || !recover {
			return err
		}
		if errors.Is(err, version.ErrNotAVersion) || errors.Is(err, version.ErrDuplicate) ||
			errors.Is(err, version.ErrNoSuchDesign) || errors.Is(err, object.ErrNoSuchObject) {
			return nil
		}
		return err
	}
	switch op.Kind {
	case oplog.KindDefineClass:
		return s.DefineClass(op.Name, op.Name2)
	case oplog.KindNewObject:
		return verify(s.NewObject(op.Name, op.Name2))
	case oplog.KindNewSubobject:
		return verify(s.NewSubobject(op.Sur, op.Name))
	case oplog.KindNewRelSubobject:
		return verify(s.NewRelSubobject(op.Sur, op.Name))
	case oplog.KindSetAttr:
		return s.SetAttr(op.Sur, op.Name, op.Value)
	case oplog.KindRelate:
		return verify(s.Relate(op.Name, object.Participants(op.Parts)))
	case oplog.KindRelateIn:
		return verify(s.RelateIn(op.Sur, op.Name, object.Participants(op.Parts)))
	case oplog.KindBind:
		return verify(s.Bind(op.Name, op.Sur, op.Sur2))
	case oplog.KindUnbind:
		return s.Unbind(op.Name, op.Sur)
	case oplog.KindAcknowledge:
		if op.Num > 0 {
			// The op carries the sequence value the live call resolved to;
			// applying it directly keeps replay independent of how the
			// concurrent transmitter update was interleaved in the journal.
			return s.AcknowledgeAt(op.Name, op.Sur, op.Num, op.Seq)
		}
		return s.Acknowledge(op.Name, op.Sur)
	case oplog.KindDelete:
		return s.Delete(op.Sur)
	case oplog.KindDeletePolicy:
		s.SetDeletePolicy(object.DeletePolicy(op.Num))
		return nil
	case oplog.KindDefineDesign:
		_, err := vm.DefineDesign(op.Name, op.Sur)
		return lenient(err)
	case oplog.KindAddVersion:
		_, err := vm.AddVersion(op.Name, op.Sur, op.Surs, op.Name2)
		return lenient(err)
	case oplog.KindSetStatus:
		return lenient(vm.SetStatus(op.Sur, version.Status(op.Name)))
	case oplog.KindSetDefault:
		return lenient(vm.SetDefault(op.Name, op.Sur))
	case oplog.KindCreateIndex:
		attr := ""
		if sv, ok := op.Value.(domain.Str); ok {
			attr = string(sv)
		}
		return s.CreateIndex(op.Name, op.Name2, attr)
	case oplog.KindDropIndex:
		return s.DropIndex(op.Name)
	default:
		return fmt.Errorf("wal: unknown op kind %d", op.Kind)
	}
}
