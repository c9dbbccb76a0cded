package object

import (
	"math/rand"
	"reflect"
	"testing"
)

// ver is a model version: a value and its stamp.
type ver struct {
	at uint64
	v  int
}

// chainVers lists a chain's nodes from the oldest to the head.
func chainVers(c *vchain[int]) []ver {
	var out []ver
	for n := c.head.Load(); n != nil; n = n.prev {
		out = append([]ver{{n.at, n.v}}, out...)
	}
	return out
}

// TestVchainMatchesModel runs random interleavings of put, pending
// put/commit/abort, pin/release, at and trim against a naive model that
// keeps every version ever published plus the list of nodes the ceiling
// rule retains. It checks that every pinned reader sees the newest version
// at or below its pin, that a put under no pin never grows the chain, and
// that trim reports the model's extras and reclaimed counts.
func TestVchainMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var (
			c    vchain[int]
			all  []ver // every committed version, in publication order
			kept []ver // the nodes the chain should hold, head last
			pins []uint64
			seq  uint64
		)
		ceiling := func() (ceil uint64) {
			for _, p := range pins {
				ceil = max(ceil, p)
			}
			return ceil
		}
		// push mirrors the ceiling rule: the old head stays only if a pin
		// may read it.
		push := func(at uint64, v int, ceil uint64) bool {
			n := len(kept)
			grew := n > 0 && kept[n-1].at <= ceil && kept[n-1].at < at
			if n > 0 && !grew {
				kept = kept[:n-1]
			}
			kept = append(kept, ver{at, v})
			all = append(all, ver{at, v})
			return grew
		}
		fail := func(step int, format string, args ...any) {
			t.Helper()
			t.Fatalf("seed %d step %d: "+format, append([]any{seed, step}, args...)...)
		}
		for step := 0; step < 300; step++ {
			switch op := rng.Intn(10); {
			case op < 2:
				pins = append(pins, seq)
			case op < 3 && len(pins) > 0:
				i := rng.Intn(len(pins))
				pins = append(pins[:i], pins[i+1:]...)
			case op < 7:
				seq++
				ceil, v := ceiling(), rng.Int()
				before := len(chainVers(&c))
				if got, want := c.put(seq, v, ceil), push(seq, v, ceil); got != want {
					fail(step, "put grew=%v, model %v", got, want)
				}
				if n := len(chainVers(&c)); ceil == 0 && n > max(before, 1) {
					fail(step, "put with no pin grew the chain to %d nodes", n)
				}
			case op < 9:
				// A store-exclusive operation publishes pending heads, then
				// commits or aborts; no pin can register meanwhile.
				for k := rng.Intn(3); k >= 0; k-- {
					c.put(pending, rng.Int(), pending)
					for _, p := range pins {
						if n := c.node(p); n != nil && n.at == pending {
							fail(step, "pending head visible at pin %d", p)
						}
					}
				}
				if rng.Intn(4) == 0 {
					c.abort()
					break
				}
				seq++
				v := c.head.Load().v
				if got, want := c.commit(seq, ceiling()), push(seq, v, ceiling()); got != want {
					fail(step, "commit grew=%v, model %v", got, want)
				}
			default:
				low := uint64(pending)
				for _, p := range pins {
					low = min(low, p)
				}
				var wantRec, wantExtras uint64
				for j := len(kept) - 1; j >= 0; j-- {
					if kept[j].at <= low {
						wantRec = uint64(j)
						kept = kept[j:]
						break
					}
				}
				if len(kept) > 0 {
					wantExtras = uint64(len(kept) - 1)
				}
				if extras, rec := c.trim(low); extras != wantExtras || rec != wantRec {
					fail(step, "trim(%d) = (%d, %d), model (%d, %d)", low, extras, rec, wantExtras, wantRec)
				}
			}
			if got := chainVers(&c); !reflect.DeepEqual(got, kept) {
				fail(step, "chain %v, model keeps %v", got, kept)
			}
			reads := append([]uint64{pending}, pins...)
			for _, p := range reads {
				var want *ver
				for i := range all {
					if all[i].at <= p {
						want = &all[i]
					}
				}
				n := c.node(p)
				if (n == nil) != (want == nil) || (n != nil && (ver{n.at, n.v}) != *want) {
					fail(step, "at(%d) = %v, model %v", p, n, want)
				}
			}
		}
	}
}
