package object

import (
	"sync"
	"sync/atomic"
	"testing"

	"cadcam/internal/codec"
	"cadcam/internal/domain"
	"cadcam/internal/paperschema"
)

func encodedVal(v domain.Value) string {
	var b codec.Buf
	b.Value(v)
	return string(b.Bytes())
}

// TestRebindUnderRead hammers the lock-free read path while a writer
// flips the binding an inherited attribute resolves through. Linearized
// reads may observe the old transmitter's value, the new one's, or the
// unbound null in between — anything else (a stale mix, an error, a
// torn route) is a bug in the route cache's hop validation.
func TestRebindUnderRead(t *testing.T) {
	s := gateStore(t)
	must := mustSur(t)

	t1 := must(s.NewObject(paperschema.TypeGateInterface, ""))
	t2 := must(s.NewObject(paperschema.TypeGateInterface, ""))
	set(t, s, t1, "Length", domain.Int(111))
	set(t, s, t2, "Length", domain.Int(222))

	impl := must(s.NewObject(paperschema.TypeGateImplementation, ""))
	// A second hop: comp resolves Length through impl, so comp's reads
	// cross the flapping binding one level removed.
	comp := must(s.NewObject(paperschema.TypeTimedComposite, ""))
	if _, err := s.Bind(paperschema.RelSomeOfGate, comp, impl); err != nil {
		t.Fatal(err)
	}

	allowed := map[string]bool{
		encodedVal(domain.Int(111)):  true,
		encodedVal(domain.Int(222)):  true,
		encodedVal(domain.NullValue): true,
	}

	const flips = 2000
	var done atomic.Bool
	var wg sync.WaitGroup
	readErr := make(chan error, 8)

	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(readThrough domain.Surrogate) {
			defer wg.Done()
			for !done.Load() {
				v, err := s.GetAttr(readThrough, "Length")
				if err != nil {
					readErr <- err
					return
				}
				if !allowed[encodedVal(v)] {
					readErr <- &domainValueError{v}
					return
				}
			}
		}([...]domain.Surrogate{impl, comp}[r%2])
	}

	for i := 0; i < flips; i++ {
		tr := t1
		if i%2 == 1 {
			tr = t2
		}
		if _, err := s.Bind(paperschema.RelAllOfGateInterface, impl, tr); err != nil {
			t.Fatal(err)
		}
		if err := s.Unbind(paperschema.RelAllOfGateInterface, impl); err != nil {
			t.Fatal(err)
		}
	}
	done.Store(true)
	wg.Wait()
	close(readErr)
	for err := range readErr {
		t.Fatal(err)
	}
}

type domainValueError struct{ v domain.Value }

func (e *domainValueError) Error() string {
	return "read observed a value outside {old, new, null}: " + e.v.String()
}
