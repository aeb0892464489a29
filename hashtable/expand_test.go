package hashtable

import (
	"math/rand"
	"testing"

	"prcu"
)

// unzipCuts is the number of pointer changes unzipping m's current chains
// takes: an old chain of r destination runs needs r-1 cuts, each preceded
// by exactly one wait. It reads a quiescent table.
func unzipCuts(m *Map[uint64, uint64]) int64 {
	t := m.tbl.LoadLocked()
	newMask := t.mask<<1 | 1
	var cuts int64
	for b := range t.heads {
		n := t.heads[b].LoadLocked()
		if n == nil {
			continue
		}
		d := m.hash(n.key) & newMask
		for n = n.next.LoadLocked(); n != nil; n = n.next.LoadLocked() {
			if nd := m.hash(n.key) & newMask; nd != d {
				cuts++
				d = nd
			}
		}
	}
	return cuts
}

// TestExpandOneWaitPerCut pins the paper's wait discipline on seeded
// random tables: across successive expansions, ExpansionWaits grows by
// exactly the number of runs minus one summed over the old chains — one
// wait before every pointer change, none elsewhere.
func TestExpandOneWaitPerCut(t *testing.T) {
	for _, f := range []struct {
		name string
		mk   func() prcu.RCU
	}{
		{"D", func() prcu.RCU { return prcu.NewD(prcu.Options{}) }},
		{"URCU", func() prcu.RCU { return prcu.NewURCU(prcu.Options{}) }},
	} {
		t.Run(f.name, func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				rng := rand.New(rand.NewSource(seed))
				m := NewModulo(f.mk(), 4)
				for i := 0; i < 300; i++ {
					m.Insert(uint64(rng.Intn(1<<12)), 0)
				}
				for i := 0; i < 60; i++ {
					m.Delete(uint64(rng.Intn(1 << 12)))
				}
				for e := 0; e < 3; e++ {
					want := unzipCuts(m)
					before := m.ExpansionWaits()
					m.Expand()
					if got := m.ExpansionWaits() - before; got != want {
						t.Fatalf("seed %d expansion %d: %d waits, want %d (one per cut)", seed, e, got, want)
					}
					if err := m.Validate(); err != nil {
						t.Fatalf("seed %d expansion %d: %v", seed, e, err)
					}
				}
			}
		})
	}
}

// TestExpandAllocsIndependentOfBuckets checks that Expand allocates per
// expansion, never per bucket: a 2^6- and a 2^10-bucket table must cost
// the same number of allocations to expand.
func TestExpandAllocsIndependentOfBuckets(t *testing.T) {
	const runs = 8
	allocs := func(buckets int) float64 {
		eng := prcu.NewD(prcu.Options{})
		rng := rand.New(rand.NewSource(int64(buckets)))
		tables := make([]*Map[uint64, uint64], runs+1)
		for i := range tables {
			m := NewModulo(eng, buckets)
			for m.Size() < 4*buckets {
				m.Insert(uint64(rng.Intn(1<<30)), 0)
			}
			tables[i] = m
		}
		i := 0
		return testing.AllocsPerRun(runs, func() {
			tables[i].Expand()
			i++
		})
	}
	small, large := allocs(1<<6), allocs(1<<10)
	if small != large {
		t.Fatalf("Expand allocs/op: %v at 2^6 buckets, %v at 2^10: something allocates per bucket", small, large)
	}
}
