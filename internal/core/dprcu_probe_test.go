package core

import (
	"context"
	"fmt"
	"testing"
	"time"

	"prcu/internal/obs"
)

// pairPredicate is the hash table's split predicate: the two new buckets
// b and b+oldSize an old bucket splits into.
func pairPredicate(b, oldSize Value) Predicate {
	return Iterable(b, b+oldSize, func(v Value) Value { return v + oldSize })
}

// waitReturns runs wait in a goroutine and reports whether it returned
// within d.
func waitReturns(wait func(), d time.Duration) (returned bool, done <-chan struct{}) {
	ch := make(chan struct{})
	go func() {
		wait()
		close(ch)
	}()
	select {
	case <-ch:
		return true, ch
	case <-time.After(d):
		return false, ch
	}
}

// TestProbeCoveredReaderBlocks: a reader inside either value of a
// two-value wait keeps the clean probe from finishing the wait, whichever
// gate phase its counter is in, and the wait returns once it exits.
func TestProbeCoveredReaderBlocks(t *testing.T) {
	const b, oldSize = 5, 256
	for _, v := range []Value{b, b + oldSize} {
		for _, phase := range []uint64{0, 1} {
			t.Run(fmt.Sprintf("value%d/phase%d", v, phase), func(t *testing.T) {
				d := NewD(4, 0)
				tbl := d.tbl.Load()
				tbl.nodes[tbl.index(v)].gate.Store(phase)
				rd, err := d.Register()
				if err != nil {
					t.Fatal(err)
				}
				defer rd.Unregister()
				rd.Enter(v)
				if got := rd.(*dReader).b; got != phase {
					t.Fatalf("reader counted in phase %d, want %d", got, phase)
				}
				returned, done := waitReturns(func() { d.WaitForReaders(pairPredicate(b, oldSize)) }, 30*time.Millisecond)
				if returned {
					t.Fatal("wait returned while a covered reader was inside its section")
				}
				rd.Exit(v)
				select {
				case <-done:
				case <-time.After(10 * time.Second):
					t.Fatal("wait did not return after the covered reader exited")
				}
			})
		}
	}
}

// TestProbeUncoveredReaderDoesNotBlock: a reader on a value that is
// neither covered nor hashed to a covered node leaves the probe clean, so
// the wait returns while that reader is still inside its section, on the
// fast path and on the controlled one alike.
func TestProbeUncoveredReaderDoesNotBlock(t *testing.T) {
	const b, oldSize = 5, 256
	d := NewD(4, 0)
	tbl := d.tbl.Load()
	covered := map[uint64]bool{tbl.index(b): true, tbl.index(b + oldSize): true}
	u := Value(1000)
	for covered[tbl.index(u)] {
		u++
	}
	rd, err := d.Register()
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Unregister()
	rd.Enter(u)
	defer rd.Exit(u)
	p := pairPredicate(b, oldSize)
	if ok, _ := waitReturns(func() { d.WaitForReaders(p) }, 10*time.Second); !ok {
		t.Fatal("WaitForReaders blocked on a reader of an uncovered, non-colliding value")
	}
	ok, _ := waitReturns(func() {
		if err := d.WaitForReadersCtx(context.Background(), p); err != nil {
			t.Error(err)
		}
	}, 10*time.Second)
	if !ok {
		t.Fatal("WaitForReadersCtx blocked on a reader of an uncovered, non-colliding value")
	}
}

// TestProbeCleanWaitMetrics: a clean two-value wait records what the
// per-node drain records for it — one scanned node and one optimistic
// drain per distinct covered node, nothing waited or parked — whether the
// two values hash to two nodes or collide on one. With optimistic waiting
// off there is no probe, and every covered node takes the gate protocol.
func TestProbeCleanWaitMetrics(t *testing.T) {
	for _, c := range []struct {
		name         string
		size, budget int
		opt, gate    uint64 // drains per wait
	}{
		{"distinct", 1024, optimisticBudget, 2, 0},
		{"colliding", 1, optimisticBudget, 1, 0},
		{"optimistic-off", 1024, 0, 0, 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			d := NewD(4, c.size)
			d.SetOptimisticBudget(c.budget)
			if tbl := d.tbl.Load(); c.size > 1 && tbl.index(5) == tbl.index(5+256) {
				t.Fatal("test values collide in the 1024-node table")
			}
			m := obs.New()
			d.SetMetrics(m)
			p := pairPredicate(5, 256)
			d.WaitForReaders(p)
			if err := d.WaitForReadersCtx(context.Background(), p); err != nil {
				t.Fatal(err)
			}
			s := m.Snapshot()
			opt, gate := 2*c.opt, 2*c.gate // two waits
			if s.Waits != 2 || s.ReadersScanned != opt+gate || s.Parks != 0 {
				t.Fatalf("waits=%d scanned=%d parks=%d, want 2, %d, 0", s.Waits, s.ReadersScanned, s.Parks, opt+gate)
			}
			if gate == 0 && s.ReadersWaited != 0 {
				t.Fatalf("waited=%d on a clean optimistic wait, want 0", s.ReadersWaited)
			}
			if s.DrainsOptimistic != opt || s.DrainsGate != gate || s.DrainsPiggyback != 0 {
				t.Fatalf("drains optimistic=%d gate=%d piggyback=%d, want %d, %d, 0",
					s.DrainsOptimistic, s.DrainsGate, s.DrainsPiggyback, opt, gate)
			}
		})
	}
}
