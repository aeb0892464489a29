package core

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"prcu/internal/obs"
	"prcu/internal/pad"
	"prcu/internal/spin"
)

// DefaultCounterTableSize is the C-table size used in the paper's
// evaluation ("The D-PRCU implementation uses a 1024-counter table", §6).
const DefaultCounterTableSize = 1024

// optimisticBudget is the number of back-off steps a wait spends hoping a
// node's readers drain naturally before acquiring the node lock and running
// the gate-toggle protocol (§4.2 "Optimistic waiting").
const optimisticBudget = 128

// dNode is one slot of D-PRCU's shared counter table C (Algorithm 2).
// It uses the SRCU-style two-counter waiting protocol: the gate bit selects
// which counter arriving readers increment, so a waiter can drain one phase
// while the other keeps absorbing new readers, guaranteeing the wait
// terminates even under a continuous stream of arrivals.
//
// Every field gets its own cache line: the counters are the reader fast
// path, the gate is read by every Enter and written only by slow-path
// drains, and the lock serializes concurrent drains of the same node.
type dNode struct {
	gate    pad.Uint64
	readers [2]pad.Int64
	mu      sync.Mutex
	// drains counts completed gate-protocol drains of this node; it backs
	// the batching optimization of §4.2 ("Further optimizations"): a
	// waiter that finds the lock taken piggybacks by waiting until two
	// drains complete after its arrival — the second one necessarily
	// started after the waiter arrived and therefore covers it.
	drains pad.Uint64
	_      [pad.CacheLineSize - 8]byte
}

// dTable is one generation of the counter table. Resize (§4.2 "Further
// optimizations") swaps in a larger generation; the table is therefore
// reached through an atomic pointer and readers re-validate it after
// incrementing, exactly like the resizable hash table's lookups.
type dTable struct {
	nodes []dNode
	mask  uint64
}

func newDTable(size int) *dTable {
	if size < 1 || size&(size-1) != 0 {
		panic(fmt.Sprintf("prcu: D-PRCU table size must be a power of two, got %d", size))
	}
	return &dTable{nodes: make([]dNode, size), mask: uint64(size - 1)}
}

func (t *dTable) index(v Value) uint64 { return hashValue(v) & t.mask }

// D implements D-PRCU (Algorithm 2). Readers hash their value into the
// counter table; wait-for-readers drains only the nodes covered by an
// enumerable predicate, making its cost O(|P⁻¹|) — independent of the
// number of threads. General (non-enumerable) predicates fall back to
// draining the whole table, as described in §4.2.
type D struct {
	metered
	resilient
	tunable
	reg *registry
	tbl atomic.Pointer[dTable]
	// old holds the previous table generation while a Resize drains it;
	// concurrent waits drain it conservatively until it clears.
	old      atomic.Pointer[dTable]
	resizeMu sync.Mutex
	// optBudget is the optimistic-waiting budget; <= 0 goes straight to
	// the gate protocol. Tunable (before use) for the ablation study.
	optBudget int
}

// NewD returns a D-PRCU engine capped at maxReaders concurrent readers
// (0 = grow on demand). tableSize is the counter-table size |C| and must
// be a power of two; 0 selects the paper's default of 1024.
func NewD(maxReaders, tableSize int) *D {
	if tableSize == 0 {
		tableSize = DefaultCounterTableSize
	}
	d := &D{
		reg:       newRegistry(maxReaders, nil),
		optBudget: optimisticBudget,
	}
	d.tbl.Store(newDTable(tableSize))
	return d
}

// SetOptimisticBudget tunes the optimistic-waiting spin budget (§4.2);
// zero or negative disables optimistic waiting entirely, sending every
// drain straight to the gate protocol. Call before the engine is in use —
// the field is read without synchronization on the wait path.
func (d *D) SetOptimisticBudget(budget int) { d.optBudget = budget }

// Name implements RCU.
func (d *D) Name() string { return "D-PRCU" }

// MaxReaders implements RCU.
func (d *D) MaxReaders() int { return d.reg.maxReaders() }

// LiveReaders returns the number of currently registered readers.
func (d *D) LiveReaders() int { return d.reg.liveReaders() }

// SlotCapacity implements SlotCapacitor.
func (d *D) SlotCapacity() int { return d.reg.capacity() }

// TableSize returns |C|, the current counter table size.
func (d *D) TableSize() int { return len(d.tbl.Load().nodes) }

// hashValue is h_rcu: D → [|C|]. The domain is opaque and possibly huge
// (§4.2), so a strong mixer (splitmix64 finalizer) spreads adjacent values
// across the table, keeping counter contention low for disjoint readers.
func hashValue(v Value) uint64 {
	v ^= v >> 30
	v *= 0xbf58476d1ce4e5b9
	v ^= v >> 27
	v *= 0x94d049bb133111eb
	v ^= v >> 31
	return v
}

type dReader struct {
	readerGuard
	d    *D
	lane *obs.ReaderLane
	slot int
	// node and b record the counter cell and gate bit chosen at Enter, so
	// Exit decrements exactly the counter Enter incremented (Algorithm
	// 2's thread-local b). tbl pins the table generation for the
	// Exit-value consistency check. inCS guards the no-nesting contract.
	node *dNode
	tbl  *dTable
	b    uint64
	inCS bool
}

// Register implements RCU. D-PRCU readers carry no scanned per-slot state —
// the counter table is the shared state — but slots still bound and account
// for the reader population.
func (d *D) Register() (Reader, error) {
	slot, _, err := d.reg.acquire()
	if err != nil {
		return nil, err
	}
	return &dReader{d: d, lane: d.lane(slot), slot: slot}, nil
}

// Enter implements Reader (Algorithm 2 lines 4–7). The fetch-and-add is an
// SC atomic RMW, which supplies the fence the paper notes TSO gets for free
// from the atomic operation. The table pointer is re-validated after the
// increment so an Enter racing a Resize can never count itself in a
// generation that has already been drained and abandoned.
func (r *dReader) Enter(v Value) {
	r.check()
	if r.inCS {
		panic("prcu: nested read-side critical sections are not supported")
	}
	for {
		t := r.d.tbl.Load()
		n := &t.nodes[t.index(v)]
		b := n.gate.Load() & 1
		n.readers[b].Add(1)
		if r.d.tbl.Load() == t {
			r.node, r.tbl, r.b, r.inCS = n, t, b, true
			if r.lane != nil {
				r.lane.OnEnter(v)
			}
			return
		}
		n.readers[b].Add(-1)
	}
}

// Exit implements Reader (Algorithm 2 lines 8–9).
func (r *dReader) Exit(v Value) {
	r.check()
	if !r.inCS {
		panic("prcu: Exit without matching Enter")
	}
	if n := &r.tbl.nodes[r.tbl.index(v)]; n != r.node {
		panic("prcu: Exit value does not match Enter value")
	}
	if r.lane != nil {
		r.lane.OnExit(v)
	}
	r.node.readers[r.b].Add(-1)
	r.node, r.tbl, r.inCS = nil, nil, false
}

// Do implements Reader.
func (r *dReader) Do(v Value, fn func()) { DoCritical(r, v, fn) }

// Unregister implements Reader.
func (r *dReader) Unregister() {
	r.closing()
	if r.inCS {
		panic("prcu: Unregister inside a read-side critical section")
	}
	r.markClosed()
	r.d.reg.release(r.slot)
	r.d = nil
}

// WaitForReaders implements RCU (Algorithm 2 lines 10–13). For enumerable
// predicates it drains only the covered nodes, deduplicating indices so
// hash collisions within P⁻¹ never drain a node twice (§4.2 footnote 2).
// For general predicates it applies the protocol at every node, the
// fallback §4.2 describes. If a table resize is in flight, the previous
// generation is drained in full — readers counted there may hold any
// value, so only a global drain of that generation is conservative enough.
func (d *D) WaitForReaders(p Predicate) {
	if st := d.stallCfg.Load(); st != nil {
		// Watchdog armed: run the controlled twin of the loop below.
		d.waitReaders(p, newControl(nil, st, p, d))
		return
	}
	// Unarmed fast path: the pre-resilience wait, verbatim, so an unarmed
	// wait costs exactly what it did before the watchdog existed. Keep in
	// sync with waitReaders, its wc.step-controlled twin.
	m := d.met
	var start obs.WaitSpan
	if m != nil {
		start = m.WaitBegin()
	}
	var agg drainAgg
	// The updater's prior writes are ordered before the counter loads in
	// drain by SC atomics (the paper's line 11 fence). A nil wc never
	// errors, so the error returns are discarded here.
	t := d.tbl.Load()
	if !p.Enumerable() {
		for j := range t.nodes {
			info, _ := d.drainNodeBlamed(&t.nodes[j], j, &start, nil)
			agg.add(info)
		}
	} else {
		d.drainCoveredFast(t, p, &agg, &start)
	}
	if o := d.old.Load(); o != nil && o != t {
		for j := range o.nodes {
			info, _ := d.drainNodeBlamed(&o.nodes[j], j, &start, nil)
			agg.add(info)
		}
	}
	if m != nil {
		m.DrainCounts(agg.opt, agg.gate, agg.piggy)
		m.WaitEnd(start, agg.scanned, agg.waited, agg.parked)
	}
}

// WaitForReadersCtx implements RCU: WaitForReaders bounded by ctx.
// Cancellation is checked in the piggyback and gate-protocol wait loops
// (the optimistic phase is already budget-bounded); aborting mid-gate
// releases the node lock without advancing the drains counter, leaving
// the protocol restartable by the next wait.
func (d *D) WaitForReadersCtx(ctx context.Context, p Predicate) error {
	wc := d.control(ctx, p, d)
	if err := wc.pre(); err != nil {
		return err
	}
	return d.waitReaders(p, wc)
}

func (d *D) waitReaders(p Predicate, wc *waitControl) error {
	m := d.met
	var start obs.WaitSpan
	if m != nil {
		start = m.WaitBeginCtx(wc.Ctx())
	}
	var agg drainAgg
	var werr error
	// The updater's prior writes are ordered before the counter loads in
	// drain by SC atomics (the paper's line 11 fence).
	t := d.tbl.Load()
	if !p.Enumerable() {
		for j := range t.nodes {
			info, err := d.drainNodeBlamed(&t.nodes[j], j, &start, wc)
			agg.add(info)
			if err != nil {
				werr = err
				break
			}
		}
	} else {
		werr = d.drainCovered(t, p, &agg, &start, wc)
	}
	if werr == nil {
		if o := d.old.Load(); o != nil && o != t {
			for j := range o.nodes {
				info, err := d.drainNodeBlamed(&o.nodes[j], j, &start, wc)
				agg.add(info)
				if err != nil {
					werr = err
					break
				}
			}
		}
	}
	if m != nil {
		m.DrainCounts(agg.opt, agg.gate, agg.piggy)
		m.WaitEnd(start, agg.scanned, agg.waited, agg.parked)
	}
	return werr
}

// drainInfo reports how one node drain resolved: its outcome class,
// whether readers were present at all (the node had to be waited on),
// and whether any wait loop crossed from spinning into yielding.
type drainInfo struct {
	outcome obs.DrainOutcome
	waited  bool
	parked  bool
}

// drainAgg accumulates per-wait drain statistics. For D-PRCU the
// "readers scanned / waited for" selectivity is counted over counter
// nodes — the unit its waits actually visit.
type drainAgg struct {
	scanned, waited, parked uint64
	opt, gate, piggy        uint64
}

func (a *drainAgg) add(i drainInfo) {
	a.scanned++
	if i.waited {
		a.waited++
	}
	if i.parked {
		a.parked++
	}
	switch i.outcome {
	case obs.DrainOptimistic:
		a.opt++
	case obs.DrainGate:
		a.gate++
	case obs.DrainPiggyback:
		a.piggy++
	}
}

// probeMax bounds the predicates probeClean handles: a bucket pair or a
// short key interval, the waits the paper's structures issue by the
// thousand. Wider predicates go straight to the per-node drain.
const probeMax = 4

// probeClean takes optimistic waiting's first look (§4.2) at every
// distinct node an enumerable predicate of at most probeMax values
// covers, before any node is drained. If all their counters read zero,
// the wait is done with t (Lemma 1: a reader already in its section when
// the wait began keeps its counter non-zero until it exits); the nodes
// are counted as clean optimistic drains, as drainNode's own first look
// would count them, and probeClean reports true. Otherwise it records
// nothing and the caller drains as usual. With optimistic waiting off
// there is no first look to take, so the probe is skipped as well.
func (d *D) probeClean(t *dTable, p Predicate, agg *drainAgg) bool {
	if d.optBudget <= 0 || !p.Enumerable() {
		return false
	}
	var nodes [probeMax]*dNode
	n := 0
	for v, k := p.first, 0; ; k++ {
		if k == probeMax {
			return false
		}
		if c := &t.nodes[t.index(v)]; !slices.Contains(nodes[:n], c) {
			nodes[n] = c
			n++
		}
		if v == p.last {
			break
		}
		v = p.next(v)
	}
	for _, c := range nodes[:n] {
		if c.readers[0].Load() != 0 || c.readers[1].Load() != 0 {
			return false
		}
	}
	agg.scanned += uint64(n)
	agg.opt += uint64(n)
	return true
}

// drainCoveredFast is the uncontrolled twin of drainCovered, used by the
// unarmed WaitForReaders fast path (a nil wait control never errors, so
// the error plumbing and its closure are dropped entirely). Keep the
// dedup logic in sync with drainCovered.
func (d *D) drainCoveredFast(t *dTable, p Predicate, agg *drainAgg, sp *obs.WaitSpan) {
	if d.probeClean(t, p, agg) {
		return
	}
	var small [16]uint64
	seen := small[:0]
	var bitmap []uint64
	p.ForEach(func(v Value) bool {
		idx := t.index(v)
		if bitmap == nil {
			for _, s := range seen {
				if s == idx {
					return true
				}
			}
			if len(seen) < cap(seen) {
				seen = append(seen, idx)
				info, _ := d.drainNodeBlamed(&t.nodes[idx], int(idx), sp, nil)
				agg.add(info)
				return true
			}
			// Spill: promote to bitmap.
			bitmap = make([]uint64, (len(t.nodes)+63)/64)
			for _, s := range seen {
				bitmap[s/64] |= 1 << (s % 64)
			}
		}
		if bitmap[idx/64]&(1<<(idx%64)) != 0 {
			return true
		}
		bitmap[idx/64] |= 1 << (idx % 64)
		info, _ := d.drainNodeBlamed(&t.nodes[idx], int(idx), sp, nil)
		agg.add(info)
		return true
	})
}

// drainCovered drains the nodes of t that p's values hash to, each once,
// stopping early on cancellation.
func (d *D) drainCovered(t *dTable, p Predicate, agg *drainAgg, sp *obs.WaitSpan, wc *waitControl) error {
	if d.probeClean(t, p, agg) {
		return nil
	}
	// Dedup covered indices. Predicates in practice cover very few values
	// (a bucket pair, a small key interval), so a small linear buffer
	// avoids allocation; large predicates spill into a bitmap.
	var small [16]uint64
	seen := small[:0]
	var bitmap []uint64
	var werr error
	drain := func(idx uint64) bool {
		info, err := d.drainNodeBlamed(&t.nodes[idx], int(idx), sp, wc)
		agg.add(info)
		if err != nil {
			werr = err
			return false
		}
		return true
	}
	p.ForEach(func(v Value) bool {
		idx := t.index(v)
		if bitmap == nil {
			for _, s := range seen {
				if s == idx {
					return true
				}
			}
			if len(seen) < cap(seen) {
				seen = append(seen, idx)
				return drain(idx)
			}
			// Spill: promote to bitmap.
			bitmap = make([]uint64, (len(t.nodes)+63)/64)
			for _, s := range seen {
				bitmap[s/64] |= 1 << (s % 64)
			}
		}
		if bitmap[idx/64]&(1<<(idx%64)) != 0 {
			return true
		}
		bitmap[idx/64] |= 1 << (idx % 64)
		return drain(idx)
	})
	return werr
}

// drainNodeBlamed wraps drainNode with a flight-recorder blame sample.
// D-PRCU waits block on counter nodes, not readers, so blame slots are
// counter-node indices — the same unit stalledReaders reports.
func (d *D) drainNodeBlamed(n *dNode, idx int, sp *obs.WaitSpan, wc *waitControl) (drainInfo, error) {
	bs := d.met.BlameStart(sp)
	info, err := d.drainNode(n, wc)
	if info.waited {
		d.met.BlameSample(sp, idx, bs)
	}
	return info, err
}

// drainNode waits until node n has been observed with zero readers in each
// counter (Lemma 1), first optimistically and then via the gate protocol
// (Algorithm 2 lines 14–20), piggybacking on a concurrent drain when the
// node lock is contended.
func (d *D) drainNode(n *dNode, wc *waitControl) (drainInfo, error) {
	// Optimistic waiting (§4.2): hope readers drain naturally, avoiding the
	// lock and the gate toggle. Lemma 1 needs each counter observed at zero
	// at some point during the wait — not simultaneously — so the two
	// observations are tracked independently. The phase is budget-bounded,
	// so no cancellation check is needed inside it.
	info := drainInfo{outcome: obs.DrainOptimistic}
	if d.optBudget > 0 {
		seen0 := n.readers[0].Load() == 0
		seen1 := n.readers[1].Load() == 0
		if seen0 && seen1 {
			return info, nil // clean: no readers present on first look
		}
		info.waited = true
		if spin.UntilBudgetTuned(func() bool {
			seen0 = seen0 || n.readers[0].Load() == 0
			seen1 = seen1 || n.readers[1].Load() == 0
			return seen0 && seen1
		}, d.optBudget, d.tuning()) {
			return info, nil
		}
	}
	info.waited = true

	// Batching (§4.2, implemented here although the paper defers it): if
	// another drain holds the lock, piggyback instead of queueing — wait
	// until the completed-drain counter advances by two past our arrival.
	// Drain s0+1 may already have been mid-protocol when we arrived, but
	// drain s0+2 started after s0+1 finished, i.e. after we arrived, so
	// its two-phase sweep covers every reader we are obliged to wait for.
	s0 := n.drains.Load()
	w := d.waiter()
	for !n.mu.TryLock() {
		if n.drains.Load() >= s0+2 {
			info.outcome = obs.DrainPiggyback
			info.parked = w.Yielded()
			return info, nil
		}
		if err := wc.step(&w); err != nil {
			info.parked = w.Yielded()
			return info, err
		}
	}

	// Full protocol: drain the inactive phase, toggle the gate so new
	// arrivals use the drained phase, then drain the previously active
	// phase. Termination needs only that readers keep taking steps. On
	// cancellation the lock is released without advancing drains — the
	// protocol is restartable, and a mid-protocol gate toggle only means
	// the next drain starts from the other phase.
	info.outcome = obs.DrainGate
	g := n.gate.Load() & 1
	w.Reset()
	for n.readers[1-g].Load() != 0 {
		if err := wc.step(&w); err != nil {
			info.parked = w.Yielded()
			n.mu.Unlock()
			return info, err
		}
	}
	n.gate.Store(1 - g)
	for n.readers[g].Load() != 0 {
		if err := wc.step(&w); err != nil {
			info.parked = w.Yielded()
			n.mu.Unlock()
			return info, err
		}
	}
	info.parked = w.Yielded()
	n.drains.Add(1)
	n.mu.Unlock()
	return info, nil
}

// stalledReaders implements stallProber. D-PRCU waits block on counter
// nodes, not readers, so Slot is the counter-node index in the current
// table; for an enumerable predicate Value records one covered value that
// hashes to the node (the diagnostic the hash obscures otherwise).
func (d *D) stalledReaders(p Predicate) []StalledReader {
	t := d.tbl.Load()
	occupied := func(n *dNode) bool {
		return n.readers[0].Load() != 0 || n.readers[1].Load() != 0
	}
	var out []StalledReader
	if !p.Enumerable() {
		for j := range t.nodes {
			if occupied(&t.nodes[j]) {
				out = append(out, StalledReader{Slot: j})
			}
		}
		return out
	}
	seen := make(map[uint64]bool)
	p.ForEach(func(v Value) bool {
		idx := t.index(v)
		if seen[idx] {
			return true
		}
		seen[idx] = true
		if occupied(&t.nodes[idx]) {
			out = append(out, StalledReader{Slot: int(idx), Value: v, HasValue: true})
		}
		return true
	})
	return out
}

// Resize installs a counter table of newSize (a power of two) — the table
// expansion §4.2 lists as future work, used to relieve hash-collision
// contention as reader populations grow. As the paper prescribes, the old
// generation is drained globally: new readers immediately use the new
// table (re-validating across the swap), and concurrent waits keep
// draining the old generation until it empties.
func (d *D) Resize(newSize int) {
	nt := newDTable(newSize)
	d.resizeMu.Lock()
	defer d.resizeMu.Unlock()
	ot := d.tbl.Load()
	if len(ot.nodes) == newSize {
		return
	}
	d.old.Store(ot)
	d.tbl.Store(nt)
	for j := range ot.nodes {
		d.drainNode(&ot.nodes[j], nil)
	}
	d.old.Store(nil)
}
