package main

import (
	"fmt"
	"sync"
	"time"
)

// runConfig is one run of one workload.
type runConfig struct {
	seed   uint64
	window time.Duration
	warmup time.Duration
	// setups is how many times set-up is timed; the last build is the
	// one the load runs on.
	setups int
	// tr is the tracer of a traced run, nil for an end-to-end run.
	tr *tracer
	// wrapLookup, when set, wraps the reader's lookup: the self-test
	// plants a defect through it.
	wrapLookup func(lookupFn) lookupFn
}

// lookupFn is one read of the structure under test.
type lookupFn func(k uint64) (val uint64, ok bool)

// runResult is what one run measured and checked.
type runResult struct {
	attempted, failed int64
	// problems are failed end-of-run checks; any makes the run incorrect.
	problems []string

	setupS  []float64
	reads   *meter
	updates *meter
	// readNs and updNs are sampled latencies in ns, raw (the clock
	// read's cost is not yet removed).
	readNs, updNs hist
	// timerNs holds back-to-back clock reads taken beside the read
	// samples: the timer cost under the window's own conditions, which
	// the sampled latencies subtract.
	timerNs hist
	// heapLive is the median and heapPeak the largest live-heap sample
	// taken in the window; heapRetained is the live heap after a forced
	// GC once the load has stopped.
	heapLive, heapPeak, heapRetained float64
	allocBytes                       uint64
	// updatesTotal and expands count the whole run's updates (expansion
	// cycles on hash-expand) and Expand calls, warm-up included: the
	// bases of the per-wait ratios.
	updatesTotal, expands int64
	probeAgeMean          float64
	// extra holds workload-specific metrics, printed by name; layer
	// holds workload-specific per-layer values.
	extra []metric
	layer map[string]float64
}

// model follows the keys the single updater has made present. The
// updater is the only mutator, so the model predicts every Insert and
// Delete result, and the final size, exactly.
type model struct {
	present []bool // by key index
	size    int
	deletes int64 // successful deletes
}

func newModel(keys int) model { return model{present: make([]bool, keys)} }

// add records a key inserted at set-up.
func (m *model) add(idx int) {
	m.present[idx] = true
	m.size++
}

// apply records an update's result and reports whether the model
// predicted it. A successful op moves the model even when unpredicted.
func (m *model) apply(idx int, insert, got bool) bool {
	want := insert != m.present[idx]
	if got {
		m.present[idx] = insert
		if insert {
			m.size++
		} else {
			m.size--
			m.deletes++
		}
	}
	return got == want
}

func (r *runResult) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
	r.failed++
}

// Reads and updates are timed on a sample: one read in readSample, one
// closed-loop update in updSample. A clock read costs about as much as a
// hash-table lookup, so timing every read would double what is measured.
const (
	readSample = 32
	updSample  = 8
	tickEvery  = 64
)

// Read-check classes of a key index; see keySet.
const (
	checkNone      = iota // unpinned key of a Contains-only structure
	checkPresent          // pinned present: must be found with its value
	checkAbsent           // pinned absent: must not be found
	checkIfPresent        // unpinned hash key: if found, with its value
)

// readLoop is the closed-loop reader shared by all workloads: it reads
// keys from its generator until the run stops, times a sample of reads,
// and checks every pinned key (and, with checkVal, every value found).
// lookup is re-fetched through cur each time swapped reports a new
// structure. Wrong results count as failed reads.
func readLoop(cfg *runConfig, h *harness, ks *keySet, unpinned int, checkVal bool,
	cur func() lookupFn, swapped func() bool, l *lane, kind spanKind, res *runResult) {
	g := newReadGen(cfg.seed, ks)
	m := newMeter(h)
	res.reads = m
	lookup := cur()
	var failed, n int64
	for {
		if n%tickEvery == 0 {
			if n > 0 && m.tick(tickEvery) {
				break
			}
			if swapped != nil && swapped() {
				lookup = cur()
			}
		}
		idx := g.next()
		k := ks.keys[idx]
		var v uint64
		var ok bool
		if m.measuring && n%readSample == 0 {
			if l != nil {
				l.begin()
			}
			t0 := now()
			v, ok = lookup(k)
			t1 := now()
			// Nothing runs between t1 and t2: their gap is the cost of
			// one clock read under the window's conditions.
			t2 := now()
			if l != nil {
				l.tr.observeClock(t2 - t1)
				l.end(kind, t0, t1)
			}
			res.readNs.add(t1 - t0)
			res.timerNs.add(t2 - t1)
		} else {
			v, ok = lookup(k)
		}
		class := unpinned
		if idx < ks.present {
			class = checkPresent
		} else if idx < ks.pinned {
			class = checkAbsent
		}
		switch class {
		case checkPresent:
			if !ok || (checkVal && v != valueOf(k)) {
				failed++
			}
		case checkAbsent:
			if ok {
				failed++
			}
		case checkIfPresent:
			if ok && v != valueOf(k) {
				failed++
			}
		}
		n++
	}
	res.attempted += n
	res.failed += failed
}

// minSetupNs is the least total time timeSetup spends in timed builds
// when it may repeat them, so a millisecond build's median rests on up
// to maxSetups samples rather than nine.
const (
	minSetupNs = int64(250 * time.Millisecond)
	maxSetups  = 101
)

// timeSetup runs build at least cfg.setups times, timing each, and keeps
// the last result. When cfg.setups > 1 it repeats builds until they have
// taken minSetupNs in all or maxSetups have run. Earlier builds are
// released with drop.
func timeSetup[T any](cfg *runConfig, res *runResult, build func() (T, error), drop func(T)) (T, error) {
	var st T
	var total int64
	for i := 0; i < cfg.setups || (cfg.setups > 1 && total < minSetupNs && i < maxSetups); i++ {
		if i > 0 {
			drop(st)
		}
		gcQuiet()
		t0 := now()
		var err error
		st, err = build()
		if err != nil {
			return st, err
		}
		d := now() - t0
		total += d
		res.setupS = append(res.setupS, float64(d)/1e9)
	}
	gcQuiet()
	return st, nil
}

// runLoad starts the reader and updater goroutines, drives the phases
// and waits for both to return.
func runLoad(cfg *runConfig, h *harness, res *runResult, tick func(), reader, updater func()) {
	var wg sync.WaitGroup
	goLoad(&wg, reader)
	goLoad(&wg, updater)
	h.run(cfg.warmup, cfg.window, tick)
	wg.Wait()
	gcQuiet()
	live, _ := readHeap()
	res.heapRetained = float64(live)
	res.heapLive = median(h.live)
	for _, v := range h.live {
		res.heapPeak = max(res.heapPeak, v)
	}
	res.allocBytes = h.allocs[1] - h.allocs[0]
}
