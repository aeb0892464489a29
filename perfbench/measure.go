package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"prcu/internal/tsc"
)

var epoch = time.Now()

// now is the benchmark's clock: monotonic nanoseconds since start.
func now() int64 { return int64(time.Since(epoch)) }

// clockReadNs measures the cost of one now() call as the median over
// batches of back-to-back reads. Individually timed calls include about
// one such read, which the metrics subtract.
func clockReadNs() float64 {
	return batchCost(func() int64 { return now() })
}

// tscReadNs measures one read of the clock the timestamp engines use
// (tsc.Monotonic, the engines' default when Options.Clock is nil).
func tscReadNs() float64 {
	c := tsc.NewMonotonic()
	return batchCost(c.Now)
}

var sink atomic.Int64

func batchCost(read func() int64) float64 {
	const n, batches = 1 << 15, 9
	costs := make([]float64, batches)
	for b := range costs {
		var acc int64
		t0 := now()
		for i := 0; i < n; i++ {
			acc += read()
		}
		costs[b] = float64(now()-t0) / n
		sink.Add(acc)
	}
	sort.Float64s(costs)
	return costs[batches/2]
}

// Phases of a run: load runs through a warm-up, then the measured
// window, then stops.
const (
	phaseWarmup int32 = iota
	phaseMeasure
	phaseStop
)

// harness drives one run's phases and samples the Go heap.
type harness struct {
	phase atomic.Int32
	// live holds the live heap, sampled every 10 ms in the window: the
	// heap the last GC cycle marked reachable. Only the driving
	// goroutine touches it.
	live []float64
	// allocs is the runtime's cumulative allocation count in bytes at the
	// window's start and end.
	allocs [2]uint64
}

const windowNs = int64(500 * time.Millisecond)

// meter is one load goroutine's view of the phases. Its goroutine calls
// tick every few ops; tick tracks the phase and closes a rate window
// every windowNs, so the rate metrics are medians over windows and a
// short stall moves them less than a whole-run mean.
//
// Each window yields two rates: ops per second of wall time, and ops per
// second of the goroutine's own thread CPU time. The host is a shared
// VM whose hypervisor at times takes 15-20 % of its CPU time; the
// guest's thread clock leaves that stolen time out, the wall clock does
// not. Load goroutines are locked to their threads (goLoad), so the
// thread's CPU time is the goroutine's, plus any runtime work such as
// GC assists done on its behalf.
type meter struct {
	h         *harness
	measuring bool
	ops       int64
	winStart  int64
	winCPU    int64
	winOps    int64
	rates     []float64
	cpuRates  []float64
	measured  int64
}

func newMeter(h *harness) *meter { return &meter{h: h} }

// tick records that ops have completed since the last call and reports
// whether the run has stopped.
func (m *meter) tick(ops int64) (stop bool) {
	m.ops += ops
	switch m.h.phase.Load() {
	case phaseWarmup:
		return false
	case phaseStop:
		if m.measuring {
			m.closeWindow(now())
			m.measuring = false
		}
		return true
	}
	t := now()
	if !m.measuring {
		m.measuring = true
		m.winStart, m.winCPU, m.winOps = t, threadCPUNs(), m.ops
		return false
	}
	if t-m.winStart >= windowNs {
		m.closeWindow(t)
	}
	return false
}

func (m *meter) closeWindow(t int64) {
	n := m.ops - m.winOps
	m.measured += n
	// A closing window shorter than a fifth of the others is dropped from
	// the rates; its ops still count.
	cpu := threadCPUNs()
	if d := t - m.winStart; d > windowNs/5 && n > 0 {
		m.rates = append(m.rates, float64(n)*1e9/float64(d))
		if c := cpu - m.winCPU; c > 0 {
			m.cpuRates = append(m.cpuRates, float64(n)*1e9/float64(c))
		}
	}
	m.winStart, m.winCPU, m.winOps = t, cpu, m.ops
}

// rate is the median windowed rate in ops per wall-clock second.
func (m *meter) rate() float64 { return median(m.rates) }

// cpuRate is the median windowed rate in ops per second of the
// goroutine's thread CPU time.
func (m *meter) cpuRate() float64 { return median(m.cpuRates) }

// threadCPUNs returns the calling thread's CPU time in nanoseconds
// (CLOCK_THREAD_CPUTIME_ID). The guest kernel's steal-time accounting
// keeps time the hypervisor ran other guests out of it.
func threadCPUNs() int64 {
	var ts syscall.Timespec
	const clockThreadCPUTimeID = 3
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID,
		uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return ts.Nano()
}

var heapMetrics = []metrics.Sample{
	{Name: "/gc/heap/live:bytes"},
	{Name: "/gc/heap/allocs:bytes"},
}

func readHeap() (live, allocs uint64) {
	s := make([]metrics.Sample, len(heapMetrics))
	copy(s, heapMetrics)
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// run drives the phases: warm-up, the measured window of the given
// length, stop. Load goroutines are started by the caller and observe
// the phases through their meters. tick, when set, runs on every heap
// sample during the window.
func (h *harness) run(warmup, window time.Duration, tick func()) {
	time.Sleep(warmup)
	_, h.allocs[0] = readHeap()
	h.phase.Store(phaseMeasure)
	deadline := time.Now().Add(window)
	t := time.NewTicker(10 * time.Millisecond)
	defer t.Stop()
	for time.Now().Before(deadline) {
		<-t.C
		live, _ := readHeap()
		h.live = append(h.live, float64(live))
		if tick != nil {
			tick()
		}
	}
	_, h.allocs[1] = readHeap()
	h.phase.Store(phaseStop)
}

// goLoad starts fn on its own goroutine, locked to its own thread, under
// wg.
func goLoad(wg *sync.WaitGroup, fn func()) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		fn()
	}()
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// gcQuiet collects garbage left by earlier phases so each timed set-up
// and each window starts from the same heap state. It collects twice:
// the first cycle only moves sync.Pool contents to the pools' victim
// caches, which keep them reachable until the second.
func gcQuiet() {
	runtime.GC()
	runtime.GC()
}
