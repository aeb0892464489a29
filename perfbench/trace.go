package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"prcu"
)

// The traced run hands each structure a tracedRCU instead of the bare
// engine. Nothing inside the program is instrumented: the wrapper times
// the engine's public calls (WaitForReaders, and Enter/Exit through the
// Readers it returns), and the workload loops time the structure calls
// around them. No structure or the reclaimer type-asserts its engine,
// so the wrapper changes timing only.

// spanKind names a span: a structure op, a reclaimer probe, or an
// engine call inside one.
type spanKind uint8

const (
	kContains spanKind = iota
	kTreeInsert
	kTreeDelete
	kGet
	kInsert
	kDelete
	kExpand
	kProbe
	kEnter
	kExit
	kWait
	numKinds
)

var kindNames = [numKinds]string{
	"citrus.Contains", "citrus.Insert", "citrus.Delete",
	"hashtable.Get", "hashtable.Insert", "hashtable.Delete", "hashtable.Expand",
	"reclaim.Defer", "core.Enter", "core.Exit", "core.WaitForReaders",
}

// span is one timed call. Spans of one op share op, the id of the op's
// own span; parent is the enclosing span's id, 0 for an op.
type span struct {
	id, parent, op uint64
	start, end     int64
	kind           spanKind
}

// spanCap bounds the spans each recorder keeps in memory; per-layer
// metrics come from samples and counters, so spans past the cap are
// only counted.
const spanCap = 1 << 16

type spanBuf struct {
	spans   []span
	dropped int64
}

func (b *spanBuf) add(s span) {
	if len(b.spans) < spanCap {
		b.spans = append(b.spans, s)
		return
	}
	b.dropped++
}

// tracer collects one traced run's spans, samples and counts.
type tracer struct {
	// clkBits holds the float64 cost of one clock read in ns: the
	// start-up calibration at first, then a running average of the
	// reader's back-to-back reads taken beside its samples (see
	// observeClock). A tight calibration loop reads the clock faster than
	// the workload's isolated reads do, and an Expand's self time
	// subtracts one clock read per wait, thousands of them.
	clkBits atomic.Uint64
	ids     atomic.Uint64

	// nextLane is the lane the next Register binds its reader to; set
	// by the registering goroutine just before it registers.
	nextLane atomic.Pointer[lane]
	// waitOwner is the lane whose goroutine issues the engine waits
	// (tree-mixed's updater, hash-expand's expander); nil when the waits
	// run on the reclaimer's own goroutines.
	waitOwner atomic.Pointer[lane]

	waits  atomic.Int64
	waitNs atomic.Int64
	waitH  hist

	mu    sync.Mutex
	root  spanBuf // spans with no owning lane: reclaimer waits, probes
	lanes []*lane
}

func newTracer(clk float64) *tracer {
	t := &tracer{}
	t.clkBits.Store(math.Float64bits(clk))
	return t
}

func (t *tracer) clk() float64 { return math.Float64frombits(t.clkBits.Load()) }

// observeClock folds one back-to-back clock-read interval into the
// running cost estimate; intervals stretched by preemption are skipped.
func (t *tracer) observeClock(d int64) {
	c := t.clk()
	if float64(d) > 4*c {
		return
	}
	t.clkBits.Store(math.Float64bits(c + (float64(d)-c)/256))
}

// wrap returns the traced engine over r.
func (t *tracer) wrap(r prcu.RCU) prcu.RCU { return &tracedRCU{RCU: r, tr: t} }

// newLane returns a recorder for one goroutine.
func (t *tracer) newLane() *lane {
	l := &lane{tr: t}
	t.mu.Lock()
	t.lanes = append(t.lanes, l)
	t.mu.Unlock()
	return l
}

func (t *tracer) recordWait(a, b int64) {
	if l := t.waitOwner.Load(); l != nil {
		l.child(kWait, a, b)
		return
	}
	t.countWait(a, b)
	t.mu.Lock()
	t.root.add(span{id: t.ids.Add(1), start: a, end: b, kind: kWait})
	t.mu.Unlock()
}

func (t *tracer) countWait(a, b int64) {
	t.waits.Add(1)
	t.waitNs.Add(b - a)
	t.waitH.add(b - a - int64(t.clk()))
}

func (t *tracer) recordRoot(kind spanKind, a, b int64) {
	id := t.ids.Add(1)
	t.mu.Lock()
	t.root.add(span{id: id, op: id, start: a, end: b, kind: kind})
	t.mu.Unlock()
}

// lane records the spans of one goroutine. The goroutine opens an op
// with begin and closes it with end; engine calls it makes in between
// become the op's children and are subtracted to give the op's self
// time. Only the owning goroutine touches a lane until the run ends.
type lane struct {
	tr   *tracer
	buf  spanBuf
	open bool
	op   uint64
	// pending holds the open op's children until the op ends: their
	// bookkeeping (ids, histograms, spans) would otherwise run inside
	// the op's span and count as its self time.
	pending []pendingChild
	// childRaw sums the measured durations of the open op's children.
	childRaw  int64
	childWait int64
	nchild    int64
	// opRaw and opWait sum, per op kind, the ops' measured durations and
	// the engine waits inside them: the base of core.wait_share.
	opRaw, opWait [numKinds]int64
	// lat and self hold, per op kind, the op's latency with the nested
	// timers' cost removed and its self time; for Enter/Exit, lat holds
	// the call's own cost.
	lat, self [numKinds]*hist
}

func (l *lane) begin() {
	l.open = true
	l.op = l.tr.ids.Add(1)
	l.childRaw, l.childWait, l.nchild = 0, 0, 0
}

// end closes the open op spanning [a, b]. Each nested timing adds about
// two clock reads inside the op and each measured interval about one;
// both are removed.
func (l *lane) end(kind spanKind, a, b int64) {
	clk := l.tr.clk()
	raw := float64(b - a)
	l.hist(&l.lat, kind).add(int64(raw - clk*float64(1+2*l.nchild)))
	l.hist(&l.self, kind).add(int64(raw - float64(l.childRaw) - clk*float64(1+l.nchild)))
	l.opRaw[kind] += b - a
	l.opWait[kind] += l.childWait
	l.buf.add(span{id: l.op, op: l.op, start: a, end: b, kind: kind})
	l.open = false
	for _, c := range l.pending {
		l.record(c.kind, c.a, c.b, l.op)
	}
	l.pending = l.pending[:0]
}

type pendingChild struct {
	kind spanKind
	a, b int64
}

func (l *lane) hist(hs *[numKinds]*hist, kind spanKind) *hist {
	if hs[kind] == nil {
		hs[kind] = new(hist)
	}
	return hs[kind]
}

// child takes an engine call made by the lane's goroutine: inside an
// open op it is queued as the op's child, outside one it is recorded.
func (l *lane) child(kind spanKind, a, b int64) {
	if !l.open {
		l.record(kind, a, b, 0)
		return
	}
	l.pending = append(l.pending, pendingChild{kind, a, b})
	l.childRaw += b - a
	l.nchild++
	if kind == kWait {
		l.childWait += b - a
	}
}

// record files an engine call under the op with id op (0 for none).
func (l *lane) record(kind spanKind, a, b int64, op uint64) {
	if kind == kWait {
		l.tr.countWait(a, b)
	} else {
		l.hist(&l.lat, kind).add(b - a - int64(l.tr.clk()))
	}
	l.buf.add(span{id: l.tr.ids.Add(1), parent: op, op: op, start: a, end: b, kind: kind})
}

// tracedRCU is the benchmark's engine wrapper for the traced run.
type tracedRCU struct {
	prcu.RCU
	tr *tracer
}

// Register binds the new reader to the registering goroutine's lane.
func (w *tracedRCU) Register() (prcu.Reader, error) {
	rd, err := w.RCU.Register()
	if err != nil {
		return nil, err
	}
	return &tracedReader{Reader: rd, l: w.tr.nextLane.Load()}, nil
}

func (w *tracedRCU) WaitForReaders(p prcu.Predicate) {
	a := now()
	w.RCU.WaitForReaders(p)
	w.tr.recordWait(a, now())
}

func (w *tracedRCU) WaitForReadersCtx(ctx context.Context, p prcu.Predicate) error {
	a := now()
	err := w.RCU.WaitForReadersCtx(ctx, p)
	w.tr.recordWait(a, now())
	return err
}

// tracedReader times Enter and Exit while its lane has an op open, that
// is, on the ops the workload samples.
type tracedReader struct {
	prcu.Reader
	l *lane
}

func (r *tracedReader) Enter(v prcu.Value) {
	if r.l == nil || !r.l.open {
		r.Reader.Enter(v)
		return
	}
	a := now()
	r.Reader.Enter(v)
	r.l.child(kEnter, a, now())
}

func (r *tracedReader) Exit(v prcu.Value) {
	if r.l == nil || !r.l.open {
		r.Reader.Exit(v)
		return
	}
	a := now()
	r.Reader.Exit(v)
	r.l.child(kExit, a, now())
}

// Do keeps the engine's guarantee — Exit even if fn panics — on the
// timed Enter/Exit.
func (r *tracedReader) Do(v prcu.Value, fn func()) {
	r.Enter(v)
	defer r.Exit(v)
	fn()
}

// isTraced reports whether r is the benchmark's wrapper.
func isTraced(r prcu.RCU) bool {
	_, ok := r.(*tracedRCU)
	return ok
}

// merged returns one kind's latency and self samples over all lanes.
func (t *tracer) merged(kind spanKind) (lat, self *hist) {
	lat, self = new(hist), new(hist)
	for _, l := range t.lanes {
		lat.merge(l.lat[kind])
		self.merge(l.self[kind])
	}
	return lat, self
}

// waitShare is the share of the given ops' time spent in engine waits.
func (t *tracer) waitShare(kinds ...spanKind) float64 {
	var raw, wait int64
	for _, l := range t.lanes {
		for _, k := range kinds {
			raw += l.opRaw[k]
			wait += l.opWait[k]
		}
	}
	if raw == 0 {
		return 0
	}
	return float64(wait) / float64(raw)
}

// writeSpans writes the run's spans as JSON lines: a header object,
// then one [id, parent, op, name, start_ns, end_ns] array per span.
func (t *tracer) writeSpans(path string, header map[string]any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	bufs := []*spanBuf{&t.root}
	for _, l := range t.lanes {
		bufs = append(bufs, &l.buf)
	}
	var kept, dropped int64
	for _, b := range bufs {
		kept += int64(len(b.spans))
		dropped += b.dropped
	}
	header["spans"], header["dropped_spans"] = kept, dropped
	hb, err := json.Marshal(header)
	if err != nil {
		return err
	}
	w.Write(hb)
	w.WriteByte('\n')
	for _, b := range bufs {
		for _, s := range b.spans {
			fmt.Fprintf(w, "[%d,%d,%d,%q,%d,%d]\n", s.id, s.parent, s.op, kindNames[s.kind], s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
