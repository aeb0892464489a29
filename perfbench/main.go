// Command perfbench is the repository's benchmark. One run measures one
// workload for a fixed window and prints its metrics by name and unit,
// then, as the last line, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured on the
// bare engine. With --trace 1 the same workload runs twice, untraced and
// then on the benchmark's tracing wrapper, each for half the window, and
// the metrics are the per-layer ones; the traced run's spans are written
// under --span-dir.
//
//	go run . --workload tree-mixed --seed 1 --seconds 20 --trace 0
//
// README.md gives the workloads, the metrics and what each should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

type metric struct {
	name  string
	value float64
	unit  string
	n     int // sample count of a percentile, 0 otherwise
}

// layerMetric is a per-layer metric. json marks one that every workload
// reports, in the JSON result; bypassed marks one whose layer the
// workload does not run.
type layerMetric struct {
	metric
	json, bypassed bool
}

type workloadDef struct {
	flavor string
	run    func(*runConfig) (*runResult, error)
	// waitKinds are the ops whose engine waits core.wait_share divides.
	waitKinds []spanKind
	// readKind and insertKind are the structure's read and insert ops,
	// which the ds.* per-layer metrics report.
	readKind, insertKind spanKind
}

var workloads = map[string]workloadDef{
	"tree-mixed":  {"DEER-PRCU", runTreeMixed, []spanKind{kTreeInsert, kTreeDelete}, kContains, kTreeInsert},
	"hash-expand": {"D-PRCU", runHashExpand, []spanKind{kExpand}, kGet, kInsert},
	"hash-churn":  {"URCU", runHashChurn, nil, kGet, kInsert},
}

const (
	warmup = time.Second
	setups = 9
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "tree-mixed, hash-expand or hash-churn")
	seed := fs.Uint64("seed", 1, "seed of every generated input")
	seconds := fs.Int("seconds", 20, "length of the measured window")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	spanDir := fs.String("span-dir", filepath.Join(".bench_build", "perfbench"), "directory for the traced run's spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload tree-mixed|hash-expand|hash-churn, --seconds >= 1, --trace 0|1\n")
		return 2
	}

	clk := clockReadNs()
	fmt.Fprintf(stdout, "host nproc=%d gomaxprocs=%d go=%s host.clock_read_ns=%.2f\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), clk)
	fmt.Fprintf(stdout, "workload %s engine %s seed %d seconds %d trace %d\n", *name, w.flavor, *seed, *seconds, *trace)
	cfg := &runConfig{seed: *seed, window: time.Duration(*seconds) * time.Second, warmup: warmup, setups: setups}

	var (
		out     []metric
		results []*runResult
	)
	if *trace == 0 {
		res, err := w.run(cfg)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
			return 1
		}
		results = append(results, res)
		all := endToEnd(res)
		printMetrics(stdout, all)
		out = all[:len(e2eNames)]
	} else {
		// The untraced and the traced run share the window, so a traced
		// run takes as long as an end-to-end one.
		cfg.setups = 1
		cfg.window /= 2
		base, err := w.run(cfg)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
			return 1
		}
		tr := newTracer(clk)
		tcfg := *cfg
		tcfg.tr = tr
		traced, err := w.run(&tcfg)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s traced: %v\n", *name, err)
			return 1
		}
		results = append(results, base, traced)
		for _, m := range perLayer(w, base, traced, tr, clk) {
			if m.bypassed {
				fmt.Fprintf(stdout, "%-34s %16s %-6s\n", m.name, "bypassed", m.unit)
			} else {
				printMetrics(stdout, []metric{m.metric})
			}
			if m.json && m.bypassed {
				traced.problem("per-layer metric %s measured nothing", m.name)
			}
			if m.json {
				out = append(out, m.metric)
			}
		}
		fmt.Fprintf(stdout, "tracing overhead: read_ops_per_cpu_s %.0f untraced, %.0f traced\n", base.reads.cpuRate(), traced.reads.cpuRate())
		path := filepath.Join(*spanDir, *name+".spans.jsonl")
		header := map[string]any{
			"workload": *name, "engine": w.flavor, "seed": *seed, "seconds": *seconds,
			"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
			"clock_read_ns": clk,
		}
		if err := tr.writeSpans(path, header); err != nil {
			fmt.Fprintf(stderr, "perfbench: writing spans: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans written to %s\n", path)
	}

	correct := true
	var attempted, failed int64
	for _, r := range results {
		attempted += r.attempted
		failed += r.failed
		for _, p := range r.problems {
			correct = false
			fmt.Fprintf(stdout, "CHECK FAILED: %s\n", p)
		}
	}
	if failed > 0 {
		correct = false
	}
	errRate := float64(failed) / float64(max(attempted, 1))
	fmt.Fprintf(stdout, "%-34s %16.6g %-6s failed=%d attempted=%d\n", "error_rate", errRate, "ratio", failed, attempted)
	return emitJSON(stdout, correct, attempted, failed, out)
}

// e2eNames are the end-to-end metrics every workload reports, in order.
var e2eNames = []string{
	"read_ops_per_cpu_s", "read_p50_ns", "read_p90_ns",
	"update_ops_per_cpu_s", "update_p50_ns",
	"heap_retained_mib", "setup_s",
}

// endToEnd returns the end-to-end metrics (e2eNames first, then the
// workload's own). Sampled call timings have the cost of a clock read,
// measured in the same window, removed. A fixed calibration taken before
// the run would double the relative noise of a 70 ns read whenever the
// host's speed drifts during it.
func endToEnd(r *runResult) []metric {
	rd, up := &r.readNs, &r.updNs
	clk := r.timerNs.quantile(0.5)
	ms := []metric{
		{"read_ops_per_cpu_s", r.reads.cpuRate(), "1/s", len(r.reads.cpuRates)},
		{"read_p50_ns", max(rd.quantile(0.50)-clk, 0), "ns", rd.count()},
		{"read_p90_ns", max(rd.quantile(0.90)-clk, 0), "ns", rd.count()},
		{"update_ops_per_cpu_s", r.updates.cpuRate(), "1/s", len(r.updates.cpuRates)},
		{"update_p50_ns", max(up.quantile(0.50)-clk, 0), "ns", up.count()},
		{"heap_retained_mib", r.heapRetained / (1 << 20), "MiB", 0},
		{"setup_s", median(r.setupS), "s", len(r.setupS)},
		// Printed, not gated. The hypervisor's steal stretches a
		// millisecond expansion cycle far more often than a microsecond
		// op, so update_p90_ns spread 0.44 over ten hash-expand seeds
		// while steal took 15-20 % of the CPU. The live heap under load
		// includes everything allocated while a GC cycle marks, so it
		// grows with mark time: on hash-expand, which allocates a table
		// per cycle, its peak spread 0.37 and its median 0.71.
		{"update_p90_ns", max(up.quantile(0.90)-clk, 0), "ns", up.count()},
		{"heap_live_mib", r.heapLive / (1 << 20), "MiB", 0},
		{"heap_peak_mib", r.heapPeak / (1 << 20), "MiB", 0},
		{"read_ops_per_s", r.reads.rate(), "1/s", len(r.reads.rates)},
		{"update_ops_per_s", r.updates.rate(), "1/s", len(r.updates.rates)},
		// A read's p99 moved by up to a quarter between runs as other
		// tenants came and went, and expansion cycles are too few for a
		// steady p99.
		{"read_p99_ns", max(rd.quantile(0.99)-clk, 0), "ns", rd.count()},
		{"update_p99_ns", max(up.quantile(0.99)-clk, 0), "ns", up.count()},
		{"clock_read_in_window_ns", clk, "ns", r.timerNs.count()},
	}
	return append(ms, r.extra...)
}

// layerUnits lists the per-layer metrics in order with their units.
// Those marked json apply to every workload and make up the JSON result
// of a traced run; the others are printed only, as "bypassed" on the
// workloads whose layers they measure do not run.
var layerUnits = []struct {
	name, unit string
	json       bool
}{
	{"host.clock_read_ns", "ns", true},
	{"tsc.read_ns", "ns", true},
	{"core.enter_ns", "ns", true},
	{"core.exit_ns", "ns", true},
	{"core.wait_p50_ns", "ns", true},
	{"core.wait_p99_ns", "ns", true},
	{"core.wait_share", "ratio", true},
	{"core.waits_per_kupdate", "count", true},
	{"ds.read_self_p50_ns", "ns", true},
	{"ds.read_self_p99_ns", "ns", true},
	{"ds.insert_p50_ns", "ns", true},
	{"runtime.alloc_bytes_per_op", "B/op", true},
	{"trace.overhead_pct", "%", true},
	{"core.waits_per_expand", "count", false},
	{"citrus.contains_self_p50_ns", "ns", false},
	{"citrus.contains_self_p99_ns", "ns", false},
	{"citrus.insert_p50_ns", "ns", false},
	{"citrus.delete_self_p50_ns", "ns", false},
	{"citrus.delete_self_p99_ns", "ns", false},
	{"hashtable.get_self_p50_ns", "ns", false},
	{"hashtable.get_self_p99_ns", "ns", false},
	{"hashtable.insert_p50_ns", "ns", false},
	{"hashtable.delete_p50_ns", "ns", false},
	{"hashtable.delete_p99_ns", "ns", false},
	{"hashtable.expand_self_ms", "ms", false},
	{"hashtable.recycled_per_delete", "ratio", false},
	{"reclaim.graces_per_kretire", "count", false},
	{"reclaim.pending_peak", "count", false},
	{"reclaim.oldest_age_p99_ms", "ms", false},
	{"reclaim.backpressure_waits", "count", false},
	{"reclaim.inline_waits", "count", false},
	{"reclaim.age_p50_ms", "ms", false},
	{"reclaim.age_p99_ms", "ms", false},
	{"loadgen.late_p99_us", "us", false},
}

// perLayer derives the per-layer metrics. A metric of a layer the
// workload does not run is marked bypassed. Allocation per op and the
// read throughput the overhead compares against come from the untraced
// run.
func perLayer(w workloadDef, base, traced *runResult, tr *tracer, clk float64) []layerMetric {
	v := map[string]metric{}
	set := func(name string, value float64, n int) { v[name] = metric{name: name, value: value, n: n} }
	q := func(name string, h *hist, p, scale float64) {
		if n := h.count(); n > 0 {
			set(name, h.quantile(p)/scale, n)
		}
	}
	set("host.clock_read_ns", clk, 0)
	set("tsc.read_ns", tscReadNs(), 0)
	enter, _ := tr.merged(kEnter)
	exit, _ := tr.merged(kExit)
	q("core.enter_ns", enter, 0.5, 1)
	q("core.exit_ns", exit, 0.5, 1)
	waits := tr.waits.Load()
	q("core.wait_p50_ns", &tr.waitH, 0.50, 1)
	q("core.wait_p99_ns", &tr.waitH, 0.99, 1)
	if w.waitKinds != nil {
		set("core.wait_share", tr.waitShare(w.waitKinds...), 0)
	} else if traced.probeAgeMean > 0 && waits > 0 {
		// Reclaimer waits have no parent op the benchmark can see; the
		// share is that of one grace period in a probe's retire→free age.
		set("core.wait_share", float64(tr.waitNs.Load())/float64(waits)/traced.probeAgeMean, 0)
	}
	if traced.updatesTotal > 0 {
		set("core.waits_per_kupdate", 1000*float64(waits)/float64(traced.updatesTotal), 0)
	}
	if traced.expands > 0 {
		set("core.waits_per_expand", float64(waits)/float64(traced.expands), 0)
	}
	_, cself := tr.merged(kContains)
	q("citrus.contains_self_p50_ns", cself, 0.5, 1)
	q("citrus.contains_self_p99_ns", cself, 0.99, 1)
	tins, _ := tr.merged(kTreeInsert)
	q("citrus.insert_p50_ns", tins, 0.5, 1)
	_, dself := tr.merged(kTreeDelete)
	q("citrus.delete_self_p50_ns", dself, 0.5, 1)
	q("citrus.delete_self_p99_ns", dself, 0.99, 1)
	_, gself := tr.merged(kGet)
	q("hashtable.get_self_p50_ns", gself, 0.5, 1)
	q("hashtable.get_self_p99_ns", gself, 0.99, 1)
	hins, _ := tr.merged(kInsert)
	q("hashtable.insert_p50_ns", hins, 0.5, 1)
	hdel, _ := tr.merged(kDelete)
	q("hashtable.delete_p50_ns", hdel, 0.5, 1)
	q("hashtable.delete_p99_ns", hdel, 0.99, 1)
	_, rself := tr.merged(w.readKind)
	q("ds.read_self_p50_ns", rself, 0.5, 1)
	q("ds.read_self_p99_ns", rself, 0.99, 1)
	ins, _ := tr.merged(w.insertKind)
	q("ds.insert_p50_ns", ins, 0.5, 1)
	_, eself := tr.merged(kExpand)
	q("hashtable.expand_self_ms", eself, 0.5, 1e6)
	for name, val := range traced.layer {
		set(name, val, 0)
	}
	if ops := base.reads.measured + base.updates.measured; ops > 0 {
		set("runtime.alloc_bytes_per_op", float64(base.allocBytes)/float64(ops), 0)
	}
	if b := base.reads.cpuRate(); b > 0 {
		set("trace.overhead_pct", 100*(1-traced.reads.cpuRate()/b), 0)
	}
	out := make([]layerMetric, len(layerUnits))
	for i, lu := range layerUnits {
		m, ok := v[lu.name]
		m.name, m.unit = lu.name, lu.unit
		out[i] = layerMetric{m, lu.json, !ok}
	}
	return out
}

func printMetrics(w io.Writer, ms []metric) {
	for _, m := range ms {
		fmt.Fprintf(w, "%-34s %16.6g %-6s", m.name, m.value, m.unit)
		if m.n > 0 {
			fmt.Fprintf(w, " n=%d", m.n)
		}
		fmt.Fprintln(w)
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func emitJSON(w io.Writer, correct bool, attempted, failed int64, ms []metric) int {
	r := jsonResult{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]jsonMetric{}}
	for _, m := range ms {
		r.Metrics[m.name] = jsonMetric{m.value, m.unit}
	}
	b, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(w, "%s\n", b)
	return 0
}
