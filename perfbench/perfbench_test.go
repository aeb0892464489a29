package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"prcu"
)

var keySets = map[string]func(uint64) *keySet{
	"tree-mixed":  treeKeySet,
	"hash-expand": expandKeySet,
	"hash-churn":  churnKeySet,
}

// opStream records the first n reads and updates a workload's
// generators produce for seed.
func opStream(name string, seed uint64, n int) []uint64 {
	ks := keySets[name](seed)
	rg, ug := newReadGen(seed, ks), newUpdateGen(seed, ks)
	out := append([]uint64(nil), ks.keys...)
	for i := 0; i < n; i++ {
		idx, insert := ug.next()
		op := uint64(idx) << 1
		if insert {
			op |= 1
		}
		out = append(out, ks.keys[rg.next()], op)
	}
	return out
}

func TestSeededStreams(t *testing.T) {
	for name := range workloads {
		a, b, c := opStream(name, 7, 10000), opStream(name, 7, 10000), opStream(name, 8, 10000)
		same, differ := len(a) == len(b), false
		for i := range a {
			same = same && a[i] == b[i]
			differ = differ || (i < len(c) && a[i] != c[i])
		}
		if !same {
			t.Errorf("%s: seed 7 gave two different op streams", name)
		}
		if !differ {
			t.Errorf("%s: seeds 7 and 8 gave the same op stream", name)
		}
	}
}

func shortRun(t *testing.T, name string, tr *tracer, wrap func(lookupFn) lookupFn) *runResult {
	t.Helper()
	cfg := &runConfig{
		seed: 3, window: 300 * time.Millisecond, warmup: 100 * time.Millisecond,
		setups: 1, tr: tr, wrapLookup: wrap,
	}
	res, err := workloads[name].run(cfg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return res
}

// TestPlantedDefect hides one pinned key from the reader and checks that
// every workload reports the wrong reads, and that the same run without
// the defect reports none.
func TestPlantedDefect(t *testing.T) {
	for name := range workloads {
		clean := shortRun(t, name, nil, nil)
		if clean.failed != 0 || len(clean.problems) != 0 {
			t.Errorf("%s: clean run failed %d of %d ops, problems %v", name, clean.failed, clean.attempted, clean.problems)
		}
		hidden := keySets[name](3).keys[0]
		hide := func(f lookupFn) lookupFn {
			return func(k uint64) (uint64, bool) {
				if k == hidden {
					return 0, false
				}
				return f(k)
			}
		}
		res := shortRun(t, name, nil, hide)
		if res.failed == 0 {
			t.Errorf("%s: hiding pinned key %d went unreported", name, hidden)
		}
	}
}

// TestTracedCountsMatch runs every workload on the tracing wrapper: the
// runs' own checks compare the wrapper's wait counts with the program's
// counters and require the wrapper in the traced run and the bare engine
// in the end-to-end run.
func TestTracedCountsMatch(t *testing.T) {
	if isTraced(prcu.NewURCU(prcu.Options{})) || !isTraced(newTracer(0).wrap(prcu.NewURCU(prcu.Options{}))) {
		t.Fatal("isTraced does not tell the wrapper from a bare engine")
	}
	for name := range workloads {
		tr := newTracer(clockReadNs())
		res := shortRun(t, name, tr, nil)
		if res.failed != 0 || len(res.problems) != 0 {
			t.Errorf("%s traced: failed %d, problems %v", name, res.failed, res.problems)
		}
		if tr.waits.Load() == 0 {
			t.Errorf("%s traced: the wrapper saw no waits", name)
		}
	}
}

// TestResultMatchesBenchmarkJSON runs the command's entry point on every
// workload in both modes and checks that the JSON result holds exactly
// the metrics BENCHMARK.json declares for the mode, with their units,
// and that none of them is zero.
func TestResultMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ Name, Unit string }
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []decl `json:"end_to_end"`
		PerLayer  []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	if len(bench.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the program has %d", len(bench.Workloads), len(workloads))
	}
	for _, w := range bench.Workloads {
		for trace, want := range [][]decl{bench.EndToEnd, bench.PerLayer} {
			var out, errOut bytes.Buffer
			args := []string{"--workload", w.Name, "--seed", "5", "--seconds", "1",
				"--trace", strconv.Itoa(trace), "--span-dir", t.TempDir()}
			if code := run(args, &out, &errOut); code != 0 {
				t.Fatalf("%s trace %d: exit %d: %s", w.Name, trace, code, errOut.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res jsonResult
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace %d: last line is not a result: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %d: correct=%v failed=%d attempted=%d", w.Name, trace, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace %d: %d metrics, BENCHMARK.json declares %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := res.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s trace %d: %s missing", w.Name, trace, d.Name)
				case m.Unit != d.Unit:
					t.Errorf("%s trace %d: %s unit %q, want %q", w.Name, trace, d.Name, m.Unit, d.Unit)
				case m.Value == 0:
					t.Errorf("%s trace %d: %s is 0", w.Name, trace, d.Name)
				}
			}
		}
	}
}
