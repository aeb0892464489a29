package main

import (
	"fmt"
	"sync/atomic"

	"prcu"
	"prcu/hashtable"
)

// hash-expand: the paper's Fig 9. A modulo-placed hash table on D-PRCU
// is built overloaded (2^12 keys in 2^8 buckets) and expanded to load
// factor 4, cycle after cycle, while one closed-loop reader calls Get.
// The updater-side op is one expansion cycle: the Expand calls that take
// a fresh table from load factor 16 to 4.
//
// The table is small enough to stay in one core's L2 cache. Working sets
// that live in the shared L3 read 2x faster or slower from one half
// second to the next on a shared host, as other tenants evict them; an
// L2-resident table measures the engine and the table, not the
// neighbours. It also gives hundreds of cycles a second, enough for a
// steady p90.
const (
	expandKeys    = 1 << 12
	expandBuckets = 1 << 8
	expandAbsent  = 1 << 8
	expandTarget  = 4
)

func expandKeySet(seed uint64) *keySet {
	r := newRNG(seed, streamKeys)
	keys := distinctKeys(&r, expandKeys+expandAbsent, 1<<40)
	// Every key is pinned: no key is ever deleted, so every read checks.
	return &keySet{keys: keys, present: expandKeys, pinned: len(keys)}
}

// buildExpandMap builds one overloaded table. insLane, when set, times a
// sample of the inserts.
func buildExpandMap(eng prcu.RCU, ks *keySet, insLane *lane) *hashtable.Map[uint64, uint64] {
	m := hashtable.NewModulo(eng, expandBuckets)
	for i, k := range ks.keys[:ks.present] {
		if insLane != nil && i%tickEvery == 0 {
			insLane.begin()
			t0 := now()
			m.Insert(k, valueOf(k))
			insLane.end(kInsert, t0, now())
			continue
		}
		m.Insert(k, valueOf(k))
	}
	return m
}

type expandState struct {
	eng prcu.RCU
	m   *hashtable.Map[uint64, uint64]
}

func runHashExpand(cfg *runConfig) (*runResult, error) {
	res := &runResult{}
	ks := expandKeySet(cfg.seed)
	var readLane, expLane *lane
	if cfg.tr != nil {
		readLane, expLane = cfg.tr.newLane(), cfg.tr.newLane()
	}
	st, err := timeSetup(cfg, res, func() (*expandState, error) {
		var eng prcu.RCU = prcu.NewD(prcu.Options{})
		if cfg.tr != nil {
			eng = cfg.tr.wrap(eng)
		}
		return &expandState{eng: eng, m: buildExpandMap(eng, ks, nil)}, nil
	}, func(*expandState) {})
	if err != nil {
		return nil, err
	}
	if isTraced(st.m.Engine()) != (cfg.tr != nil) {
		res.problem("table engine traced=%v in a run with trace=%v", isTraced(st.m.Engine()), cfg.tr != nil)
	}
	if cfg.tr != nil {
		cfg.tr.waitOwner.Store(expLane)
	}

	// cur is the table the reader should be on; the expander publishes
	// each fresh table before expanding it.
	var cur atomic.Pointer[hashtable.Map[uint64, uint64]]
	cur.Store(st.m)
	h := &harness{}
	var (
		cycles, expands, programWaits int64
		last                          *hashtable.Map[uint64, uint64]
		updProblems                   []string
	)
	reader := func() {
		var on *hashtable.Map[uint64, uint64]
		var hd *hashtable.Handle[uint64, uint64]
		get := func() lookupFn {
			if hd != nil {
				hd.Close()
			}
			on = cur.Load()
			if cfg.tr != nil {
				cfg.tr.nextLane.Store(readLane)
			}
			var err error
			if hd, err = on.NewHandle(); err != nil {
				panic(err) // uncapped engines never refuse a Register
			}
			var f lookupFn = hd.Get
			if cfg.wrapLookup != nil {
				f = cfg.wrapLookup(f)
			}
			return f
		}
		readLoop(cfg, h, ks, checkNone, true, get, func() bool { return cur.Load() != on }, readLane, kGet, res)
		hd.Close()
	}
	updater := func() {
		m := newMeter(h)
		res.updates = m
		tbl := st.m
		for {
			if cycles > 0 {
				if m.tick(1) {
					break
				}
				tbl = buildExpandMap(st.eng, ks, expLane)
				cur.Store(tbl)
			}
			t0 := now()
			for tbl.LoadFactor() > expandTarget {
				if expLane != nil {
					expLane.begin()
					a := now()
					tbl.Expand()
					expLane.end(kExpand, a, now())
				} else {
					tbl.Expand()
				}
				expands++
			}
			t1 := now()
			if m.measuring {
				res.updNs.add(t1 - t0)
			}
			programWaits += tbl.ExpansionWaits()
			cycles++
			if tbl.Size() != expandKeys || tbl.Buckets() != expandBuckets<<2 {
				updProblems = append(updProblems, fmt.Sprintf("expanded table has %d keys in %d buckets, want %d in %d",
					tbl.Size(), tbl.Buckets(), expandKeys, expandBuckets<<2))
			}
			last = tbl
		}
	}
	runLoad(cfg, h, res, nil, reader, updater)
	res.attempted += cycles
	cyc := &res.updNs
	res.extra = append(res.extra,
		metric{"expand_p50_ms", cyc.quantile(0.50) / 1e6, "ms", cyc.count()},
		metric{"expand_p90_ms", cyc.quantile(0.90) / 1e6, "ms", cyc.count()},
	)
	res.updatesTotal, res.expands = cycles, expands
	for _, p := range updProblems {
		res.problem("%s", p)
	}
	if err := last.Validate(); err != nil {
		res.problem("hashtable Validate: %v", err)
	}
	if cfg.tr != nil {
		cfg.tr.waitOwner.Store(nil)
		if w := cfg.tr.waits.Load(); w != programWaits {
			res.problem("traced wait count %d != hashtable ExpansionWaits total %d", w, programWaits)
		}
	}
	return res, nil
}
