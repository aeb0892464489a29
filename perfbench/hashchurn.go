package main

import (
	"sync/atomic"
	"time"

	"prcu"
	"prcu/hashtable"
)

// hash-churn: kvstore-style. A hashtable.Map on URCU recycles deleted
// nodes through a default Reclaimer. One closed-loop reader calls Get;
// the updater is an open loop at churnRate, Insert/Delete 50/50 on the
// churn keys, sleeping between due times, and every probeEvery-th
// update also issues a Reclaimer.Defer probe that stamps its
// retire→free age. The table stays L2-resident, as hash-expand's does.
const (
	churnPinned  = 1 << 12
	churnAbsent  = 1 << 8
	churnKeys    = 1 << 12
	churnBuckets = 1 << 12
	churnRate    = 100_000 // updates per second
	probeEvery   = 64
)

func churnKeySet(seed uint64) *keySet {
	r := newRNG(seed, streamKeys)
	keys := distinctKeys(&r, churnPinned+churnAbsent+churnKeys, 1<<40)
	return &keySet{keys: keys, present: churnPinned, pinned: churnPinned + churnAbsent}
}

type churnState struct {
	rec *prcu.Reclaimer
	m   *hashtable.Map[uint64, uint64]
	model
}

func buildChurn(ks *keySet, tr *tracer) *churnState {
	var eng prcu.RCU = prcu.NewURCU(prcu.Options{})
	if tr != nil {
		eng = tr.wrap(eng)
	}
	rec := prcu.NewReclaimer(eng, prcu.ReclaimConfig{})
	m := hashtable.New[uint64, uint64](eng, churnBuckets)
	m.SetReclaimer(rec)
	st := &churnState{rec: rec, m: m, model: newModel(len(ks.keys))}
	for idx := 0; idx < ks.present; idx++ {
		m.Insert(ks.keys[idx], valueOf(ks.keys[idx]))
		st.add(idx)
	}
	// Half the churn keys start present: every other one in the
	// seeded key order.
	for idx := ks.pinned; idx < len(ks.keys); idx += 2 {
		m.Insert(ks.keys[idx], valueOf(ks.keys[idx]))
		st.add(idx)
	}
	return st
}

// A probe's slot counts its callback's runs, which must be exactly one,
// in the low 16 bits, and the runs that got a non-nil error above them.
const probeErr = 1 << 16

func runHashChurn(cfg *runConfig) (*runResult, error) {
	res := &runResult{}
	ks := churnKeySet(cfg.seed)
	var readLane, updLane *lane
	if cfg.tr != nil {
		readLane, updLane = cfg.tr.newLane(), cfg.tr.newLane()
	}
	st, err := timeSetup(cfg, res, func() (*churnState, error) { return buildChurn(ks, cfg.tr), nil },
		func(s *churnState) { s.rec.Close() })
	if err != nil {
		return nil, err
	}
	defer st.rec.Close()
	if isTraced(st.m.Engine()) != (cfg.tr != nil) || isTraced(st.rec.Engine()) != (cfg.tr != nil) {
		res.problem("map/reclaimer engines traced=%v/%v in a run with trace=%v",
			isTraced(st.m.Engine()), isTraced(st.rec.Engine()), cfg.tr != nil)
	}
	graces0, inline0, bp0, recycled0 := st.rec.Graces(), st.rec.InlineWaits(), st.rec.BackpressureWaits(), st.m.Recycled()
	var waits0 int64
	if cfg.tr != nil {
		cfg.tr.nextLane.Store(readLane)
		waits0 = cfg.tr.waits.Load()
	}
	rh, err := st.m.NewHandle()
	if err != nil {
		return nil, err
	}
	var lookup lookupFn = rh.Get
	if cfg.wrapLookup != nil {
		lookup = cfg.wrapLookup(lookup)
	}

	// Probe slots are preallocated so callbacks on the reclaimer's
	// goroutines write only their own slot. At 4 bytes each they add
	// little to the heap the run measures.
	maxProbes := int((cfg.warmup+cfg.window+2*time.Second).Seconds()*churnRate)/probeEvery + 1
	probes := make([]atomic.Uint32, maxProbes)
	var nprobes int
	var pendingPeak int
	var oldestAge hist
	tick := func() {
		if cfg.tr == nil {
			return
		}
		if p := st.rec.Pending(); p > pendingPeak {
			pendingPeak = p
		}
		oldestAge.add(st.rec.OldestAge().Nanoseconds())
	}

	h := &harness{}
	var (
		updates, updFailed  int64
		fromDue, late, ages hist
	)
	reader := func() {
		readLoop(cfg, h, ks, checkIfPresent, true, func() lookupFn { return lookup }, nil, readLane, kGet, res)
	}
	updater := func() {
		g := newUpdateGen(cfg.seed, ks)
		m := newMeter(h)
		res.updates = m
		interval := int64(time.Second) / churnRate
		start := now()
		t := start
		for i := int64(0); ; i++ {
			if i%tickEvery == 0 && i > 0 && m.tick(tickEvery) {
				break
			}
			due := start + i*interval
			// Sleep, never spin: the reclaimer's flush goroutines need
			// the processor time between due times.
			for t < due {
				time.Sleep(time.Duration(due - t))
				t = now()
			}
			idx, insert := g.next()
			k := ks.keys[idx]
			kind := kDelete
			if insert {
				kind = kInsert
			}
			if updLane != nil {
				updLane.begin()
			}
			t0 := t
			var got bool
			if insert {
				got = st.m.Insert(k, valueOf(k))
			} else {
				got = st.m.Delete(k)
			}
			t = now()
			if updLane != nil {
				updLane.end(kind, t0, t)
			}
			if m.measuring {
				res.updNs.add(t - t0)
				fromDue.add(t - due)
				late.add(t0 - due)
			}
			if !st.apply(idx, insert, got) {
				updFailed++
			}
			if i%probeEvery == probeEvery-1 && nprobes < len(probes) {
				slot := &probes[nprobes]
				nprobes++
				issued, inWindow := now(), m.measuring
				st.rec.Defer(prcu.All(), 0, func(err error) {
					end := now()
					d := uint32(1)
					if err != nil {
						d += probeErr
					}
					if slot.Add(d)%probeErr != 1 {
						return
					}
					if inWindow {
						ages.add(end - issued)
					}
					if cfg.tr != nil {
						cfg.tr.recordRoot(kProbe, issued, end)
					}
				})
			}
			updates++
		}
	}
	runLoad(cfg, h, res, tick, reader, updater)
	rh.Close()
	st.rec.Barrier()
	res.attempted += updates + int64(nprobes)
	res.failed += updFailed

	for i := range probes[:nprobes] {
		v := probes[i].Load()
		if runs := v % probeErr; runs != 1 {
			res.problem("Defer probe %d ran %d times, want exactly once", i, runs)
		}
		if v >= probeErr {
			res.problem("Defer probe %d got a non-nil error", i)
		}
	}
	if d := st.rec.Dropped(); d != 0 {
		res.problem("reclaimer dropped %d callbacks", d)
	}
	if err := st.m.Validate(); err != nil {
		res.problem("hashtable Validate: %v", err)
	}
	if got := st.m.Size(); got != st.size {
		res.problem("hashtable Size() = %d, model of the updater's successful ops says %d", got, st.size)
	}
	graces := st.rec.Graces() - graces0
	inline := st.rec.InlineWaits() - inline0
	recycled := st.m.Recycled() - recycled0
	deletes := st.deletes
	if recycled != uint64(deletes) {
		res.problem("hashtable recycled %d nodes after Barrier, want one per delete (%d)", recycled, deletes)
	}
	res.extra = append(res.extra,
		metric{"update_from_due_p50_ns", fromDue.quantile(0.50), "ns", fromDue.count()},
		metric{"update_from_due_p99_ns", fromDue.quantile(0.99), "ns", fromDue.count()},
		metric{"reclaim_age_p50_ms", ages.quantile(0.50) / 1e6, "ms", ages.count()},
		metric{"reclaim_age_p99_ms", ages.quantile(0.99) / 1e6, "ms", ages.count()},
		metric{"loadgen_late_p99_us", late.quantile(0.99) / 1e3, "us", late.count()},
	)
	res.updatesTotal = updates
	res.probeAgeMean = ages.mean()
	res.layer = map[string]float64{
		"hashtable.recycled_per_delete": float64(recycled) / float64(max(deletes, 1)),
		"reclaim.graces_per_kretire":    1000 * float64(graces) / float64(max(deletes+int64(nprobes), 1)),
		"reclaim.pending_peak":          float64(pendingPeak),
		"reclaim.backpressure_waits":    float64(st.rec.BackpressureWaits() - bp0),
		"reclaim.inline_waits":          float64(inline),
		"reclaim.age_p50_ms":            ages.quantile(0.50) / 1e6,
		"reclaim.age_p99_ms":            ages.quantile(0.99) / 1e6,
		"loadgen.late_p99_us":           late.quantile(0.99) / 1e3,
	}
	if cfg.tr != nil {
		res.layer["reclaim.oldest_age_p99_ms"] = oldestAge.quantile(0.99) / 1e6
		if w := cfg.tr.waits.Load() - waits0; uint64(w) != graces+inline {
			res.problem("traced wait count %d != reclaimer Graces+InlineWaits delta %d", w, graces+inline)
		}
	}
	return res, nil
}
