package main

import (
	"prcu"
	"prcu/citrus"
)

// tree-mixed: the paper's Fig 5(c). CITRUS on DEER-PRCU, key space
// 2·10^5 prefilled to half, one closed-loop reader calling Contains and
// one closed-loop updater splitting Insert/Delete 50/50.
const (
	treeKeys   = 200_000
	treePinned = 1024 // pinned present keys; as many pinned absent
)

func treeKeySet(seed uint64) *keySet {
	r := newRNG(seed, streamKeys)
	return &keySet{keys: permutation(&r, treeKeys), present: treePinned, pinned: 2 * treePinned}
}

type treeState struct {
	tree *citrus.Tree
	upd  *citrus.Handle
	model
}

func buildTree(ks *keySet, tr *tracer, updLane *lane) (*treeState, error) {
	var eng prcu.RCU = prcu.NewDEER(prcu.Options{})
	if tr != nil {
		eng = tr.wrap(eng)
		tr.nextLane.Store(updLane)
	}
	t := citrus.New(eng, citrus.DefaultDomain(prcu.FlavorDEER))
	h, err := t.NewHandle()
	if err != nil {
		return nil, err
	}
	st := &treeState{tree: t, upd: h, model: newModel(len(ks.keys))}
	// Pinned present keys, then unpinned keys up to half the space, in
	// the seeded permutation's order: a random insertion order gives the
	// unbalanced tree a random shape.
	fill := func(idx int) {
		h.Insert(ks.keys[idx], ks.keys[idx])
		st.add(idx)
	}
	for idx := 0; idx < ks.present; idx++ {
		fill(idx)
	}
	for idx := ks.pinned; st.size < treeKeys/2; idx++ {
		fill(idx)
	}
	return st, nil
}

func runTreeMixed(cfg *runConfig) (*runResult, error) {
	res := &runResult{}
	ks := treeKeySet(cfg.seed)
	var readLane, updLane *lane
	if cfg.tr != nil {
		readLane, updLane = cfg.tr.newLane(), cfg.tr.newLane()
	}
	st, err := timeSetup(cfg, res, func() (*treeState, error) { return buildTree(ks, cfg.tr, updLane) },
		func(s *treeState) { s.upd.Close() })
	if err != nil {
		return nil, err
	}
	if isTraced(st.tree.Engine()) != (cfg.tr != nil) {
		res.problem("tree engine traced=%v in a run with trace=%v", isTraced(st.tree.Engine()), cfg.tr != nil)
	}
	if cfg.tr != nil {
		cfg.tr.nextLane.Store(readLane)
		cfg.tr.waitOwner.Store(updLane)
	}
	rh, err := st.tree.NewHandle()
	if err != nil {
		return nil, err
	}
	var lookup lookupFn = func(k uint64) (uint64, bool) { return 0, rh.Contains(k) }
	if cfg.wrapLookup != nil {
		lookup = cfg.wrapLookup(lookup)
	}
	h := &harness{}
	var updFailed, updates int64
	reader := func() {
		readLoop(cfg, h, ks, checkNone, false, func() lookupFn { return lookup }, nil, readLane, kContains, res)
	}
	updater := func() {
		g := newUpdateGen(cfg.seed, ks)
		m := newMeter(h)
		res.updates = m
		var n int64
		for {
			if n%tickEvery == 0 && n > 0 && m.tick(tickEvery) {
				break
			}
			idx, insert := g.next()
			k := ks.keys[idx]
			sampled := m.measuring && n%updSample == 0
			kind := kTreeDelete
			if insert {
				kind = kTreeInsert
			}
			if sampled && updLane != nil {
				updLane.begin()
			}
			t0 := now()
			var got bool
			if insert {
				got = st.upd.Insert(k, k)
			} else {
				got = st.upd.Delete(k)
			}
			t1 := now()
			if sampled {
				if updLane != nil {
					updLane.end(kind, t0, t1)
				}
				res.updNs.add(t1 - t0)
			}
			if !st.apply(idx, insert, got) {
				updFailed++
			}
			n++
		}
		updates = n
	}
	runLoad(cfg, h, res, nil, reader, updater)
	rh.Close()
	st.upd.Close()
	res.attempted += updates
	res.updatesTotal = updates
	res.failed += updFailed
	if err := st.tree.Validate(); err != nil {
		res.problem("citrus Validate: %v", err)
	}
	if got := st.tree.Size(); got != st.size {
		res.problem("citrus Size() = %d, model of the updater's successful ops says %d", got, st.size)
	}
	if cfg.tr != nil {
		cfg.tr.waitOwner.Store(nil)
	}
	return res, nil
}
