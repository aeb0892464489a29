package main

// rng is splitmix64: a small, allocation-free generator whose stream
// depends only on its seed. Every input the benchmark hands the program —
// key sets, insertion orders, read keys, update ops — comes from one of
// these, seeded from the --seed argument and a fixed stream number, so
// the same seed replays the same inputs and nothing else does.
type rng struct{ s uint64 }

// Stream numbers keep the generators of one run independent.
const (
	streamKeys uint64 = iota + 1
	streamReads
	streamUpdates
)

func newRNG(seed, stream uint64) rng {
	return rng{s: mix(seed ^ mix(stream))}
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	return mix(r.s)
}

// intn returns a value in [0, n) for n ≤ 2^32.
func (r *rng) intn(n int) int {
	return int(((r.next() >> 32) * uint64(n)) >> 32)
}

// mix is the splitmix64 finalizer. It also derives each key's expected
// value (valueOf), so a lookup's result can be checked without a table.
func mix(z uint64) uint64 {
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// valueOf is the value every hash-table key is stored with.
func valueOf(k uint64) uint64 { return mix(k) | 1 }

// keySet is one workload's key universe, ordered by role:
// keys[:present] are pinned keys inserted at set-up and never updated,
// keys[present:pinned] are pinned keys that are never inserted, and
// keys[pinned:] are the keys the updater may insert and delete.
type keySet struct {
	keys    []uint64
	present int
	pinned  int
}

// distinctKeys draws n distinct keys below limit from r.
func distinctKeys(r *rng, n int, limit uint64) []uint64 {
	seen := make(map[uint64]struct{}, n)
	out := make([]uint64, 0, n)
	for len(out) < n {
		k := r.next() % limit
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		out = append(out, k)
	}
	return out
}

// permutation returns the integers [0, n) in an order drawn from r.
func permutation(r *rng, n int) []uint64 {
	p := make([]uint64, n)
	for i := range p {
		p[i] = uint64(i)
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// pinEvery makes every pinEvery-th read a pinned key, cycling through
// all of them, so every pinned key is checked early in every run
// whatever the uniform draws are.
const pinEvery = 64

// readGen yields the reader's key indexes into a keySet: uniform over
// all keys, with every pinEvery-th read taken from the pinned cycle.
type readGen struct {
	r      rng
	n      int
	pinned int
	i, j   int
}

func newReadGen(seed uint64, ks *keySet) readGen {
	return readGen{r: newRNG(seed, streamReads), n: len(ks.keys), pinned: ks.pinned}
}

func (g *readGen) next() int {
	g.i++
	if g.i == pinEvery {
		g.i = 0
		idx := g.j
		if g.j++; g.j == g.pinned {
			g.j = 0
		}
		return idx
	}
	return g.r.intn(g.n)
}

// updateGen yields the updater's ops: Insert or Delete, 50/50, on a
// uniform key among the unpinned ones.
type updateGen struct {
	r      rng
	lo, hi int
}

func newUpdateGen(seed uint64, ks *keySet) updateGen {
	return updateGen{r: newRNG(seed, streamUpdates), lo: ks.pinned, hi: len(ks.keys)}
}

// next returns the key index and whether the op is an Insert.
func (g *updateGen) next() (idx int, insert bool) {
	x := g.r.next()
	return g.lo + int(((x>>32)*uint64(g.hi-g.lo))>>32), x&1 == 0
}
