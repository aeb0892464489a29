package main

import (
	"math/bits"
	"sync/atomic"
)

// hist is a log-linear histogram of non-negative integer samples
// (nanoseconds, counts) with 1/128 relative resolution. It takes samples
// from any goroutine and never grows, so the benchmark's own bookkeeping
// adds a fixed 58 KiB per histogram to the heap the runs measure.
type hist struct {
	b   [histBuckets]atomic.Uint64
	n   atomic.Uint64
	sum atomic.Int64
}

const (
	histSub     = 128
	histBuckets = 58 * histSub
)

func histIndex(v int64) int {
	if v < histSub {
		return int(max(v, 0))
	}
	e := bits.Len64(uint64(v)) - 8 // v>>e in [128, 256)
	return (e+1)*histSub + int(uint64(v)>>e) - histSub
}

// histLow is the smallest value bucket i holds.
func histLow(i int) float64 {
	if i < histSub {
		return float64(i)
	}
	e := i/histSub - 1
	return float64(uint64(i%histSub+histSub) << e)
}

func (h *hist) add(v int64) {
	v = max(v, 0)
	h.b[histIndex(v)].Add(1)
	h.n.Add(1)
	h.sum.Add(v)
}

func (h *hist) count() int { return int(h.n.Load()) }

func (h *hist) mean() float64 {
	n := h.n.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// quantile returns the q-quantile, interpolated linearly within its
// bucket; 0 when empty.
func (h *hist) quantile(q float64) float64 {
	n := h.n.Load()
	if n == 0 {
		return 0
	}
	rank := q * float64(n-1)
	var below float64
	for i := range h.b {
		c := float64(h.b[i].Load())
		if c == 0 || below+c <= rank {
			below += c
			continue
		}
		lo, hi := histLow(i), histLow(i+1)
		return lo + (hi-lo)*(rank-below+0.5)/c
	}
	return histLow(histBuckets - 1)
}

// merge adds o's samples to h.
func (h *hist) merge(o *hist) {
	if o == nil {
		return
	}
	for i := range o.b {
		if c := o.b[i].Load(); c != 0 {
			h.b[i].Add(c)
		}
	}
	h.n.Add(o.n.Load())
	h.sum.Add(o.sum.Load())
}
