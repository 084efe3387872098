package main

import "math/bits"

// hist is a fixed-bucket log-linear latency histogram over nanoseconds.
// Values below 2^subBits land in exact buckets; above that every power
// of two is split into 2^subBits equal buckets, so a bucket is never
// wider than 1/128 of the values it holds. Recording is one bucket
// index computation and an increment: no allocation, no lock (each
// histogram has one writer).
type hist struct {
	counts [histBuckets]uint64
	n      uint64
}

const (
	subBits     = 7
	subMask     = 1<<subBits - 1
	histBuckets = (64 - subBits + 1) << subBits
)

func bucketOf(v uint64) int {
	if v < 1<<subBits {
		return int(v)
	}
	e := bits.Len64(v) - subBits - 1
	return (e+1)<<subBits + int((v>>uint(e))&subMask)
}

// bucketRange returns the lowest value of bucket b and the bucket width.
func bucketRange(b int) (lo, width float64) {
	if b < 1<<subBits {
		return float64(b), 1
	}
	e := uint(b>>subBits - 1)
	m := uint64(b & subMask)
	return float64((1<<subBits | m) << e), float64(uint64(1) << e)
}

func (h *hist) record(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.counts[bucketOf(uint64(ns))]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile in nanoseconds, interpolating
// linearly inside the bucket that holds the rank, or 0 when empty.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var cum float64
	for b, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo, w := bucketRange(b)
			return lo + w*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	lo, w := bucketRange(histBuckets - 1)
	return lo + w
}
