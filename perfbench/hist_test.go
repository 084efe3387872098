package main

import (
	"math"
	"testing"
)

func TestHistBucketsContiguous(t *testing.T) {
	prevB := -1
	for v := uint64(0); v < 1<<16; v++ {
		b := bucketOf(v)
		if b < prevB || b > prevB+1 {
			t.Fatalf("bucket of %d is %d after %d", v, b, prevB)
		}
		lo, w := bucketRange(b)
		if float64(v) < lo || float64(v) >= lo+w {
			t.Fatalf("value %d outside its bucket [%v,%v)", v, lo, lo+w)
		}
		prevB = b
	}
	if b := bucketOf(math.MaxUint64); b != histBuckets-1 {
		t.Fatalf("max value lands in bucket %d, want %d", b, histBuckets-1)
	}
}

func TestHistQuantileWithinOnePercent(t *testing.T) {
	var h hist
	for v := int64(1000); v < 101000; v++ {
		h.record(v)
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		want := 1000 + q*100000
		if got := h.quantile(q); math.Abs(got-want)/want > 0.01 {
			t.Errorf("q%.2f = %.0f, want %.0f within 1%%", q, got, want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { h.record(12345) }); n != 0 {
		t.Errorf("record allocates %v times", n)
	}
}
