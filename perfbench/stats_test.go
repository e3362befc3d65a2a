package main

import (
	"math/rand"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // unsorted on purpose
	}
	return xs
}

func TestTailPercentileRule(t *testing.T) {
	for _, tc := range []struct {
		n       int
		wantPct int
		want    float64
	}{
		{1000, 99, 990}, // rank 990 leaves exactly 10 beyond
		{999, 98, 980},  // p99 would leave 9
		{500, 98, 490},
		{20, 50, 10},  // only the median leaves 10 beyond
		{11, 100, 11}, // no percentile qualifies: the maximum
		{1, 100, 1},
	} {
		s := Summarize(seq(tc.n))
		if s.N != tc.n || s.TailPct != tc.wantPct || s.Tail != tc.want {
			t.Errorf("n=%d: got p%d=%v (n=%d), want p%d=%v", tc.n, s.TailPct, s.Tail, s.N, tc.wantPct, tc.want)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := Summarize([]float64{3, 1, 2}).Median; got != 2 {
		t.Errorf("odd median %v", got)
	}
	if got := Summarize([]float64{4, 1, 3, 2}).Median; got != 2.5 {
		t.Errorf("even median %v", got)
	}
	if s := Summarize(nil); s.N != 0 {
		t.Errorf("empty summary %+v", s)
	}
}

func TestOpenLoopTimingFromDue(t *testing.T) {
	// Due at 100ms, started late at 130ms because the generator stalled,
	// done at 180ms: the stall counts against the operation.
	op := OpenLoopTiming{Due: 100 * time.Millisecond, Start: 130 * time.Millisecond, End: 180 * time.Millisecond}
	if op.Latency() != 80*time.Millisecond {
		t.Errorf("latency %v, want 80ms from the due time", op.Latency())
	}
	if op.Lag() != 30*time.Millisecond {
		t.Errorf("lag %v, want 30ms", op.Lag())
	}
}

func TestScheduleFixedCountSeeded(t *testing.T) {
	const rate, count = 50.0, 500
	a := Schedule(rand.New(rand.NewSource(7)), rate, count)
	b := Schedule(rand.New(rand.NewSource(7)), rate, count)
	c := Schedule(rand.New(rand.NewSource(8)), rate, count)
	if len(a) != count {
		t.Fatalf("%d arrivals, want %d", len(a), count)
	}
	window := time.Duration(count / rate * float64(time.Second))
	same := true
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed gave a different schedule")
		}
		if a[i] != c[i] {
			same = false
		}
		if a[i] < 0 || a[i] >= window || (i > 0 && a[i] < a[i-1]) {
			t.Fatalf("arrival %d at %v: outside [0, %v) or out of order", i, a[i], window)
		}
	}
	if same {
		t.Error("different seeds gave the same schedule")
	}
	// Poisson arrivals: gaps are roughly exponential with mean 1/rate.
	var sum time.Duration
	for i := 1; i < len(a); i++ {
		sum += a[i] - a[i-1]
	}
	if mean := sum.Seconds() / float64(len(a)-1); mean < 0.8/rate || mean > 1.2/rate {
		t.Errorf("mean gap %.4fs, want about %.4fs", mean, 1/rate)
	}
}
