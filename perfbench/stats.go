package main

import (
	"math"
	"math/rand"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported tail
// percentile: a tail estimated from fewer points is one outlier wide.
const minBeyond = 10

// Summary is the distribution of one timed quantity in one run.
type Summary struct {
	N      int
	Median float64
	// Tail is the value at TailPct, the highest whole percentile with at
	// least minBeyond samples above it. With too few samples for any
	// percentile to qualify, TailPct is 100 and Tail is the maximum.
	TailPct int
	Tail    float64
}

// Summarize sorts a copy of xs and returns its median and tail.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	out := Summary{N: len(s), Median: median(s)}
	out.TailPct, out.Tail = tailPercentile(s)
	return out
}

func median(sorted []float64) float64 {
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// tailPercentile returns the highest whole percentile p in [50, 99] whose
// nearest-rank value has at least minBeyond samples strictly beyond its
// rank, with that value. It falls back to (100, max) when none qualifies.
func tailPercentile(sorted []float64) (int, float64) {
	n := len(sorted)
	for p := 99; p >= 50; p-- {
		rank := int(math.Ceil(float64(p) * float64(n) / 100)) // 1-based nearest rank
		if rank < 1 {
			rank = 1
		}
		if n-rank >= minBeyond {
			return p, sorted[rank-1]
		}
	}
	return 100, sorted[n-1]
}

// Schedule returns count due offsets for an open loop with the given mean
// rate, drawn from rng. Given its count, a Poisson process's arrivals are
// uniform order statistics over the window, so the schedule is that: a
// seeded Poisson arrival pattern with exactly count arrivals in
// [0, count/rate). Fixing the count keeps offered load equal across seeds.
func Schedule(rng *rand.Rand, rate float64, count int) []time.Duration {
	window := float64(count) / rate
	due := make([]float64, count)
	for i := range due {
		due[i] = rng.Float64() * window
	}
	sort.Float64s(due)
	out := make([]time.Duration, count)
	for i, d := range due {
		out[i] = time.Duration(d * float64(time.Second))
	}
	return out
}

// OpenLoopTiming is one open-loop operation's timing: when it was due,
// when the generator actually started it, and when it finished.
type OpenLoopTiming struct {
	Due, Start, End time.Duration
}

// Latency is measured from the due time, so a stall that delays later
// starts is charged to the operations it delayed.
func (t OpenLoopTiming) Latency() time.Duration { return t.End - t.Due }

// Lag is how late the generator started the operation.
func (t OpenLoopTiming) Lag() time.Duration { return t.Start - t.Due }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
