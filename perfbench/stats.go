package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Summary describes one set of raw samples: exact order statistics, no
// bucketing. Every quantile is a sample that was actually observed, so
// it never leaves [Min, Max].
type Summary struct {
	N        int
	Min, Max float64
	P50      float64
	// Tail is the highest order statistic with tailBeyond samples above
	// it, at nearest-rank quantile TailQ = (N-tailBeyond)/N: p99 of 1000
	// samples, p65.5 of 29. Below 2*tailBeyond+1 samples that would fall
	// under the median, and the median stands in (TailQ 0.5).
	Tail  float64
	TailQ float64
}

// tailBeyond is how many samples must lie beyond a reported tail
// quantile for it to mean more than one unlucky sample.
const tailBeyond = 10

// Quantile returns the nearest-rank q-quantile of sorted (ascending):
// the smallest sample with at least q·n samples at or below it. q is
// clamped to [0, 1], so the result is always within [min, max].
func Quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	q = math.Max(0, math.Min(1, q))
	i := int(math.Ceil(q*float64(n))) - 1
	return sorted[max(0, min(n-1, i))]
}

// Summarize sorts a copy of samples and reports its order statistics.
func Summarize(samples []float64) Summary {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return Summary{}
	}
	out := Summary{N: n, Min: s[0], Max: s[n-1], P50: Quantile(s, 0.5), Tail: Quantile(s, 0.5), TailQ: 0.5}
	if q := float64(n-tailBeyond) / float64(n); q > 0.5 {
		out.Tail, out.TailQ = s[n-1-tailBeyond], q
	}
	return out
}

// String renders the summary with its sample count and tail quantile.
func (s Summary) String() string {
	return fmt.Sprintf("p50=%.4g tail(p%g)=%.4g min=%.4g max=%.4g n=%d",
		s.P50, 100*s.TailQ, s.Tail, s.Min, s.Max, s.N)
}

// durationsMS converts durations to float milliseconds.
func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// median is the nearest-rank median of xs (0 when empty).
func median(xs []float64) float64 { return Summarize(xs).P50 }

// Windowed splits samples, in the order taken, into n consecutive
// windows of (nearly) equal size and summarises each: one window per
// round, when the samples are rounds of equal size.
func Windowed(samples []float64, n int) []Summary {
	n = max(1, min(n, len(samples)))
	out := make([]Summary, n)
	for w := range out {
		out[w] = Summarize(samples[w*len(samples)/n : (w+1)*len(samples)/n])
	}
	return out
}

// quietOf is the better quartile, lower, over summaries of one of their
// fields (see quiet).
func quietOf(ss []Summary, field func(Summary) float64) float64 {
	xs := make([]float64, len(ss))
	for i, s := range ss {
		xs[i] = field(s)
	}
	return quiet(xs, false)
}

// quiet is the better quartile of xs, by nearest rank: the 25th
// percentile when lower is better, the 75th when higher is. It is what
// the benchmark reports over rounds that replay the same work: such
// rounds differ only in how the rest of the machine treated them, and
// interference only ever makes a round worse, so a change to the program
// moves every round while a stretch of interference that spoils up to
// three quarters of them does not move this.
func quiet(xs []float64, higherIsBetter bool) float64 {
	s := sorted(append([]float64(nil), xs...))
	if higherIsBetter {
		return Quantile(s, 0.75)
	}
	return Quantile(s, 0.25)
}
