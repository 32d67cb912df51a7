package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// minBeyond is how many samples must lie above a reported tail
// percentile: fewer, and the "percentile" is one or two unlucky
// requests.
const minBeyond = 10

// tailQuantile returns the quantile to report for a tail: want itself
// when n samples leave at least minBeyond above it, otherwise the
// highest quantile that does. ok is false when n is too small for any
// tail (n <= minBeyond); the caller then reports the maximum and says
// so.
func tailQuantile(n int, want float64) (q float64, ok bool) {
	if n <= minBeyond {
		return 1, false
	}
	limit := 1 - float64(minBeyond)/float64(n)
	if want <= limit {
		return want, true
	}
	return limit, true
}

// quantile is the nearest-rank q-quantile of sorted samples: the
// smallest sample with at least q·n samples at or below it.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rankOf(len(sorted), q)]
}

// rankOf is the 0-based nearest rank of the q-quantile among n samples.
// The epsilon keeps q·n that should be whole (0.99·1000) from rounding
// up a rank.
func rankOf(n int, q float64) int {
	rank := int(math.Ceil(q*float64(n)-1e-9)) - 1
	return max(0, min(rank, n-1))
}

// beyond counts the samples strictly above the nearest-rank q-quantile.
func beyond(n int, q float64) int {
	return n - 1 - rankOf(n, q)
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// lat is one request class's outcome record: latencies in ms of the
// requests that succeeded, plus attempts, failures and SLO misses. A
// failed request has no latency sample but counts as a miss.
type lat struct {
	mu        sync.Mutex
	ms        []float64
	done      []time.Time // completion time of each ms sample
	attempted int
	failed    int
	misses    int
	limitMs   float64 // 0: no latency limit
}

func (l *lat) record(d time.Duration, ok bool) {
	ms := float64(d) / float64(time.Millisecond)
	l.mu.Lock()
	defer l.mu.Unlock()
	l.attempted++
	if !ok {
		l.failed++
		l.misses++
		return
	}
	l.ms = append(l.ms, ms)
	l.done = append(l.done, time.Now())
	if l.limitMs > 0 && ms > l.limitMs {
		l.misses++
	}
}

// merge folds other classes into one, for whole-workload figures.
func merge(limitMs float64, ls ...*lat) *lat {
	out := &lat{limitMs: limitMs}
	for _, l := range ls {
		l.mu.Lock()
		out.ms = append(out.ms, l.ms...)
		out.done = append(out.done, l.done...)
		out.attempted += l.attempted
		out.failed += l.failed
		out.misses += l.misses
		l.mu.Unlock()
	}
	return out
}

// summary is a class's reportable figures.
type summary struct {
	n           int     // latency samples (successful requests)
	p50         float64 // ms
	p90         float64 // ms
	p95         float64 // ms
	tail        float64 // ms, at tailQ
	tailQ       float64 // the quantile tail reports (0.99 unless n is small)
	tailBeyond  int     // samples above tail
	attempted   int
	failed      int
	errorFrac   float64
	sloMissFrac float64
}

func (l *lat) summary() summary {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := append([]float64(nil), l.ms...)
	sort.Float64s(s)
	out := summary{n: len(s), attempted: l.attempted, failed: l.failed}
	if l.attempted > 0 {
		out.errorFrac = float64(l.failed) / float64(l.attempted)
		out.sloMissFrac = float64(l.misses) / float64(l.attempted)
	}
	if len(s) == 0 {
		return out
	}
	out.p50 = quantile(s, 0.5)
	out.p90 = quantile(s, 0.90)
	out.p95 = quantile(s, 0.95)
	q, _ := tailQuantile(len(s), 0.99)
	out.tail, out.tailQ, out.tailBeyond = quantile(s, q), q, beyond(len(s), q)
	return out
}

// windowed splits the samples, in completion order, into the most
// chunks of at least minChunk samples each and returns the median over
// chunks of each chunk's p50 and p90, with the chunk count. The median
// over chunks keeps one disturbed stretch of the run (another tenant's
// burst, a snapshot) from moving the figure.
func (l *lat) windowed(minChunk int) (p50, p90 float64, chunks int) {
	l.mu.Lock()
	idx := make([]int, len(l.ms))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return l.done[idx[a]].Before(l.done[idx[b]]) })
	ms := make([]float64, len(idx))
	for i, j := range idx {
		ms[i] = l.ms[j]
	}
	l.mu.Unlock()
	chunks = max(1, len(ms)/minChunk)
	var p50s, p90s []float64
	for c := 0; c < chunks; c++ {
		part := append([]float64(nil), ms[c*len(ms)/chunks:(c+1)*len(ms)/chunks]...)
		sort.Float64s(part)
		p50s = append(p50s, quantile(part, 0.5))
		p90s = append(p90s, quantile(part, 0.90))
	}
	return median(p50s), median(p90s), chunks
}

// busyRate is work per second of busy time, robust to one disturbed
// stretch the same way windowed is: the samples, in order, are split
// into the most chunks of at least minChunk each, and the figure is the
// median over chunks of the chunk's work over its busy time.
func busyRate(work, busy []float64, minChunk int) (rate float64, chunks int) {
	chunks = max(1, len(work)/minChunk)
	var rates []float64
	for c := 0; c < chunks; c++ {
		var w, b float64
		for i := c * len(work) / chunks; i < (c+1)*len(work)/chunks; i++ {
			w += work[i]
			b += busy[i]
		}
		if b > 0 {
			rates = append(rates, w/b)
		}
	}
	if len(rates) == 0 {
		return 0, chunks
	}
	return median(rates), chunks
}
