package main

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"
)

func TestTailHasTenSamplesBeyond(t *testing.T) {
	for _, n := range []int{11, 12, 50, 500, 999, 1000, 1001, 5000} {
		q, ok := tailQuantile(n, 0.99)
		if !ok {
			t.Fatalf("n=%d: no tail", n)
		}
		if b := beyond(n, q); b < minBeyond {
			t.Errorf("n=%d: q=%v leaves %d samples beyond, want >= %d", n, q, b, minBeyond)
		}
		if n >= 1000 && q != 0.99 {
			t.Errorf("n=%d: q=%v, want 0.99", n, q)
		}
	}
	if _, ok := tailQuantile(10, 0.99); ok {
		t.Error("n=10: a tail with 10 samples beyond cannot exist")
	}

	l := &lat{}
	for i := 1; i <= 1000; i++ {
		l.record(time.Duration(i)*time.Millisecond, true)
	}
	s := l.summary()
	if s.p50 != 500 || s.tail != 990 || s.tailBeyond != 10 || s.n != 1000 {
		t.Errorf("summary = %+v, want p50 500, p99 990 with 10 beyond", s)
	}
}

func TestFailuresCountAgainstAttempts(t *testing.T) {
	l := &lat{limitMs: 5}
	l.record(1*time.Millisecond, true)
	l.record(10*time.Millisecond, true) // over the limit
	l.record(0, false)                  // failed: a miss too
	l.record(2*time.Millisecond, true)
	s := l.summary()
	if s.attempted != 4 || s.failed != 1 || s.n != 3 {
		t.Fatalf("attempted %d failed %d samples %d, want 4, 1, 3", s.attempted, s.failed, s.n)
	}
	if s.errorFrac != 0.25 || s.sloMissFrac != 0.5 {
		t.Errorf("error_frac %v slo_miss_frac %v, want 0.25 and 0.5", s.errorFrac, s.sloMissFrac)
	}
	m := merge(5, l, &lat{attempted: 2, failed: 2, misses: 2}).summary()
	if m.attempted != 6 || m.failed != 3 || m.errorFrac != 0.5 {
		t.Errorf("merged %+v, want 3 failed of 6", m)
	}
}

func TestOpenLoopTimesFromDue(t *testing.T) {
	// Three requests due 10 ms apart; the first takes 60 ms, so the
	// others are sent late and must be charged the wait.
	reqs := []due{{at: 0, seq: 1}, {at: 10 * time.Millisecond, seq: 2}, {at: 20 * time.Millisecond, seq: 3}}
	l, late := &lat{}, &lat{}
	start := time.Now()
	var sent []time.Duration
	openLane(start, reqs, start.Add(time.Minute), []*lat{l}, late, func(d due) bool {
		sent = append(sent, time.Since(start))
		if d.seq == 1 {
			time.Sleep(60 * time.Millisecond)
		}
		return true
	})
	if l.attempted != 3 || late.attempted != 3 {
		t.Fatalf("attempted %d, lateness samples %d, want 3 and 3", l.attempted, late.attempted)
	}
	for i, d := range reqs {
		wantMin := sent[i] - d.at // at least the lateness
		if got := time.Duration(l.ms[i] * float64(time.Millisecond)); got < wantMin {
			t.Errorf("request %d: latency %v < lateness %v", d.seq, got, wantMin)
		}
	}
	if l.ms[1] < 45 || late.ms[1] < 45 {
		t.Errorf("request 2: latency %.1f ms, lateness %.1f ms; want both >= 45 ms (sent ~50 ms after due)", l.ms[1], late.ms[1])
	}

	// Requests still unsent at the cutoff fail.
	l2, late2 := &lat{}, &lat{}
	start = time.Now()
	openLane(start, reqs, start.Add(30*time.Millisecond), []*lat{l2}, late2, func(d due) bool {
		time.Sleep(60 * time.Millisecond)
		return true
	})
	if l2.attempted != 3 || l2.failed != 2 {
		t.Errorf("past cutoff: attempted %d failed %d, want 3 and 2", l2.attempted, l2.failed)
	}
}

func TestSelfTimeOfNestedSpans(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "child", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "child", Start: 20, End: 50}, // overlaps the first child
		{ID: 4, Parent: 1, Name: "late", Start: 90, End: 120}, // runs past its parent
		{ID: 5, Parent: 3, Name: "grand", Start: 25, End: 35}, // inside child 3 only
		{ID: 6, Name: "open", Start: 5, End: 0},               // never closed
	}
	st := selfTimes(spans)
	check := func(name string, count int, total, self time.Duration) {
		t.Helper()
		if g := st[name]; g.Count != count || g.Total != total || g.Self != self {
			t.Errorf("%s: %+v, want count %d total %v self %v", name, g, count, total, self)
		}
	}
	check("root", 1, 100, 100-40-10) // children cover 10..50 and 90..100
	check("child", 2, 50, 20+20)     // child 3 loses 25..35 to its own child
	check("late", 1, 30, 30)
	check("grand", 1, 10, 10)
	if _, ok := st["open"]; ok {
		t.Error("an unclosed span was counted")
	}

	tr := newTracer()
	outer := tr.begin("outer", 0, 7)
	tr.do("inner", outer, 7, func(int) { time.Sleep(2 * time.Millisecond) })
	tr.end(outer)
	got := selfTimes(tr.snapshot())
	if got["outer"].Self > got["outer"].Total-got["inner"].Total+time.Microsecond {
		t.Errorf("outer self %v, total %v, inner %v", got["outer"].Self, got["outer"].Total, got["inner"].Total)
	}
	var nilTracer *tracer
	if id := nilTracer.begin("x", 0, 0); id != 0 {
		t.Errorf("nil tracer returned span %d", id)
	}
}

// inputBytes renders everything a server workload's seed determines.
func inputBytes(t *testing.T, seed int64) []byte {
	t.Helper()
	in, err := newServerInputs(seed)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	b.Write(in.csv)
	b.Write(in.cfds)
	enc := json.NewEncoder(&b)
	keys := newKeySet()
	for k := 0; k < seedTuples; k++ {
		keys.add(int64(k))
	}
	g := newOpGen(seed, in.pool)
	for i := 0; i < 200; i++ {
		_ = enc.Encode(nextIngestOp(g, keys))
	}
	w := newRoutedWriter(seed, in, keys.keys)
	next := int64(seedTuples)
	for i := 0; i < 20; i++ {
		ops := w.batch()
		_ = enc.Encode(ops)
		var acked []int64
		for _, o := range ops {
			if o.Op == "insert" {
				acked = append(acked, next)
				next++
			}
		}
		w.acked(ops, acked)
	}
	_ = enc.Encode(schedule(seed, routedRate, 2*time.Second))
	return b.Bytes()
}

func TestSameSeedSameInputs(t *testing.T) {
	a, b, c := inputBytes(t, 7), inputBytes(t, 7), inputBytes(t, 8)
	if !bytes.Equal(a, b) {
		t.Error("seed 7 produced different server-workload inputs on two calls")
	}
	if bytes.Equal(a, c) {
		t.Error("seeds 7 and 8 produced the same server-workload inputs")
	}
	if testing.Short() {
		return
	}
	csv1, cfds1, err := detectInputs(7)
	if err != nil {
		t.Fatal(err)
	}
	csv2, cfds2, err := detectInputs(7)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(csv1, csv2) || !bytes.Equal(cfds1, cfds2) {
		t.Error("seed 7 produced different detect-batch inputs on two calls")
	}
}

func TestParseProm(t *testing.T) {
	text := `# HELP x_seconds demo
# TYPE x_seconds histogram
x_seconds_bucket{path="/v1/apply",le="+Inf"} 4
x_seconds_sum{path="/v1/apply"} 0.002
x_seconds_count{path="/v1/apply"} 4
ops_total{op="insert"} 3
ops_total{op="update"} 1
`
	before, err := parseProm(strings.NewReader(strings.ReplaceAll(strings.ReplaceAll(text, " 4\n", " 2\n"), "0.002", "0.0005")))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseProm(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	mean, n := histMean(before, after, "x_seconds", pathLabel("/v1/apply"))
	if n != 2 || mean != 0.00075 {
		t.Errorf("histMean = %v over %v, want 0.00075 over 2", mean, n)
	}
	if s := sumSeries(after, "ops_total"); s != 4 {
		t.Errorf("sumSeries = %v, want 4", s)
	}
}

func TestBusyRateIsAMedianOverChunks(t *testing.T) {
	// 300 batches of 16 ops at 2 ms each, one chunk of which a stall
	// made ten times slower: the stall must not move the figure.
	var work, busy []float64
	for i := 0; i < 300; i++ {
		b := 0.002
		if i >= 100 && i < 150 {
			b = 0.02
		}
		work, busy = append(work, 16), append(busy, b)
	}
	rate, chunks := busyRate(work, busy, 50)
	near := func(x float64) bool { return math.Abs(x-8000) < 1e-6 }
	if chunks != 6 || !near(rate) {
		t.Errorf("busyRate = %v over %d chunks, want 8000 over 6", rate, chunks)
	}
	if rate, chunks := busyRate(work[:10], busy[:10], 50); chunks != 1 || !near(rate) {
		t.Errorf("short run: busyRate = %v over %d chunks, want 8000 over 1", rate, chunks)
	}
}
