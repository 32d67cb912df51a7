// Command perfbench is the repository's end-to-end benchmark. One run
// executes one workload for a fixed time and prints its metrics; the
// last line of standard output is a JSON object with the keys correct,
// attempted, failed and metrics.
//
// Run it through run.sh from the repository root, which builds cfdserve,
// cfdrouter and this program from source first:
//
//	bash perfbench/run.sh --workload ingest-durable --seed 1 --seconds 25 --trace 0
//
// Workloads (see README.md for why each was chosen):
//
//	ingest-durable  one durable cfdserve (-wal-dir, -fsync), two closed-loop writers
//	monitor-routed  cfdrouter over two in-memory cfdserve groups, open-loop mixed traffic
//	detect-batch    in-process batch detection: Direct, per-CFD SQL (DNF), merged SQL
//
// --workload all runs the three in turn, each printing its own report
// and result line.
//
// With --trace 0 the JSON carries the end-to-end metrics; with
// --trace 1 the run is split into an untraced and a traced half, the
// workload's op stream is replayed in-process under spans, and the JSON
// carries the per-layer metrics. Every run checks the programs' outputs
// and exits 1 when a check fails.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// endToEnd and perLayer are the metrics the JSON line carries with
// --trace 0 and --trace 1, with their units; BENCHMARK.json declares the
// same sets.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"p90_ms", "ms"},
	{"rss_mb", "MB"},
}

var perLayer = []metricDef{
	{"cfdserve.apply_handler_us", "us"},
	{"cfdserve.read_handler_us", "us"},
	{"cfdserve.repairs_handler_us", "us"},
	{"client.unaccounted_us", "us"},
	{"cfdrouter.apply_handler_us", "us"},
	{"cfdrouter.read_handler_us", "us"},
	{"cfdrouter.repairs_handler_us", "us"},
	{"cfdrouter.self_us", "us"},
	{"cluster.router_apply_us", "us"},
	{"incremental.apply_us", "us"},
	{"incremental.validate_us", "us"},
	{"incremental.wal_stage_us", "us"},
	{"incremental.shard_apply_us", "us"},
	{"incremental.journal_wait_us", "us"},
	{"incremental.view_read_us", "us"},
	{"incremental.point_read_us", "us"},
	{"incremental.view_rebuilds_per_read", "ratio"},
	{"incremental.load_s", "s"},
	{"incremental.recover_s", "s"},
	{"wal.append_us", "us"},
	{"wal.fsync_us", "us"},
	{"wal.fsyncs_per_op", "ratio"},
	{"wal.bytes_per_op", "B"},
	{"wal.snapshots", "count"},
	{"wal.snapshot_ms", "ms"},
	{"repair.refresh_us", "us"},
	{"repair.replanned_per_refresh", "ratio"},
	{"repair.attach_ms", "ms"},
	{"relation.read_csv_ms", "ms"},
	{"detect.direct_ms", "ms"},
	{"sqlgen.generate_ms", "ms"},
	{"sqlmini.query_ms", "ms"},
	{"sqlmini.nested_loop_joins", "count"},
	{"detect.violations", "count"},
	{"driver.late_p99_ms", "ms"},
	{"trace.overhead_frac", "ratio"},
	{"host.steal_frac", "ratio"},
}

type metricDef struct{ name, unit string }

// setupRuns is how many times a run sets its system up; setup_s is the
// median.
const setupRuns = 7

// warmup is the untimed load a server workload runs before measuring,
// so that caches, connection pools and CPU clocks have settled.
const warmup = 3 * time.Second

// minChunk is the least chunk size of the windowed p50 and p90 figures:
// a chunk's p90 has at least 50 samples beyond it.
const minChunk = 500

// config is one run's command line plus its directories.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	bin      string // cfdserve and cfdrouter
	work     string // this run's scratch directory, removed at exit
}

// result is what a workload reports. Layer metrics a workload does not
// exercise stay 0: that layer did no work.
type result struct {
	correct   bool
	attempted int
	failed    int
	e2e       map[string]float64
	layers    map[string]float64
	lines     []string // the human-readable report
	tr        *tracer
}

func newResult() *result {
	return &result{correct: true, e2e: map[string]float64{}, layers: map[string]float64{}}
}

func (r *result) printf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// check records an output check; a failed one fails the run.
func (r *result) check(ok bool, format string, args ...any) {
	status := "ok"
	if !ok {
		status = "FAILED"
		r.correct = false
	}
	r.printf("check %-6s "+format, append([]any{status}, args...)...)
}

// class prints one request class's latency figures under the metric
// names of the workload's spec.
func (r *result) class(name string, s summary) {
	tail := fmt.Sprintf("p%g", math.Round(s.tailQ*1000)/10)
	r.printf("%s_p50_ms %.4f ms (n=%d)", name, s.p50, s.n)
	for _, p := range []struct {
		q float64
		v float64
	}{{0.90, s.p90}, {0.95, s.p95}} {
		if b := beyond(s.n, p.q); b >= minBeyond {
			r.printf("%s_p%.0f_ms %.4f ms (n=%d, %d samples beyond)", name, p.q*100, p.v, s.n, b)
		}
	}
	r.printf("%s_p99_ms %.4f ms (%s of n=%d, %d samples beyond)", name, s.tail, tail, s.n, s.tailBeyond)
	r.printf("%s_error_frac %.6f (%d failed of %d attempted)", name, s.errorFrac, s.failed, s.attempted)
}

func main() {
	var (
		workload = flag.String("workload", "", "ingest-durable, monitor-routed, detect-batch, or all three in turn")
		seed     = flag.Int64("seed", 1, "input seed")
		seconds  = flag.Float64("seconds", 15, "measured time per run")
		trace    = flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
		bin      = flag.String("bin", "", "directory holding the cfdserve and cfdrouter binaries")
		out      = flag.String("out", ".bench_build", "directory for work files and span dumps")
	)
	flag.Parse()
	names := []string{*workload}
	if *workload == "all" {
		names = []string{"ingest-durable", "monitor-routed", "detect-batch"}
	}
	failed := false
	for _, w := range names {
		err := run(w, *seed, *seconds, *trace == 1, *bin, *out)
		if errors.Is(err, errChecksFailed) {
			failed = true
			continue
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w, err)
			os.Exit(1)
		}
	}
	if failed {
		os.Exit(1)
	}
}

// errChecksFailed reports a run whose result line was printed with
// "correct": false.
var errChecksFailed = errors.New("output checks failed")

func run(workload string, seed int64, seconds float64, trace bool, bin, out string) error {
	runs := map[string]func(*config, *result) error{
		"ingest-durable": runIngest,
		"monitor-routed": runRouted,
		"detect-batch":   runDetect,
	}
	f, ok := runs[workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", workload)
	}
	if seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	if err := os.MkdirAll(filepath.Join(out, "run"), 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(filepath.Join(out, "run"), workload+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	cfg := &config{workload: workload, seed: seed, seconds: seconds, trace: trace, bin: bin, work: work}
	res := newResult()
	if trace {
		res.tr = newTracer()
	}
	steal0, total0 := cpuSteal()
	if err := f(cfg, res); err != nil {
		return err
	}
	if steal1, total1 := cpuSteal(); total1 > total0 {
		// CPU time the hypervisor gave other tenants: a run with a high
		// share was measured on a slower machine than its neighbours.
		res.layers["host.steal_frac"] = float64(steal1-steal0) / float64(total1-total0)
		res.printf("host.steal_frac %.4f (share of CPU time stolen by the hypervisor during the run)", res.layers["host.steal_frac"])
	}
	if res.attempted < 1 {
		return fmt.Errorf("no operation attempted")
	}
	if trace {
		printSpans(res)
		printLayers(res)
		dir := filepath.Join(out, "traces")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
		if err := res.tr.write(path); err != nil {
			return err
		}
		res.printf("spans written to %s", path)
	}
	for _, l := range res.lines {
		fmt.Println(l)
	}
	return emit(res, trace)
}

// emit prints the JSON result line; after a failed check it returns
// errChecksFailed.
func emit(res *result, trace bool) error {
	defs, vals := endToEnd, res.e2e
	if trace {
		defs, vals = perLayer, res.layers
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]metric, len(defs))
	for _, d := range defs {
		v := vals[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.name, v)
		}
		ms[d.name] = metric{Value: v, Unit: d.unit}
	}
	if !trace {
		for _, d := range defs {
			if ms[d.name].Value <= 0 {
				return fmt.Errorf("end-to-end metric %s is %v", d.name, ms[d.name].Value)
			}
		}
	}
	line, err := json.Marshal(map[string]any{
		"correct": res.correct, "attempted": res.attempted, "failed": res.failed, "metrics": ms,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.correct {
		return errChecksFailed
	}
	return nil
}

// cpuSteal reads the steal and total jiffies of all CPUs from
// /proc/stat; both are 0 where it is unavailable.
func cpuSteal() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // user..steal; guest time is already in user
			total += n
		}
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

// medianSeconds is the median of durations, in seconds.
func medianSeconds(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds()
	}
	return median(xs)
}
