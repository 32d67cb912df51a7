package main

import (
	"bytes"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/gen"
	"repro/internal/relation"
	"repro/internal/sqlgen"
	"repro/internal/sqlmini"
)

// detect-batch: the cfddetect job in-process. A generated tax CSV is
// read into a Relation, then Detect runs four ways over prefixes sized
// so that each job takes about a second on a 2-core box: Direct,
// per-CFD SQL in DNF, merged SQL in CNF, and merged SQL in DNF (the
// paper's recommended form, which grows so fast here that it gets a
// tiny instance). Σ is the three related tableau CFDs of the paper's
// merging experiment, half of their pattern tuples constant.

type detectJob struct {
	name   string // the job's metric stem: detect_<name>_s
	opts   detect.Options
	tuples int
}

var detectJobs = []detectJob{
	{"direct", detect.Options{Strategy: detect.Direct}, 200000},
	{"sql", detect.Options{Strategy: detect.SQLPerCFD, Form: sqlgen.DNF}, 120000},
	{"merged", detect.Options{Strategy: detect.SQLMerged, Form: sqlgen.CNF}, 7000},
	{"merged_dnf", detect.Options{Strategy: detect.SQLMerged, Form: sqlgen.DNF}, 150},
}

// detectTuples is the generated instance size: the largest job's.
const detectTuples = 200000

// detectInputs writes the instance CSV and Σ for seed.
func detectInputs(seed int64) (csv, cfds []byte, err error) {
	data := gen.GenerateTax(gen.TaxConfig{Size: detectTuples, Noise: taxNoise, Seed: seed})
	var sigma []*core.CFD
	for i, tpl := range []gen.Template{gen.ZipToState, gen.ZipCityToState, gen.AreaCodeToState} {
		c, err := gen.GenerateWorkloadCFD(data.Clean, gen.CFDConfig{Template: tpl, TabSize: 500, ConstPct: 0.5, Seed: seed*16 + int64(i)})
		if err != nil {
			return nil, nil, err
		}
		sigma = append(sigma, c)
	}
	var b bytes.Buffer
	if err := relation.WriteCSV(&b, data.Dirty); err != nil {
		return nil, nil, err
	}
	return b.Bytes(), []byte(core.FormatSet(sigma)), nil
}

func runDetect(cfg *config, res *result) error {
	csv, cfds, err := detectInputs(cfg.seed)
	if err != nil {
		return err
	}
	csvPath := filepath.Join(cfg.work, "tax.csv")
	cfdPath := filepath.Join(cfg.work, "cfds.txt")
	if err := os.WriteFile(csvPath, csv, 0o644); err != nil {
		return err
	}
	if err := os.WriteFile(cfdPath, cfds, 0o644); err != nil {
		return err
	}
	csv = nil
	runtime.GC()
	peak := startHeapSampler()

	// Set up setupRuns times: read the CSV into a Relation and parse Σ.
	var setups []time.Duration
	var rel *relation.Relation
	var sigma []*core.CFD
	var readCSV spanStat
	for i := 0; i < setupRuns; i++ {
		rel, sigma = nil, nil
		runtime.GC()
		start := time.Now()
		if err := func() error {
			f, err := os.Open(csvPath)
			if err != nil {
				return err
			}
			defer f.Close()
			t0 := time.Now()
			res.tr.do("relation.ReadCSV", 0, 0, func(int) { rel, err = relation.ReadCSV(f, "tax") })
			readCSV.Count++
			readCSV.Total += time.Since(t0)
			if err != nil {
				return err
			}
			text, err := os.ReadFile(cfdPath)
			if err != nil {
				return err
			}
			sigma, err = core.ParseSet(string(text))
			return err
		}(); err != nil {
			return err
		}
		setups = append(setups, time.Since(start))
	}
	if len(sigma) != 3 || rel.Len() != detectTuples {
		return fmt.Errorf("inputs: %d CFDs over %d tuples", len(sigma), rel.Len())
	}
	prefix := func(n int) *relation.Relation {
		p := relation.New(rel.Schema)
		p.Tuples = rel.Tuples[:n]
		return p
	}

	// The oracle: Direct detection at every job's size, untimed.
	oracle := make(map[int]*detect.Result)
	for _, j := range detectJobs {
		if oracle[j.tuples] == nil {
			r, err := detect.Detect(prefix(j.tuples), sigma, detect.Options{Strategy: detect.Direct})
			if err != nil {
				return err
			}
			oracle[j.tuples] = r
		}
	}

	times := make(map[string][]float64) // job → seconds
	last := make(map[string]*detect.Result)
	var rounds []float64 // ms
	var tuples, busy float64
	mismatches := 0
	jobsRun := 0
	// round runs every job once through detect.Detect, inside a span
	// when tr is set.
	round := func(tr *tracer) error {
		t0 := time.Now()
		for _, j := range detectJobs {
			in := prefix(j.tuples)
			start := time.Now()
			var r *detect.Result
			var err error
			tr.do("detect.Detect", 0, 0, func(int) { r, err = detect.Detect(in, sigma, j.opts) })
			if err != nil {
				return err
			}
			d := time.Since(start).Seconds()
			if !r.Equal(oracle[j.tuples]) {
				mismatches++
			}
			last[j.name] = r
			times[j.name] = append(times[j.name], d)
			tuples += float64(j.tuples)
			busy += d
			jobsRun++
		}
		rounds = append(rounds, float64(time.Since(t0))/float64(time.Millisecond))
		return nil
	}
	runFor := func(dur time.Duration, tr *tracer) error {
		end := time.Now().Add(dur)
		for len(rounds) == 0 || time.Now().Before(end) {
			if err := round(tr); err != nil {
				return err
			}
		}
		return nil
	}

	total := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		if err := runFor(total/2, nil); err != nil {
			return err
		}
		plain := median(rounds)
		rounds, times = nil, make(map[string][]float64)
		if err := runFor(total/2, res.tr); err != nil {
			return err
		}
		res.layers["trace.overhead_frac"] = median(rounds)/plain - 1
	} else if err := runFor(total, nil); err != nil {
		return err
	}
	peakMB := peak()

	res.attempted = jobsRun
	res.e2e["setup_s"] = medianSeconds(setups)
	res.e2e["throughput_per_s"] = tuples / busy
	// A typical round: every job at its own median. The tail is the
	// rounds' nearest-rank p90, which is the slowest round while a run
	// has fewer than ten.
	for _, j := range detectJobs {
		res.e2e["p50_ms"] += median(times[j.name]) * 1e3
	}
	res.e2e["p90_ms"] = quantile(slices.Sorted(slices.Values(rounds)), 0.90)
	res.e2e["rss_mb"] = peakMB
	res.printf("workload detect-batch: %d tuples, %d CFDs (%d pattern tuples), in-process", rel.Len(), len(sigma), patternRows(sigma))
	res.printf("setup_s %.4f s (median of %d: ReadCSV of %d tuples and parsing Σ)", res.e2e["setup_s"], len(setups), rel.Len())
	for _, j := range detectJobs {
		res.printf("detect_%s_s %.4f s (median of n=%d jobs; %s over %d tuples)", j.name, median(times[j.name]), len(times[j.name]), jobLabel(j.opts), j.tuples)
	}
	res.printf("p50_ms %.1f ms (a round with every job at its median), p90_ms %.1f ms (p90 of n=%d rounds)", res.e2e["p50_ms"], res.e2e["p90_ms"], len(rounds))
	res.printf("throughput_per_s %.1f tuples/s checked, over all jobs", res.e2e["throughput_per_s"])
	res.printf("error_frac %.6f (%d of %d jobs disagreed with Direct)", float64(mismatches)/float64(jobsRun), mismatches, jobsRun)
	res.printf("rss_mb %.1f MB (peak live heap)", peakMB)
	res.check(mismatches == 0, "every job's violations equal Direct detection's at the same size (%d mismatches in %d jobs)", mismatches, jobsRun)
	res.failed = mismatches

	if cfg.trace {
		// The layer breakdown, outside the timed rounds: each SQL job
		// once more, step by step under spans. Its result must equal
		// detect.Detect's, so the step-by-step copy cannot drift from
		// the library unnoticed.
		var spans detectSpans
		for _, j := range detectJobs {
			if j.opts.Strategy == detect.Direct {
				continue
			}
			r, err := replaySQL(res.tr, &spans, prefix(j.tuples), sigma, j.opts)
			if err != nil {
				return err
			}
			res.check(r.Equal(last[j.name]), "the traced step-by-step %s job equals detect.Detect's result over %d tuples", jobLabel(j.opts), j.tuples)
		}
		res.layers["relation.read_csv_ms"] = readCSV.meanUs() / 1e3
		res.layers["detect.direct_ms"] = median(times["direct"]) * 1e3
		if spans.sqlJobs > 0 {
			res.layers["sqlgen.generate_ms"] = float64(spans.generate) / float64(time.Millisecond) / float64(spans.sqlJobs)
		}
		res.layers["sqlmini.query_ms"] = spans.query.meanUs() / 1e3
		res.layers["detect.violations"] = float64(resultCount(oracle[detectTuples]))
		nl, err := nestedLoops(prefix, sigma)
		if err != nil {
			return err
		}
		res.layers["sqlmini.nested_loop_joins"] = float64(nl)
	}
	return nil
}

// detectSpans accumulates the traced SQL jobs' layer times.
type detectSpans struct {
	sqlJobs  int
	generate time.Duration // sqlgen, summed over jobs
	query    spanStat      // sqlmini, per query
}

// replaySQL runs one SQL detection job step by step, as
// internal/detect does, with a span around every sqlgen and sqlmini
// call, and returns its canonical result.
func replaySQL(tr *tracer, st *detectSpans, rel *relation.Relation, sigma []*core.CFD, opts detect.Options) (*detect.Result, error) {
	job := tr.begin("job."+opts.Strategy.String()+"-"+opts.Form.String(), 0, 0)
	defer tr.end(job)
	st.sqlJobs++
	genOpts := sqlgen.Options{Form: opts.Form, IncludeRowid: true}
	gen := func(name string, f func() error) error {
		t0 := time.Now()
		var err error
		tr.do(name, job, 0, func(int) { err = f() })
		st.generate += time.Since(t0)
		return err
	}
	query := func(db *sqlmini.DB, q string) ([][]relation.Value, error) {
		t0 := time.Now()
		var r *sqlmini.Result
		var err error
		tr.do("sqlmini.DB.Query", job, 0, func(int) { r, err = db.Query(q) })
		st.query.Count++
		st.query.Total += time.Since(t0)
		if err != nil {
			return nil, err
		}
		return r.Rows, nil
	}
	db := sqlmini.NewDB()
	db.RegisterRelation(detect.DataTable, rel)
	consts := make([]map[int]bool, len(sigma))
	vars := make([]map[string][]relation.Value, len(sigma))
	for i := range sigma {
		consts[i], vars[i] = map[int]bool{}, map[string][]relation.Value{}
	}
	addVar := func(ci int, key []relation.Value) {
		if len(sigma[ci].LHS) == 0 {
			key = nil // an empty LHS groups by pattern row
		}
		vars[ci][relation.EncodeKey(key)] = key
	}
	if opts.Strategy == detect.SQLPerCFD {
		for i, c := range sigma {
			name := fmt.Sprintf("T%d", i)
			var tab *relation.Relation
			if err := gen("sqlgen.TableauRelation", func() (err error) { tab, err = sqlgen.TableauRelation(c, name, genOpts); return }); err != nil {
				return nil, err
			}
			db.RegisterRelation(name, tab)
			var qc, qv string
			if err := gen("sqlgen.QC", func() (err error) { qc, err = sqlgen.QC(c, detect.DataTable, name, genOpts); return }); err != nil {
				return nil, err
			}
			rows, err := query(db, qc)
			if err != nil {
				return nil, err
			}
			for _, r := range rows {
				id, err := strconv.Atoi(r[0])
				if err != nil {
					return nil, err
				}
				consts[i][id] = true
			}
			if err := gen("sqlgen.QV", func() (err error) { qv, err = sqlgen.QV(c, detect.DataTable, name, genOpts); return }); err != nil {
				return nil, err
			}
			if rows, err = query(db, qv); err != nil {
				return nil, err
			}
			for _, r := range rows {
				addVar(i, append([]relation.Value(nil), r...))
			}
		}
	} else {
		var m *sqlgen.Merged
		if err := gen("sqlgen.Merge", func() (err error) { m, err = sqlgen.Merge(sigma, genOpts); return }); err != nil {
			return nil, err
		}
		db.RegisterRelation("TX", m.TX)
		db.RegisterRelation("TY", m.TY)
		var qc, qv string
		if err := gen("sqlgen.Merged.QC", func() (err error) { qc, err = m.QC(detect.DataTable, "TX", "TY", genOpts); return }); err != nil {
			return nil, err
		}
		rows, err := query(db, qc)
		if err != nil {
			return nil, err
		}
		for _, r := range rows {
			pid, err := strconv.Atoi(r[0])
			if err != nil {
				return nil, err
			}
			id, err := strconv.Atoi(r[1])
			if err != nil {
				return nil, err
			}
			consts[m.Rows[pid].CFD][id] = true
		}
		if err := gen("sqlgen.Merged.QV", func() (err error) { qv, err = m.QV(detect.DataTable, "TX", "TY", genOpts); return }); err != nil {
			return nil, err
		}
		if rows, err = query(db, qv); err != nil {
			return nil, err
		}
		// QVΣ columns: pid, then the union-X attributes; a CFD's
		// violating group is its own LHS projection of them.
		xPos := make(map[string]int, len(m.XAttrs))
		for i, a := range m.XAttrs {
			xPos[a] = i
		}
		for _, r := range rows {
			pid, err := strconv.Atoi(r[0])
			if err != nil {
				return nil, err
			}
			ci := m.Rows[pid].CFD
			key := make([]relation.Value, len(sigma[ci].LHS))
			for i, a := range sigma[ci].LHS {
				key[i] = r[1+xPos[a]]
			}
			addVar(ci, key)
		}
	}
	res := &detect.Result{PerCFD: make([]detect.CFDViolations, len(sigma))}
	for i := range sigma {
		v := &res.PerCFD[i]
		v.ConstTuples = slices.Sorted(maps.Keys(consts[i]))
		for _, k := range slices.Sorted(maps.Keys(vars[i])) {
			v.VariableKeys = append(v.VariableKeys, vars[i][k])
		}
	}
	return res, nil
}

// nestedLoops counts the nested-loop joins in the plans of the SQL jobs'
// queries: the per-CFD pairs through detect.Explain, the merged pairs
// through the engine's Explain.
func nestedLoops(prefix func(int) *relation.Relation, sigma []*core.CFD) (int, error) {
	n := 0
	for _, j := range detectJobs {
		in := prefix(j.tuples)
		var plans []string
		switch j.opts.Strategy {
		case detect.SQLPerCFD:
			for _, c := range sigma {
				p, err := detect.Explain(in, c, j.opts.Form)
				if err != nil {
					return 0, err
				}
				plans = append(plans, p)
			}
		case detect.SQLMerged:
			genOpts := sqlgen.Options{Form: j.opts.Form, IncludeRowid: true}
			m, err := sqlgen.Merge(sigma, genOpts)
			if err != nil {
				return 0, err
			}
			db := sqlmini.NewDB()
			db.RegisterRelation(detect.DataTable, in)
			db.RegisterRelation("TX", m.TX)
			db.RegisterRelation("TY", m.TY)
			for _, q := range []func(string, string, string, sqlgen.Options) (string, error){m.QC, m.QV} {
				text, err := q(detect.DataTable, "TX", "TY", genOpts)
				if err != nil {
					return 0, err
				}
				p, err := db.Explain(text)
				if err != nil {
					return 0, err
				}
				plans = append(plans, p)
			}
		}
		for _, p := range plans {
			n += strings.Count(p, "nested loop")
		}
	}
	return n, nil
}

func patternRows(sigma []*core.CFD) int {
	n := 0
	for _, c := range sigma {
		n += len(c.Tableau)
	}
	return n
}

func jobLabel(o detect.Options) string {
	if o.Strategy == detect.Direct {
		return "Direct"
	}
	return o.Strategy.String() + " " + o.Form.String()
}

// startHeapSampler polls the live heap every 10 ms until the returned
// function is called, which stops it and returns the peak in MB.
func startHeapSampler() func() float64 {
	const name = "/memory/classes/heap/objects:bytes"
	sample := []rtmetrics.Sample{{Name: name}}
	var peak uint64
	read := func() {
		rtmetrics.Read(sample)
		peak = max(peak, sample[0].Value.Uint64())
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				read()
				return
			case <-t.C:
				read()
			}
		}
	}()
	return func() float64 {
		close(stop)
		wg.Wait()
		return float64(peak) / (1 << 20)
	}
}
