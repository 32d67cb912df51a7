package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/incremental"
	"repro/internal/repair"
)

// monitor-routed: cfdrouter over two in-memory cfdserve groups, seeded
// through the router with a 20K-tuple tax instance, and one open-loop
// generator at a fixed rate mixing four request kinds on two lanes (one
// request in flight each): /v1/apply batches on the write lane; ETag-polled
// router /v1/violations, ?key= point reads on the owning node and
// router /v1/repairs?limit=50 on the read lane.

// The traffic's shape. The write share is the mixed load of
// docs/operations.md (cfdbench -serve -read-frac 0.9: 10% writes); the
// batch size is the specified ~16 ops. The rate, the split of reads among
// polls, point reads and repairs, the insert/update/delete split and the
// recent-key bias have no source in the repository: they are this
// benchmark's assumptions (see README.md).
const (
	routedRate      = 200 // requests per second, all kinds
	routedBatch     = 16  // ops per /v1/apply
	routedSeedBatch = 1000
	// routedLimitMs is the latency limit slo_miss_frac counts against.
	routedLimitMs = 50
	// minWriteChunk is the least chunk of write batches throughput_per_s
	// takes a median over (500 batches in a 25-s run).
	minWriteChunk = 50
)

// Request kinds, with their counts in every cycle of 20 requests: 10%
// writes, 40% polls, 40% point reads, 10% repairs.
const (
	kindWrite = iota
	kindPoll
	kindPoint
	kindRepairs
	numKinds
)

var kindCycle = [numKinds]int{2, 8, 8, 2}
var kindName = [numKinds]string{"write", "poll", "point", "repairs"}

var groupNames = []string{"g0", "g1"}

// schedule draws the run's requests: evenly spaced due times, and kinds
// in exact shares, shuffled within each cycle of kindCycle requests;
// writes go on lane 0 and reads on lane 1.
func schedule(seed int64, rate float64, dur time.Duration) [][]due {
	rng := rand.New(rand.NewSource(seed))
	var cycle []int
	for k, n := range kindCycle {
		for j := 0; j < n; j++ {
			cycle = append(cycle, k)
		}
	}
	lanes := make([][]due, 2)
	n := int(rate * dur.Seconds())
	for i := 0; i < n; i++ {
		if i%len(cycle) == 0 {
			rng.Shuffle(len(cycle), func(a, b int) { cycle[a], cycle[b] = cycle[b], cycle[a] })
		}
		k := cycle[i%len(cycle)]
		d := due{at: time.Duration(float64(i) / rate * float64(time.Second)), kind: k, seq: int64(i + 1)}
		lane := 1
		if k == kindWrite {
			lane = 0
		}
		lanes[lane] = append(lanes[lane], d)
	}
	return lanes
}

// routedWriter draws write batches: inserts, updates of any live key and
// deletes of keys inserted during the run, recent keys favoured, every
// key at most once per batch. Seed keys are never deleted, so point
// reads of them always find their tuple.
type routedWriter struct {
	gen     *opGen
	keys    *keySet // every live key
	runKeys *keySet // live keys inserted during the run
}

func newRoutedWriter(seed int64, in *serverInputs, seedKeys []int64) *routedWriter {
	w := &routedWriter{gen: newOpGen(seed, in.pool), keys: newKeySet(), runKeys: newKeySet()}
	for _, k := range seedKeys {
		w.keys.add(k)
	}
	return w
}

func (w *routedWriter) batch() []wireOp {
	ops := make([]wireOp, 0, routedBatch)
	used := make(map[int64]bool)
	pick := func(s *keySet) (int64, bool) {
		for try := 0; try < 4 && s.len() > 0; try++ {
			if k := s.pick(w.gen.rng, 0.7, 256); !used[k] {
				used[k] = true
				return k, true
			}
		}
		return 0, false
	}
	for len(ops) < routedBatch {
		r := w.gen.rng.Float64()
		switch {
		case r < 0.5:
			ops = append(ops, w.gen.insert())
		case r < 0.8:
			if k, ok := pick(w.keys); ok {
				ops = append(ops, w.gen.update(k))
			}
		default:
			if k, ok := pick(w.runKeys); ok {
				ops = append(ops, wireOp{Op: "delete", Key: &k})
			}
		}
	}
	return ops
}

// acked folds an acknowledged batch into the key sets.
func (w *routedWriter) acked(ops []wireOp, keys []int64) {
	for _, k := range keys {
		w.keys.add(k)
		w.runKeys.add(k)
	}
	for _, o := range ops {
		if o.Op == "delete" {
			w.keys.remove(*o.Key)
			w.runKeys.remove(*o.Key)
		}
	}
}

// routedCluster is one started router and its shard nodes.
type routedCluster struct {
	nodes  []*daemon // in groupNames order
	router *daemon
}

func (c *routedCluster) all() []*daemon { return append(append([]*daemon(nil), c.nodes...), c.router) }

func (c *routedCluster) nodeURL(group string) string {
	for i, g := range groupNames {
		if g == group {
			return c.nodes[i].url
		}
	}
	return ""
}

func runRouted(cfg *config, res *result) error {
	in, err := newServerInputs(cfg.seed)
	if err != nil {
		return err
	}
	emptyPath := filepath.Join(cfg.work, "empty.csv")
	cfdPath := filepath.Join(cfg.work, "cfds.txt")
	if err := os.WriteFile(emptyPath, headerCSV(), 0o644); err != nil {
		return err
	}
	if err := os.WriteFile(cfdPath, in.cfds, 0o644); err != nil {
		return err
	}
	sigma := gen.SemanticCFDs()
	ring, err := cluster.NewRing(0, groupNames...)
	if err != nil {
		return err
	}
	cl := newClient()
	defer cl.close()

	// Set up setupRuns times: launch both nodes and the router, seed
	// through the router, attach the suggesters (the first /v1/repairs
	// does), first write acknowledged. The last cluster serves the run.
	probe := newOpGen(cfg.seed*16+9, in.pool).insert()
	var setups []time.Duration
	var c *routedCluster
	var mod *model
	for i := 0; i < setupRuns; i++ {
		start := time.Now()
		c, mod, err = startCluster(cfg, i, emptyPath, cfdPath, cl, in, probe)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(start))
		if i < setupRuns-1 {
			stopAll(c.all())
		}
	}
	defer func() { stopAll(c.all()) }()

	seedKeys := mod.keys()
	w := newRoutedWriter(cfg.seed*16+1, in, seedKeys)
	lanes := [2]*client{newClient(), newClient()}
	defer lanes[0].close()
	defer lanes[1].close()
	readRng := rand.New(rand.NewSource(cfg.seed*16 + 2))
	var etag string
	var modErr error
	// Per acknowledged write batch of the phase, in order: the ops it
	// committed and the write lane's busy time for it (send to answer).
	var committed, writeBusy []float64
	send := func(tr *tracer) []func(d due) bool {
		write := func(d due) bool {
			ops := w.batch()
			id := tr.begin("client.write", 0, d.seq)
			var ack applyAck
			sent := time.Now()
			_, err := lanes[0].do("POST", c.router.url+"/v1/apply", applyBody{Ops: ops}, nil, &ack)
			busy := time.Since(sent).Seconds()
			tr.end(id)
			if err != nil {
				return false
			}
			committed = append(committed, float64(len(ops)))
			writeBusy = append(writeBusy, busy)
			if err := mod.apply(ops, ack.Keys); err != nil && modErr == nil {
				modErr = err
			}
			w.acked(ops, ack.Keys)
			return true
		}
		read := func(d due) bool {
			id := tr.begin("client."+kindName[d.kind], 0, d.seq)
			defer tr.end(id)
			switch d.kind {
			case kindPoll:
				hdr := map[string]string{}
				if etag != "" {
					hdr["If-None-Match"] = etag
				}
				resp, err := lanes[1].do("GET", c.router.url+"/v1/violations", nil, hdr, nil)
				if err == nil && resp.Header.Get("ETag") != "" {
					etag = resp.Header.Get("ETag")
				}
				return err == nil
			case kindPoint:
				key := seedKeys[readRng.Intn(len(seedKeys))]
				_, err := lanes[1].do("GET", fmt.Sprintf("%s/v1/violations?key=%d", c.nodeURL(ring.Owner(key)), key), nil, nil, nil)
				return err == nil
			default:
				_, err := lanes[1].do("GET", c.router.url+"/v1/repairs?limit=50", nil, nil, nil)
				return err == nil
			}
		}
		return []func(d due) bool{write, read}
	}
	// phase runs one open-loop stretch.
	phase := func(dur time.Duration, seed int64, tr *tracer) (lats [numKinds]*lat, late *lat) {
		for k := range lats {
			lats[k] = &lat{limitMs: routedLimitMs}
		}
		late = &lat{}
		committed, writeBusy = nil, nil
		start := time.Now()
		openLoop(start, schedule(seed, routedRate, dur), start.Add(dur+10*time.Second), lats[:], late, send(tr))
		return lats, late
	}

	total := time.Duration(cfg.seconds * float64(time.Second))
	var before, after []metrics
	scrapeAll := func() ([]metrics, error) {
		var out []metrics
		for _, d := range c.all() {
			m, err := cl.scrape(d.url)
			if err != nil {
				return nil, err
			}
			out = append(out, m)
		}
		return out, nil
	}
	var lats [numKinds]*lat
	var late *lat
	measured := total
	phase(warmup, cfg.seed*16+5, nil)
	if cfg.trace {
		measured = total / 2
		plain, _ := phase(measured, cfg.seed*16+3, nil)
		if before, err = scrapeAll(); err != nil {
			return err
		}
		lats, late = phase(measured, cfg.seed*16+4, res.tr)
		all := merge(routedLimitMs, lats[:]...).summary()
		res.layers["trace.overhead_frac"] = all.p50/merge(routedLimitMs, plain[:]...).summary().p50 - 1
	} else {
		if before, err = scrapeAll(); err != nil {
			return err
		}
		lats, late = phase(total, cfg.seed*16+3, nil)
	}
	if after, err = scrapeAll(); err != nil {
		return err
	}
	if modErr != nil {
		return modErr
	}
	rss := 0.0
	for _, d := range c.all() {
		mb, err := d.peakRSSMB()
		if err != nil {
			return err
		}
		rss += mb
	}

	allLat := merge(routedLimitMs, lats[:]...)
	all := allLat.summary()
	wp50, wp90, chunks := allLat.windowed(minChunk)
	wr := lats[kindWrite].summary()
	reads := merge(routedLimitMs, lats[kindPoll], lats[kindPoint]).summary()
	rep := lats[kindRepairs].summary()
	lt := late.summary()
	res.attempted, res.failed = all.attempted, all.failed
	res.e2e["setup_s"] = medianSeconds(setups)
	// The offered write rate is fixed, so ops per second of wall time
	// would only move once a backlog forms; ops per second of the write
	// lane's busy time moves with the cost of every write.
	wrate, wchunks := busyRate(committed, writeBusy, minWriteChunk)
	res.e2e["throughput_per_s"] = wrate
	res.e2e["p50_ms"] = wp50
	res.e2e["p90_ms"] = wp90
	res.e2e["rss_mb"] = rss
	res.layers["driver.late_p99_ms"] = lt.tail
	res.printf("workload monitor-routed: cfdrouter over %d in-memory cfdserve groups, %d-tuple seed, open loop at %d req/s (%d writes, %d polls, %d point reads, %d repairs per 20), %.0fs",
		len(groupNames), seedTuples, routedRate, kindCycle[kindWrite], kindCycle[kindPoll], kindCycle[kindPoint], kindCycle[kindRepairs], measured.Seconds())
	res.printf("setup_s %.4f s (median of %d: launch, seed through the router, suggester attach, first write acknowledged)", res.e2e["setup_s"], len(setups))
	res.printf("write_ops_per_s %.1f 1/s (ops committed per second of write-lane busy time, send to answer; median over %d chunks of >= %d batches of %d ops; offered %d ops/s)",
		wrate, wchunks, minWriteChunk, routedBatch, routedRate*kindCycle[kindWrite]/20*routedBatch)
	res.class("write", wr)
	res.class("read", reads)
	res.class("repairs", rep)
	res.class("all", all)
	res.printf("p50_ms %.4f ms, p90_ms %.4f ms (all kinds; medians over %d chunks of >= %d requests in completion order)", wp50, wp90, chunks, minChunk)
	res.printf("slo_miss_frac %.6f (limit %d ms, timed from due)", all.sloMissFrac, routedLimitMs)
	res.printf("error_frac %.6f", all.errorFrac)
	res.printf("driver.late_p99_ms %.4f ms (p50 %.4f ms, n=%d)", lt.tail, lt.p50, lt.n)
	res.printf("rss_mb %.1f MB (peak RSS summed over router and nodes)", rss)

	if err := checkCluster(res, cl, c, ring, mod, sigma); err != nil {
		return err
	}
	if cfg.trace {
		routedLayers(res, before, after, wr, lats[kindPoll].summary())
		if err := replayRouted(cfg, res, in, sigma); err != nil {
			return err
		}
	}
	return nil
}

// startCluster launches the nodes and the router, seeds the instance
// through the router, attaches the suggesters and has one write
// acknowledged. It returns the model of what the cluster holds.
func startCluster(cfg *config, i int, emptyPath, cfdPath string, cl *client, in *serverInputs, probe wireOp) (*routedCluster, *model, error) {
	c := &routedCluster{}
	fail := func(err error) (*routedCluster, *model, error) {
		stopAll(c.all())
		return nil, nil, err
	}
	args := []string{"-http", "127.0.0.1:0", "-log-level", "warn"}
	for _, g := range groupNames {
		d, err := startDaemon("cfdserve "+g, filepath.Join(cfg.bin, "cfdserve"),
			append([]string{"-data", emptyPath, "-cfds", cfdPath}, args...),
			filepath.Join(cfg.work, fmt.Sprintf("cfdserve-%s-%d.log", g, i)))
		if err != nil {
			return fail(err)
		}
		c.nodes = append(c.nodes, d)
	}
	rargs := append([]string(nil), args...)
	for j, g := range groupNames {
		rargs = append(rargs, "-shard", g+"="+c.nodes[j].url)
	}
	d, err := startDaemon("cfdrouter", filepath.Join(cfg.bin, "cfdrouter"), rargs, filepath.Join(cfg.work, fmt.Sprintf("cfdrouter-%d.log", i)))
	if err != nil {
		return fail(err)
	}
	c.router = d
	mod := newModel(nil)
	for lo := 0; lo < len(in.seed); lo += routedSeedBatch {
		hi := min(lo+routedSeedBatch, len(in.seed))
		ops := make([]wireOp, 0, hi-lo)
		for _, t := range in.seed[lo:hi] {
			ops = append(ops, wireOp{Op: "insert", Values: t})
		}
		if err := routedApply(cl, c.router.url, ops, mod); err != nil {
			return fail(fmt.Errorf("seed: %w", err))
		}
	}
	if _, err := cl.do("GET", c.router.url+"/v1/repairs?limit=50", nil, nil, nil); err != nil {
		return fail(fmt.Errorf("suggester attach: %w", err))
	}
	if err := routedApply(cl, c.router.url, []wireOp{probe}, mod); err != nil {
		return fail(fmt.Errorf("setup write: %w", err))
	}
	return c, mod, nil
}

func routedApply(cl *client, url string, ops []wireOp, mod *model) error {
	var ack applyAck
	if _, err := cl.do("POST", url+"/v1/apply", applyBody{Ops: ops}, nil, &ack); err != nil {
		return err
	}
	return mod.apply(ops, ack.Keys)
}

// checkCluster compares every group's tuple and violation counts with
// Direct detection over the model's tuples that group owns. Variable
// violations are detected within a group (see cmd/cfdrouter), so the
// oracle partitions the model by the same ring.
func checkCluster(res *result, cl *client, c *routedCluster, ring *cluster.Ring, mod *model, sigma []*core.CFD) error {
	keys := mod.keys()
	agree := 0
	for i := 0; i < 32; i++ {
		k := keys[i*len(keys)/32]
		var ans struct {
			Owner string `json:"owner"`
		}
		if _, err := cl.do("GET", fmt.Sprintf("%s/v1/ring?key=%d", c.router.url, k), nil, nil, &ans); err != nil {
			return err
		}
		if ans.Owner == ring.Owner(k) {
			agree++
		}
	}
	res.check(agree == 32, "the router's ring agrees with the oracle's on %d of 32 keys", agree)
	for _, g := range groupNames {
		var st nodeStats
		if _, err := cl.do("GET", c.nodeURL(g)+"/v1/stats", nil, nil, &st); err != nil {
			return err
		}
		part := mod.relation(func(k int64) bool { return ring.Owner(k) == g })
		want, err := violationCount(part, sigma)
		if err != nil {
			return err
		}
		res.check(st.Tuples == part.Len(), "group %s: /v1/stats tuples %d, acknowledged writes imply %d", g, st.Tuples, part.Len())
		res.check(st.Violations == want, "group %s: /v1/stats violations %d, Direct detection over its part of the model %d", g, st.Violations, want)
	}
	return nil
}

// routedLayers fills the HTTP and monitor layer metrics from the
// scrapes (router last, nodes in groupNames order).
func routedLayers(res *result, before, after []metrics, wr, poll summary) {
	nb, na := pooled(before[:len(groupNames)]...), pooled(after[:len(groupNames)]...)
	rb, ra := before[len(groupNames)], after[len(groupNames)]
	h := func(b, a metrics, name, path string) float64 {
		m, _ := histMean(b, a, name, pathLabel(path))
		return m * us
	}
	res.layers["cfdserve.apply_handler_us"] = h(nb, na, "cfdserve_http_request_seconds", "/v1/apply")
	res.layers["cfdserve.read_handler_us"] = h(nb, na, "cfdserve_http_request_seconds", "/v1/violations")
	res.layers["cfdserve.repairs_handler_us"] = h(nb, na, "cfdserve_http_request_seconds", "/v1/repairs")
	res.layers["cfdrouter.apply_handler_us"] = h(rb, ra, "cfdrouter_http_request_seconds", "/v1/apply")
	res.layers["cfdrouter.read_handler_us"] = h(rb, ra, "cfdrouter_http_request_seconds", "/v1/violations")
	res.layers["cfdrouter.repairs_handler_us"] = h(rb, ra, "cfdrouter_http_request_seconds", "/v1/repairs")
	slowest := 0.0
	for i := range groupNames {
		slowest = max(slowest, h(before[i], after[i], "cfdserve_http_request_seconds", "/v1/apply"))
	}
	res.layers["cfdrouter.self_us"] = res.layers["cfdrouter.apply_handler_us"] - slowest
	applyStages(res, nb, na)
	if fullReads := float64(poll.n * len(groupNames)); fullReads > 0 {
		res.layers["incremental.view_rebuilds_per_read"] = delta(nb, na, "cfd_violations_view_rebuilds_total") / fullReads
	}
	if refreshes := delta(nb, na, "cfd_suggester_refresh_seconds_count"); refreshes > 0 {
		res.layers["repair.replanned_per_refresh"] = delta(nb, na, "cfd_suggester_replanned_total") / refreshes
	}
	p50 := wr.p50 * 1e3
	res.layers["client.unaccounted_us"] = p50 - res.layers["cfdrouter.apply_handler_us"]
	l := res.layers
	budget(res, "write path (means per request)", p50, [][2]any{
		{"cfdrouter.self (vs slowest node)", l["cfdrouter.self_us"]},
		{"cfdserve handler (slowest node)", slowest - l["incremental.apply_us"]},
		{"incremental.validate", l["incremental.validate_us"]},
		{"incremental.shard_apply", l["incremental.shard_apply_us"]},
		{"incremental.apply other", l["incremental.journal_wait_us"]},
	})
	res.printf("poll path: client p50 %.1f us, cfdrouter /v1/violations handler %.1f us (two node reads in series, %.1f us each on average incl. point reads)",
		poll.p50*1e3, l["cfdrouter.read_handler_us"], l["cfdserve.read_handler_us"])
}

// replayRouted replays the traced phase's request stream in-process
// under spans: the writes through cluster.Router.Apply over two local
// monitors, polls as Monitor.View on both, point reads as
// Monitor.ViolationsFor on the owner, repairs as Suggester.Refresh on
// both. The seed build gives incremental.load_s, the first attach
// repair.attach_ms.
func replayRouted(cfg *config, res *result, in *serverInputs, sigma []*core.CFD) error {
	tr := res.tr
	ctx := context.Background()
	mons := make(map[string]*incremental.Monitor)
	var groups []cluster.GroupConfig
	for _, g := range groupNames {
		m, err := incremental.New(taxSchema, sigma, incremental.Options{})
		if err != nil {
			return err
		}
		mons[g] = m
		groups = append(groups, cluster.GroupConfig{Name: g, Primary: &cluster.LocalBackend{M: m}})
	}
	rt, err := cluster.NewRouter(ctx, groups, cluster.Options{})
	if err != nil {
		return err
	}
	start := time.Now()
	var seedKeys []int64
	for lo := 0; lo < len(in.seed); lo += routedSeedBatch {
		var cs incremental.ChangeSet
		for _, t := range in.seed[lo:min(lo+routedSeedBatch, len(in.seed))] {
			cs.Insert(t)
		}
		root := tr.begin("replay.seed", 0, 0)
		tr.do("cluster.Router.Apply", root, 0, func(int) { _, err = rt.Apply(ctx, &cs) })
		tr.end(root)
		if err != nil {
			return fmt.Errorf("replay seed: %w", err)
		}
		for _, op := range cs.Ops {
			seedKeys = append(seedKeys, op.Key)
		}
	}
	res.layers["incremental.load_s"] = time.Since(start).Seconds()
	sugs := make(map[string]*repair.Suggester)
	start = time.Now()
	for _, g := range groupNames {
		tr.do("repair.NewSuggester", 0, 0, func(int) { sugs[g], err = repair.NewSuggester(mons[g], repair.SuggestOptions{}) })
		if err != nil {
			return err
		}
		defer sugs[g].Close()
	}
	res.layers["repair.attach_ms"] = float64(time.Since(start)) / float64(time.Millisecond)

	w := newRoutedWriter(cfg.seed*16+1, in, seedKeys)
	readRng := rand.New(rand.NewSource(cfg.seed*16 + 2))
	lanes := schedule(cfg.seed*16+3, routedRate, time.Duration(cfg.seconds*float64(time.Second)))
	reqs := append(append([]due(nil), lanes[0]...), lanes[1]...)
	sortDue(reqs)
	var apply, view, point, refresh spanStat
	timed := func(st *spanStat, name string, parent int, req int64, f func()) {
		t0 := time.Now()
		tr.do(name, parent, req, func(int) { f() })
		st.Count++
		st.Total += time.Since(t0)
	}
	deadline := time.Now().Add(replayBudget(cfg))
	for _, d := range reqs {
		if time.Now().After(deadline) {
			break
		}
		root := tr.begin("replay."+kindName[d.kind], 0, -d.seq)
		switch d.kind {
		case kindWrite:
			ops := w.batch()
			cs := toChangeSet(ops)
			var err error
			timed(&apply, "cluster.Router.Apply", root, -d.seq, func() { _, err = rt.Apply(ctx, cs) })
			if err != nil {
				return fmt.Errorf("replay: %w", err)
			}
			var keys []int64
			for _, op := range cs.Ops {
				if op.Kind == incremental.OpInsert {
					keys = append(keys, op.Key)
				}
			}
			w.acked(ops, keys)
		case kindPoll:
			for _, g := range groupNames {
				timed(&view, "incremental.Monitor.View", root, -d.seq, func() { _ = mons[g].View().State() })
			}
		case kindPoint:
			key := seedKeys[readRng.Intn(len(seedKeys))]
			timed(&point, "incremental.Monitor.ViolationsFor", root, -d.seq, func() { mons[rt.Owner(key)].ViolationsFor(key) })
		default:
			for _, g := range groupNames {
				timed(&refresh, "repair.Suggester.Refresh", root, -d.seq, func() { sugs[g].Refresh() })
			}
		}
		tr.end(root)
	}
	res.layers["cluster.router_apply_us"] = apply.meanUs()
	res.layers["incremental.view_read_us"] = view.meanUs()
	res.layers["incremental.point_read_us"] = point.meanUs()
	res.layers["repair.refresh_us"] = refresh.meanUs()
	return nil
}

func sortDue(ds []due) {
	sort.Slice(ds, func(i, j int) bool { return ds[i].at < ds[j].at })
}
