package main

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/incremental"
	"repro/internal/relation"
)

// ingest-durable: one cfdserve with the durable defaults (-wal-dir,
// -fsync; group commit off, a snapshot every 10k records) seeded with a
// 20K-tuple tax instance, and two closed-loop clients each posting one
// op per /v1/apply: ~80% inserts, ~20% updates, ~5% dirty values.

const (
	ingestClients    = 2
	ingestInsertFrac = 0.8
	// ingestRSSAt is the acknowledged-write count at which rss_mb is
	// read: ~10 s of writes on a 2-core box, warm-up included. A run
	// that has not reached it when the timed phase ends keeps writing,
	// untimed, until it has.
	ingestRSSAt = 40000
	// ingestRSSWait caps that untimed top-up.
	ingestRSSWait = 60 * time.Second
)

// writeLimitMs is the latency limit slo_miss_frac counts against on the
// ingest workload.
const writeLimitMs = 10

func runIngest(cfg *config, res *result) error {
	in, err := newServerInputs(cfg.seed)
	if err != nil {
		return err
	}
	csvPath := filepath.Join(cfg.work, "seed.csv")
	cfdPath := filepath.Join(cfg.work, "cfds.txt")
	if err := os.WriteFile(csvPath, in.csv, 0o644); err != nil {
		return err
	}
	if err := os.WriteFile(cfdPath, in.cfds, 0o644); err != nil {
		return err
	}
	sigma := gen.SemanticCFDs()
	walDir := filepath.Join(cfg.work, "wal")
	args := []string{"-data", csvPath, "-cfds", cfdPath, "-wal-dir", walDir, "-fsync", "-http", "127.0.0.1:0", "-log-level", "warn"}
	cl := newClient()
	defer cl.close()

	// Set up setupRuns times on fresh WAL directories: launch, seed
	// load and snapshot, first write acknowledged. The last instance
	// serves the run.
	firstOp := newOpGen(cfg.seed*16+9, in.pool).insert()
	var setups []time.Duration
	var d *daemon
	var firstKeys []int64
	for i := 0; i < setupRuns; i++ {
		if err := os.RemoveAll(walDir); err != nil {
			return err
		}
		start := time.Now()
		d, err = startDaemon("cfdserve", filepath.Join(cfg.bin, "cfdserve"), args, filepath.Join(cfg.work, fmt.Sprintf("cfdserve-%d.log", i)))
		if err != nil {
			return err
		}
		var ack applyAck
		if _, err := cl.do("POST", d.url+"/v1/apply", applyBody{Ops: []wireOp{firstOp}}, nil, &ack); err != nil {
			d.stop()
			return fmt.Errorf("setup write: %w", err)
		}
		setups = append(setups, time.Since(start))
		firstKeys = ack.Keys
		if i < setupRuns-1 {
			d.stop()
		}
	}
	defer func() { stopAll([]*daemon{d}) }()
	mod := newModel(in.seed)
	if err := mod.apply([]wireOp{firstOp}, firstKeys); err != nil {
		return err
	}

	// Each client owns the seed keys of its parity plus its own inserts,
	// so the two never race on a key and the model's order is the
	// server's.
	probe := &rssProbe{d: d, target: ingestRSSAt}
	clients := make([]*ingestClient, ingestClients)
	for c := range clients {
		ks := newKeySet()
		for k := c; k < seedTuples; k += ingestClients {
			ks.add(int64(k))
		}
		g := newOpGen(cfg.seed*16+int64(c), in.pool)
		g.next = c * poolTuples / ingestClients
		clients[c] = &ingestClient{cl: newClient(), gen: g, keys: ks, mod: mod, url: d.url, probe: probe}
		defer clients[c].cl.close()
	}
	phase := func(dur time.Duration, tr *tracer) (*lat, time.Duration) {
		w := &lat{limitMs: writeLimitMs}
		deadline := time.Now().Add(dur)
		start := time.Now()
		var wg sync.WaitGroup
		for _, c := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				closedLoop(deadline, w, func() bool { return c.send(tr) })
			}()
		}
		wg.Wait()
		return w, time.Since(start)
	}

	total := time.Duration(cfg.seconds * float64(time.Second))
	var before, after metrics
	var w *lat
	var window time.Duration
	phase(warmup, nil)
	if cfg.trace {
		plain, _ := phase(total/2, nil)
		if before, err = cl.scrape(d.url); err != nil {
			return err
		}
		w, window = phase(total/2, res.tr)
		res.layers["trace.overhead_frac"] = w.summary().p50/plain.summary().p50 - 1
	} else {
		if before, err = cl.scrape(d.url); err != nil {
			return err
		}
		w, window = phase(total, nil)
	}
	s := w.summary()
	wp50, wp90, chunks := w.windowed(minChunk)
	if after, err = cl.scrape(d.url); err != nil {
		return err
	}
	for end := time.Now().Add(ingestRSSWait); !probe.done() && time.Now().Before(end); {
		phase(time.Second, nil)
	}
	rss, err := probe.result()
	if err != nil {
		return err
	}
	for _, c := range clients {
		if c.err != nil {
			return c.err
		}
	}

	res.attempted, res.failed = s.attempted, s.failed
	res.e2e["setup_s"] = medianSeconds(setups)
	res.e2e["throughput_per_s"] = float64(s.n) / window.Seconds()
	res.e2e["p50_ms"] = wp50
	res.e2e["p90_ms"] = wp90
	res.e2e["rss_mb"] = rss
	res.printf("workload ingest-durable: cfdserve -wal-dir -fsync, %d-tuple seed, %d closed-loop clients, %.0fs", seedTuples, ingestClients, window.Seconds())
	res.printf("setup_s %.4f s (median of %d: launch, seed load, first write acknowledged)", res.e2e["setup_s"], len(setups))
	res.printf("write_ops_per_s %.1f 1/s (ops committed)", res.e2e["throughput_per_s"])
	res.class("write", s)
	res.printf("p50_ms %.4f ms, p90_ms %.4f ms (medians over %d chunks of >= %d writes in completion order)", wp50, wp90, chunks, minChunk)
	res.printf("slo_miss_frac %.6f (limit %d ms)", s.sloMissFrac, writeLimitMs)
	res.printf("error_frac %.6f", s.errorFrac)
	res.printf("rss_mb %.1f MB (cfdserve peak RSS at %d acknowledged writes)", rss, ingestRSSAt)

	if err := checkNode(res, cl, d.url, mod, sigma, "after run"); err != nil {
		return err
	}

	// Durability, outside the timed phase: SIGKILL, restart on the same
	// WAL directory, and every acknowledged write must be there.
	d.kill()
	start := time.Now()
	d, err = startDaemon("cfdserve", filepath.Join(cfg.bin, "cfdserve"), args, filepath.Join(cfg.work, "cfdserve-restart.log"))
	if err != nil {
		return fmt.Errorf("restart after SIGKILL: %w", err)
	}
	if _, err := cl.do("GET", d.url+"/v1/stats", nil, nil, nil); err != nil {
		return fmt.Errorf("restart after SIGKILL: %w", err)
	}
	restart := time.Since(start)
	res.layers["incremental.recover_s"] = restart.Seconds()
	res.printf("incremental.recover_s %.4f s (SIGKILL to serving again)", restart.Seconds())
	if err := checkNode(res, cl, d.url, mod, sigma, "after SIGKILL and restart"); err != nil {
		return err
	}
	d.stop()
	if err := checkWAL(res, walDir, sigma, mod); err != nil {
		return err
	}
	d = nil

	if cfg.trace {
		ingestLayers(res, before, after, s)
		if err := replayIngest(cfg, res, in, sigma); err != nil {
			return err
		}
	}
	return nil
}

type applyBody struct {
	Ops []wireOp `json:"ops"`
}

type applyAck struct {
	Ops  int     `json:"ops"`
	Keys []int64 `json:"keys"`
}

// ingestClient is one closed-loop writer.
type ingestClient struct {
	cl    *client
	gen   *opGen
	keys  *keySet
	mod   *model
	url   string
	probe *rssProbe
	seq   int64
	err   error // a model inconsistency: the run cannot be checked
}

// rssProbe reads the server's peak RSS when the acknowledged writes
// reach target. The instance grows with every insert, so a fixed amount
// of work, not the run's end, makes the figure comparable between a
// faster and a slower build.
type rssProbe struct {
	d      *daemon
	target int64
	acked  atomic.Int64
	mb     float64
	err    error
}

func (p *rssProbe) ack() {
	if p.acked.Add(1) == p.target {
		p.mb, p.err = p.d.peakRSSMB()
	}
}

func (p *rssProbe) done() bool { return p.acked.Load() >= p.target }

// result is the reading at target; a run that never got there has none.
func (p *rssProbe) result() (float64, error) {
	if !p.done() {
		return 0, fmt.Errorf("rss_mb: %d writes acknowledged, %d needed", p.acked.Load(), p.target)
	}
	return p.mb, p.err
}

// nextOp draws the client's next op: an insert, or an update of one of
// its keys, recent ones favoured.
func nextIngestOp(g *opGen, keys *keySet) wireOp {
	if g.rng.Float64() < ingestInsertFrac {
		return g.insert()
	}
	return g.update(keys.pick(g.rng, 0.5, 256))
}

func (c *ingestClient) send(tr *tracer) bool {
	op := nextIngestOp(c.gen, c.keys)
	c.seq++
	id := tr.begin("client.apply", 0, c.seq)
	var ack applyAck
	ops := []wireOp{op}
	_, err := c.cl.do("POST", c.url+"/v1/apply", applyBody{Ops: ops}, nil, &ack)
	tr.end(id)
	if err != nil {
		return false
	}
	if err := c.mod.apply(ops, ack.Keys); err != nil && c.err == nil {
		c.err = err
	}
	for _, k := range ack.Keys {
		c.keys.add(k)
	}
	c.probe.ack()
	return true
}

// nodeStats is the part of GET /v1/stats the checks read.
type nodeStats struct {
	Tuples     int `json:"tuples"`
	Violations int `json:"violations"`
}

// checkNode compares a node's tuple and violation counts with Direct
// detection over the model.
func checkNode(res *result, cl *client, url string, mod *model, sigma []*core.CFD, when string) error {
	var st nodeStats
	if _, err := cl.do("GET", url+"/v1/stats", nil, nil, &st); err != nil {
		return err
	}
	want, err := violationCount(mod.relation(nil), sigma)
	if err != nil {
		return err
	}
	res.check(st.Tuples == mod.len(), "%s: /v1/stats tuples %d, acknowledged writes imply %d", when, st.Tuples, mod.len())
	res.check(st.Violations == want, "%s: /v1/stats violations %d, Direct detection over the model %d", when, st.Violations, want)
	return nil
}

// checkWAL opens the WAL directory in-process and compares every tuple
// with the model: each acknowledged write must be there, and nothing
// else.
func checkWAL(res *result, dir string, sigma []*core.CFD, mod *model) error {
	m, err := incremental.Open(sigma, incremental.Options{Durable: dir})
	if err != nil {
		return fmt.Errorf("open WAL directory: %w", err)
	}
	defer m.Close()
	missing := 0
	for _, k := range mod.keys() {
		want, _ := mod.get(k)
		got, ok := m.Get(k)
		if !ok || !slices.Equal(got, want) {
			missing++
		}
	}
	res.check(missing == 0 && m.Len() == mod.len(), "WAL holds every acknowledged write: %d of %d tuples differ, %d stored", missing, mod.len(), m.Len())
	return nil
}

// toChangeSet converts wire ops to the library's ChangeSet.
func toChangeSet(ops []wireOp) *incremental.ChangeSet {
	var cs incremental.ChangeSet
	for _, o := range ops {
		switch o.Op {
		case "insert":
			cs.Insert(relation.Tuple(o.Values))
		case "update":
			cs.Update(*o.Key, o.Attr, o.Value)
		case "delete":
			cs.Delete(*o.Key)
		}
	}
	return &cs
}

// replayIngest replays client 0's op stream in-process through a durable
// Monitor (fsync on, as the daemon runs), under spans: the seed build
// gives incremental.load_s, and Monitor.Apply's own cost shows without
// HTTP around it.
func replayIngest(cfg *config, res *result, in *serverInputs, sigma []*core.CFD) error {
	tr := res.tr
	rel := relation.New(taxSchema)
	rel.Tuples = in.seed
	opts := incremental.Options{Durable: filepath.Join(cfg.work, "replay-wal"), Fsync: true, SnapshotEvery: 10000}
	start := time.Now()
	var m *incremental.Monitor
	var err error
	tr.do("incremental.Load", 0, 0, func(int) { m, err = incremental.Load(rel, sigma, opts) })
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	defer m.Close()
	res.layers["incremental.load_s"] = time.Since(start).Seconds()

	g := newOpGen(cfg.seed*16, in.pool)
	keys := newKeySet()
	for k := 0; k < seedTuples; k += ingestClients {
		keys.add(int64(k))
	}
	deadline := time.Now().Add(replayBudget(cfg))
	for seq := int64(1); time.Now().Before(deadline); seq++ {
		op := nextIngestOp(g, keys)
		root := tr.begin("replay.write", 0, -seq)
		cs := toChangeSet([]wireOp{op})
		var err error
		tr.do("incremental.Monitor.Apply", root, -seq, func(int) { _, err = m.Apply(cs) })
		tr.end(root)
		if err != nil {
			return fmt.Errorf("replay: %w", err)
		}
		if cs.Ops[0].Kind == incremental.OpInsert {
			keys.add(cs.Ops[0].Key)
		}
	}
	return nil
}

// replayBudget bounds a traced run's in-process replay.
func replayBudget(cfg *config) time.Duration {
	return time.Duration(min(3, cfg.seconds/4) * float64(time.Second))
}
