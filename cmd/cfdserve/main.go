// Command cfdserve turns the incremental Monitor into a long-lived
// service: it loads a CSV instance and a CFD set once, then accepts
// tuple-level changes and violation queries over an HTTP/JSON API —
// every write answered with the exact violation delta it caused. For
// stream ingest from a file or stdin without a server, use
// cfddetect -watch.
//
// Usage:
//
//	cfdserve -data tax.csv -cfds cfds.txt -http :8080
//	cfdserve -data tax.csv -cfds cfds.txt -http :8080 -wal-dir /var/lib/cfd
//	cfdserve -data tax.csv -cfds cfds.txt -http :8080 -wal-dir /var/lib/cfd \
//	         -fsync -group-commit-ops 512                # durable + group commit
//	cfdserve -cfds cfds.txt -http :8081 -wal-dir /var/lib/cfd2 \
//	         -follow http://primary:8080                 # hot standby
//	cfdserve -data tax.csv -cfds cfds.txt -http :8080 \
//	         -pprof-addr localhost:6060 -log-level debug -log-json
//
// See docs/operations.md for the full runbook: topology recipes,
// promotion/failover procedure, the metrics catalog and tuning.
//
// With -wal-dir the node is durable: every accepted change is appended to
// a write-ahead log before it is applied, background snapshots bound the
// log, and a restart recovers the last acknowledged state from the
// directory — the CSV is only read on the very first boot. SIGTERM/SIGINT
// shut the server down gracefully: in-flight HTTP responses are flushed
// (http.Server.Shutdown), a final snapshot is taken and the journal is
// synced before the process exits.
//
// A durable node ships its WAL: GET /v1/wal/snapshot streams the newest
// snapshot image and GET /v1/wal/stream serves record-aligned segment
// chunks — closed segments (keep some with -retain-segments so a
// briefly-disconnected follower can resume instead of resyncing) and the
// flushed live tail. With -follow <primary-url> the node runs as a hot
// standby instead: it tails the primary's stream into its own -wal-dir,
// serves /v1/violations, /v1/stats and /v1/discover from the replicated
// state, refuses mutations (409 with an explanatory error), and reports
// its replication lag under "replica" in /v1/stats. POST /v1/promote — or
// -promote-after, which does it automatically once the primary has been
// unreachable for that long — flips the standby into a writable primary
// at the exact record boundary it has applied; a follower restart
// resumes from its local snapshot + log tail, and a follower whose
// cursor fell below the primary's retention window resyncs from the
// current snapshot automatically. In follow mode -data is not used.
//
// HTTP API (JSON). Every endpoint lives under the /v1 prefix (see the
// versioning policy in docs/operations.md); any other path answers 404.
//
//	POST /v1/insert  {"values": ["01","908",...]}    → {"key": K, "delta": {...}}
//	POST /v1/delete  {"key": 3}                      → {"delta": {...}}
//	POST /v1/update  {"key": 3, "attr": "CT", "value": "NYC"}
//	POST /v1/apply   {"ops": [{"op":"insert","values":[...]},
//	               {"op":"insert","key":7,"values":[...]},   (keyed: router-owned key spaces)
//	               {"op":"update","key":3,"attr":"CT","value":"NYC"},
//	               {"op":"delete","key":4}, ...]}    → {"keys": [K,...], "delta": {...}}
//	POST /v1/snapshot                                → {"generation": N} (admin; durable mode)
//	POST /v1/promote                                 → {"promoted": true, "epoch": E, ...} (follow mode)
//	POST /v1/fence   {"epoch": E}                    → {"epoch": ..., "fenced": true/false} (admin)
//	GET  /v1/violations                              → the live set (paginated, ETag "v<version>")
//	GET  /v1/repairs                                 → live cost-ranked repair suggestions
//	                                                   (paginated, ETag "r<version>"; ?trust_threshold=F
//	                                                   wires the streaming miner as the trust source)
//	POST /v1/repairs/apply {"ids": ["c0:3",...]}     → applies accepted suggestions as one ChangeSet
//	GET  /v1/stats                                   → {"tuples":N,...,"epoch":E,"role":"primary",...}
//	GET  /v1/metrics                                 → Prometheus text exposition of the node's metrics
//	GET  /v1/discover                                → the streaming miner's current CFD set
//	GET  /v1/wal/snapshot                            → snapshot image (binary; X-Wal-Seq header)
//	GET  /v1/wal/stream?from=SEQ,OFF[&max=BYTES]     → framed WAL records (binary; X-Wal-* headers,
//	                                                   X-Wal-Epoch carries the fencing epoch)
//
// Errors: every endpoint answers failures with the uniform envelope
// {"error": {"code": "...", "message": "...", "epoch": E?}} — among the
// codes, "fenced" (403, with the node's current epoch), "read_only"
// (409, the node is a standby), "stale_cursor" (410, the paginated set
// changed under the cursor) and "not_found" (404, unknown key or
// suggestion id, or a path outside /v1) are machine-dispatched by
// routers and clients; the rest ("bad_request", "method_not_allowed",
// "conflict", "too_large" for a body over 32 MiB, "internal") classify
// the failure.
//
// GET /v1/repairs serves the live repair suggester (see WatchRepairs):
// the first call attaches it to the monitor's violation-delta and
// group-statistics feeds (one full planning pass); every later call
// re-plans only the violations the interleaving writes touched.
// Suggestions are cost-ranked; POST /v1/repairs/apply turns accepted
// ids into an ordinary fenced ChangeSet through the same apply path as
// POST /v1/apply. With ?trust_threshold=F the streaming miner becomes
// the suggester's trust source: a CFD whose live confidence falls below
// F suggests constraint relaxation instead of data edits.
//
// Fencing: every mutation may carry an X-Cfd-Epoch header stamping the
// epoch the caller believes this node's history is at (routers do; see
// cmd/cfdrouter). A mismatch is refused with 403 and {"error":{"code":
// "fenced", "epoch": E}} — the node either was deposed by a promotion
// (its epoch is lower than the cluster's) or has already moved past the
// caller's stale token.
// POST /v1/promote durably bumps the epoch before the first write is
// accepted, and followers refuse /v1/wal/stream chunks whose X-Wal-Epoch
// is below their own — a deposed primary cannot ship a forked history.
//
// Observability: every endpoint is wrapped in request/error counters and
// a latency histogram (cfdserve_http_* series, labeled by path), and the
// monitor's own instrumentation — apply-stage timings, WAL append/fsync
// latencies, replication lag, miner refresh cost — is exposed through
// GET /v1/metrics in the Prometheus text format, no client library
// required. -pprof-addr serves net/http/pprof on a second, private
// listener for CPU/heap profiles. Diagnostics go through log/slog:
// -log-level picks the threshold (debug, info, warn, error) and
// -log-json switches the stderr stream to JSON lines; the startup
// banner stays on stdout for scripts that parse the bound address.
//
// GET /v1/discover serves streaming CFD discovery over the live instance:
// the first call attaches a miner to the monitor's group indexes (one
// full scoring pass); every later call re-scores only the groups the
// interleaving writes touched. Config query params — max_lhs (serving
// limit 3: the lattice is exponential in it and an attach quiesces
// writers), min_support, min_confidence, max_patterns — select the
// mining configuration; a call with a different config re-attaches the
// miner (another full pass), so clients should settle on one.
//
// POST /v1/apply applies the op vector through Monitor.Apply:
// the batch is validated as a unit (an invalid op rejects all of it),
// journaled as a single WAL record, and answered with the combined net
// violation delta plus the keys assigned to its inserts, in op order.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro"
	"repro/internal/cliutil"
	"repro/internal/httpapi"
	"repro/internal/obs"
)

// processStart anchors the uptime reported by GET /v1/stats.
var processStart = time.Now()

func main() {
	var (
		dataPath     = flag.String("data", "", "CSV instance to monitor (required, except in follow mode)")
		cfdPath      = flag.String("cfds", "", "CFD file in text notation (required)")
		httpAddr     = flag.String("http", "", "serve the HTTP API on this address (required)")
		shards       = flag.Int("shards", 0, "lock shards per index (0 = default)")
		walDir       = flag.String("wal-dir", "", "durable mode: write-ahead log + snapshots in this directory; restarts recover from it instead of reloading the CSV")
		fsync        = flag.Bool("fsync", false, "fsync the WAL after every record (acknowledged writes survive OS crash; slower)")
		gcDelay      = flag.Duration("group-commit-delay", 0, "group commit: window leader waits this long for more writers before committing (0 = no deliberate wait)")
		gcOps        = flag.Int("group-commit-ops", 0, "group commit: close a window early once this many ops are queued; setting either -group-commit-* flag enables coalescing concurrent writers into one WAL record + fsync per window")
		snapRecords  = flag.Int("snapshot-records", 10000, "roll a background snapshot after this many WAL records (0 = off)")
		snapInterval = flag.Duration("snapshot-interval", 0, "also snapshot on this wall-clock period, e.g. 5m (0 = off)")
		retainSegs   = flag.Int("retain-segments", 2, "durable mode: closed WAL segments kept behind the current one, so a briefly-disconnected follower resumes its cursor instead of resyncing (0 = none)")
		follow       = flag.String("follow", "", "run as a hot standby of this primary URL, tailing its WAL into -wal-dir (requires -wal-dir; -data is not used)")
		followPoll   = flag.Duration("follow-poll", 200*time.Millisecond, "follow mode: idle wait between tail polls once caught up")
		promoteAfter = flag.Duration("promote-after", 0, "follow mode: auto-promote to a writable primary once the primary has been unreachable this long (0 = manual POST /v1/promote)")
		pprofAddr    = flag.String("pprof-addr", "", "serve net/http/pprof on this second, private address (off when empty)")
		logLevel     = flag.String("log-level", "info", "log threshold: debug, info, warn or error")
		logJSON      = flag.Bool("log-json", false, "write logs to stderr as JSON lines instead of text")
	)
	flag.Parse()
	if *httpAddr == "" {
		fmt.Fprintln(os.Stderr, "cfdserve: -http is required")
		flag.Usage()
		os.Exit(2)
	}
	lg, err := cliutil.NewLogger(*logLevel, *logJSON)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cfdserve:", err)
		os.Exit(2)
	}
	opts := repro.MonitorOptions{
		Shards:         *shards,
		Durable:        *walDir,
		Fsync:          *fsync,
		GroupCommit:    repro.MonitorGroupCommit{MaxDelay: *gcDelay, MaxOps: *gcOps},
		SnapshotEvery:  *snapRecords,
		RetainSegments: *retainSegs,
		// The daemon publishes on the process-global registry, so the
		// monitor's series and the HTTP middleware's land in one scrape.
		Metrics: repro.DefaultMetrics(),
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	httpapi.ServePprof(lg, *pprofAddr)

	if *follow != "" {
		if *cfdPath == "" || *walDir == "" {
			lg.Error("-follow requires -cfds and -wal-dir")
			os.Exit(2)
		}
		fo := repro.FollowOptions{
			Source:       newHTTPSource(strings.TrimRight(*follow, "/")),
			PollInterval: *followPoll,
			PromoteAfter: *promoteAfter,
		}
		if err := runFollower(ctx, lg, *cfdPath, *httpAddr, opts, fo); err != nil {
			lg.Error("follower failed", "error", err)
			os.Exit(2)
		}
		return
	}

	if *dataPath == "" || *cfdPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	srv, err := newServer(*dataPath, *cfdPath, opts)
	if err != nil {
		lg.Error("startup failed", "error", err)
		os.Exit(2)
	}
	srv.log = lg
	if *snapInterval > 0 && srv.mon().JournalStats().Durable {
		go srv.snapshotLoop(ctx, *snapInterval)
	}
	source := "loaded from CSV"
	if srv.mon().Recovered() {
		source = fmt.Sprintf("recovered from %s (generation %d)", *walDir, srv.mon().JournalStats().Generation)
	}

	lis, err := net.Listen("tcp", *httpAddr)
	if err != nil {
		lg.Error("listen failed", "error", err)
		os.Exit(2)
	}
	fmt.Printf("monitoring %d tuples against %d CFDs on %s (%s)\n",
		srv.mon().Len(), len(srv.mon().Sigma()), lis.Addr(), source)
	err = httpapi.Serve(ctx, lis, srv.handler())
	if cerr := srv.close(); err == nil {
		err = cerr
	}
	if err != nil {
		lg.Error("server failed", "error", err)
		os.Exit(2)
	}
}

// runFollower is follow mode: boot (or resume) the standby, serve the
// read API, and supervise the tail loop until shutdown or promotion.
// After a promotion the same process keeps serving — now accepting
// writes — so failover does not even drop the listener.
func runFollower(ctx context.Context, lg *slog.Logger, cfdPath, httpAddr string, opts repro.MonitorOptions, fo repro.FollowOptions) error {
	sigma, err := cliutil.LoadCFDs(cfdPath)
	if err != nil {
		return err
	}
	f, err := repro.FollowMonitor(ctx, sigma, opts, fo)
	if err != nil {
		return err
	}
	srv := &server{log: lg}
	srv.setReplica(f.Monitor(), f)
	lis, err := net.Listen("tcp", httpAddr)
	if err != nil {
		f.Close()
		return err
	}
	st := f.Status()
	fmt.Printf("following %s from generation %d offset %d; serving %d tuples read-only on %s\n",
		fo.Source.(*httpSource).base, st.Seq, st.Offset, f.Monitor().Len(), lis.Addr())

	fctx, fcancel := context.WithCancel(ctx)
	defer fcancel()
	tailDone := make(chan struct{})
	go func() {
		defer close(tailDone)
		srv.followLoop(fctx, sigma, opts, fo)
	}()
	err = httpapi.Serve(ctx, lis, srv.handler())
	fcancel()
	<-tailDone
	if cerr := srv.closeReplica(); err == nil {
		err = cerr
	}
	return err
}

// followLoop supervises the tail loop: transient fetch errors retry
// inside Run, a cursor below the primary's retention window rebuilds the
// follower with a full resync (swapping the served monitor atomically),
// and promotion — POST /promote or -promote-after — ends the loop with
// the monitor writable.
func (s *server) followLoop(ctx context.Context, sigma []*repro.CFD, opts repro.MonitorOptions, fo repro.FollowOptions) {
	for {
		f := s.fol()
		err := f.Run(ctx)
		if err == nil || ctx.Err() != nil {
			if f.Status().Promoted {
				s.logger().Info("promoted: accepting writes at the last applied record boundary")
			}
			return
		}
		if errors.Is(err, repro.ErrWALSegmentGone) {
			s.logger().Warn("cursor below primary retention window; resyncing from snapshot")
			// The old follower must close first: the rebuild wipes and
			// re-locks the same local directory. Reads keep serving the
			// (now frozen) old monitor while the resync retries — a
			// transient failure must not leave a permanently dead
			// replica behind a live listener.
			f.Close()
			resync := fo
			resync.Resync = true
			for {
				nf, rerr := repro.FollowMonitor(ctx, sigma, opts, resync)
				if rerr == nil {
					s.setReplica(nf.Monitor(), nf)
					break
				}
				s.logger().Error("resync failed, will retry", "error", rerr)
				select {
				case <-ctx.Done():
					return
				case <-time.After(5 * time.Second):
				}
			}
			continue
		}
		// A local failure (full disk, poisoned journal): the tail loop
		// cannot safely continue, and promotion onto broken storage is
		// worse. Keep serving reads; the operator sees this and the
		// replica block's last_error.
		s.logger().Error("follower stopped", "error", err)
		return
	}
}

type server struct {
	// mv is the served monitor and fv the follower driving it (nil on a
	// primary). Both are atomic: a retention-window resync rebuilds the
	// replica and swaps them under live request traffic.
	mv atomic.Pointer[repro.Monitor]
	fv atomic.Pointer[repro.MonitorFollower]

	// log is the diagnostic logger; nil (tests building a bare server)
	// falls back to slog.Default via logger().
	log *slog.Logger

	// The lazily-attached discovery miner behind GET /v1/discover, cached
	// per config: re-attaching costs a full scoring pass, so the one
	// live miner is kept until a request names a different config.
	mineMu   sync.Mutex
	miner    *repro.CFDMiner
	minerCfg repro.DiscoveryConfig

	// The lazily-attached repair suggester behind GET /v1/repairs,
	// cached per trust threshold: re-attaching pays a full planning
	// pass, so the one live suggester is kept until a request names a
	// different threshold.
	sugMu  sync.Mutex
	sug    *repro.RepairSuggester
	sugThr float64
}

// mon returns the currently served monitor.
func (s *server) mon() *repro.Monitor { return s.mv.Load() }

// fol returns the follower, nil on a primary.
func (s *server) fol() *repro.MonitorFollower { return s.fv.Load() }

// logger never returns nil.
func (s *server) logger() *slog.Logger {
	if s.log != nil {
		return s.log
	}
	return slog.Default()
}

// metrics is the registry the HTTP surface publishes on: the served
// monitor's (the process-global one when main wired opts.Metrics, a
// private one in tests — so httptest servers scrape hermetically).
func (s *server) metrics() *obs.Registry {
	if m := s.mon(); m != nil {
		return m.Metrics()
	}
	return obs.Disabled()
}

// setReplica swaps in a (new) replicated monitor + follower pair. The
// whole swap — miner retirement included — happens under mineMu, so a
// concurrent /v1/discover cannot read the old monitor and cache a fresh
// miner against it after the swap (minerFor reads s.mon() under the
// same mutex). The follower is stored before the monitor so a reader
// that sees the new monitor also sees its follower.
func (s *server) setReplica(m *repro.Monitor, f *repro.MonitorFollower) {
	s.mineMu.Lock()
	defer s.mineMu.Unlock()
	if s.miner != nil {
		s.miner.Close()
		s.miner = nil
	}
	// The suggester is retired the same way, under its own mutex —
	// suggesterFor reads s.mon() under sugMu, so it either caches
	// against the new monitor or has its stale suggester closed here.
	s.sugMu.Lock()
	if s.sug != nil {
		s.sug.Close()
		s.sug = nil
	}
	s.fv.Store(f)
	s.mv.Store(m)
	s.sugMu.Unlock()
}

func newServer(dataPath, cfdPath string, opts repro.MonitorOptions) (*server, error) {
	sigma, err := cliutil.LoadCFDs(cfdPath)
	if err != nil {
		return nil, err
	}
	srv := &server{}
	// A durable node that has booted before carries its state (schema
	// included) in the WAL directory — the CSV is not parsed, or even
	// required to exist, after the first boot.
	if opts.Durable != "" {
		m, err := repro.OpenMonitor(sigma, opts)
		if err == nil {
			srv.mv.Store(m)
			return srv, nil
		}
		if !errors.Is(err, repro.ErrNoMonitorState) {
			return nil, err
		}
	}
	// The seed load and the monitor share one value pool: the CSV's
	// categorical values are deduplicated once and the monitor interns
	// against the same copies.
	rel, pool, err := cliutil.LoadCSVPooled(dataPath)
	if err != nil {
		return nil, err
	}
	opts.Intern = pool
	m, err := repro.LoadMonitor(rel, sigma, opts)
	if err != nil {
		return nil, err
	}
	srv.mv.Store(m)
	return srv, nil
}

// snapshotLoop forces a snapshot on a wall-clock cadence, alongside the
// record-count trigger of -snapshot-records.
func (s *server) snapshotLoop(ctx context.Context, every time.Duration) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			if err := s.mon().ForceSnapshot(); err != nil {
				s.logger().Error("periodic snapshot failed", "error", err)
			}
		}
	}
}

// close flushes the durable state on the way out: a final snapshot (so
// the next boot recovers instantly) and a synced journal. A still-
// following replica must not roll its own generations, so only writable
// monitors snapshot here.
func (s *server) close() error {
	m := s.mon()
	if m.JournalStats().Durable && !m.ReadOnly() {
		if err := m.ForceSnapshot(); err != nil {
			s.logger().Error("final snapshot failed", "error", err)
		}
	}
	return m.Close()
}

// closeReplica shuts follow mode down: the follower's journal closes
// through Follower.Close while still following; a promoted monitor is a
// primary now and takes the primary's close path (final snapshot).
func (s *server) closeReplica() error {
	f := s.fol()
	if f == nil {
		return s.close()
	}
	if f.Status().Promoted {
		if err := f.Close(); err != nil {
			return err
		}
		return s.close()
	}
	return f.Close()
}

// maxDiscoverLHS bounds max_lhs on the serving endpoint: the candidate
// lattice is exponential in it, and a config change pays a full
// scoring pass under the monitor's write locks — an unbounded value
// would let one cheap GET stall every writer for minutes.
const maxDiscoverLHS = 3

// discoverConfig parses the /v1/discover query params into a mining config,
// normalized to the miner's documented defaults so that an explicit
// "?max_lhs=1" (or a zero value the miner would default) and a bare
// request share one cached miner.
func discoverConfig(q url.Values) (repro.DiscoveryConfig, error) {
	cfg := repro.DiscoveryConfig{MaxLHS: 1, MinSupport: 2, MinConfidence: 1}
	intParam := func(name string, dst *int) error {
		if v := q.Get(name); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil {
				return fmt.Errorf("bad %s %q: %w", name, v, err)
			}
			*dst = n
		}
		return nil
	}
	if err := intParam("max_lhs", &cfg.MaxLHS); err != nil {
		return cfg, err
	}
	if err := intParam("min_support", &cfg.MinSupport); err != nil {
		return cfg, err
	}
	if err := intParam("max_patterns", &cfg.MaxPatterns); err != nil {
		return cfg, err
	}
	if v := q.Get("min_confidence"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return cfg, fmt.Errorf("bad min_confidence %q: %w", v, err)
		}
		cfg.MinConfidence = f
	}
	if cfg.MaxLHS > maxDiscoverLHS {
		return cfg, fmt.Errorf("max_lhs %d above the serving limit %d", cfg.MaxLHS, maxDiscoverLHS)
	}
	// Normalize the values the miner would default, so every spelling of
	// the same effective config hits the same cached miner instead of
	// paying a re-attach.
	if cfg.MaxLHS <= 0 {
		cfg.MaxLHS = 1
	}
	if cfg.MinSupport <= 0 {
		cfg.MinSupport = 2
	}
	if cfg.MinConfidence <= 0 {
		cfg.MinConfidence = 1
	}
	return cfg, nil
}

// minerFor returns the cached miner when the config matches, otherwise
// attaches a fresh one (full scoring pass) and retires the old.
func (s *server) minerFor(cfg repro.DiscoveryConfig) (*repro.CFDMiner, error) {
	s.mineMu.Lock()
	defer s.mineMu.Unlock()
	if s.miner != nil && s.minerCfg == cfg {
		return s.miner, nil
	}
	mi, err := repro.WatchDiscovery(s.mon(), cfg)
	if err != nil {
		return nil, err
	}
	if s.miner != nil {
		s.miner.Close()
	}
	s.miner, s.minerCfg = mi, cfg
	return mi, nil
}

// suggesterFor returns the cached repair suggester when the trust
// threshold matches, otherwise attaches a fresh one (full planning
// pass) and retires the old. A positive threshold wires the cached
// streaming miner in as the trust source — its candidate confidences
// are refreshed here so the suggester's trust pass reads live values.
func (s *server) suggesterFor(thr float64) (*repro.RepairSuggester, error) {
	var trust repro.RepairTrustSource
	if thr > 0 {
		mi, err := s.minerFor(repro.DiscoveryConfig{MaxLHS: 1, MinSupport: 2, MinConfidence: 1})
		if err != nil {
			return nil, err
		}
		mi.Refresh()
		trust = mi
	}
	s.sugMu.Lock()
	defer s.sugMu.Unlock()
	if s.sug != nil && s.sugThr == thr {
		return s.sug, nil
	}
	sg, err := repro.WatchRepairs(s.mon(), repro.SuggestOptions{Trust: trust, TrustThreshold: thr})
	if err != nil {
		return nil, err
	}
	if s.sug != nil {
		s.sug.Close()
	}
	s.sug, s.sugThr = sg, thr
	return sg, nil
}

// --- HTTP API ---

type jsonEdit struct {
	Key  int64  `json:"key"`
	Attr string `json:"attr"`
	From string `json:"from"`
	To   string `json:"to"`
}

type jsonSuggestion struct {
	ID   string  `json:"id"`
	CFD  int     `json:"cfd"`
	Kind string  `json:"kind"`
	Cost float64 `json:"cost"`
	// Key is set on tuple-level suggestions (constant violations), X on
	// group-level ones (variable violations).
	Key        *int64     `json:"key,omitempty"`
	X          []string   `json:"x,omitempty"`
	Attr       string     `json:"attr,omitempty"`
	To         string     `json:"to,omitempty"`
	Tuples     int        `json:"tuples,omitempty"`
	Confidence float64    `json:"confidence,omitempty"`
	Reason     string     `json:"reason,omitempty"`
	Edits      []jsonEdit `json:"edits,omitempty"`
}

func toJSONSuggestion(sg *repro.RepairSuggestion) jsonSuggestion {
	out := jsonSuggestion{
		ID: sg.ID, CFD: sg.CFD, Kind: sg.Kind.String(), Cost: sg.Cost,
		X: sg.X, Attr: sg.Attr, To: sg.To, Tuples: sg.Tuples,
		Confidence: sg.Confidence, Reason: sg.Reason,
	}
	if sg.X == nil && sg.Kind != repro.SuggestRelax {
		key := sg.Key
		out.Key = &key
	}
	for _, e := range sg.Edits {
		out.Edits = append(out.Edits, jsonEdit{Key: e.Key, Attr: e.Attr, From: e.From, To: e.To})
	}
	return out
}

// buildInfo is the binary's identity for GET /v1/stats, computed once: the
// Go version is always present, the rest as the build embedded it.
var buildInfo = sync.OnceValue(func() map[string]any {
	info := map[string]any{"go": runtime.Version()}
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return info
	}
	info["module"] = bi.Main.Path
	if bi.Main.Version != "" {
		info["version"] = bi.Main.Version
	}
	for _, kv := range bi.Settings {
		if kv.Key == "vcs.revision" {
			info["revision"] = kv.Value
		}
	}
	return info
})

// applyMut applies one HTTP mutation's ChangeSet, honoring the
// X-Cfd-Epoch fencing stamp when the caller (a router) sent one: the
// write is refused unless this node's history is at exactly that epoch.
// Requests without the header take the plain path — single-node
// clients, for whom the node's own epoch is trivially current.
func (s *server) applyMut(r *http.Request, cs *repro.ChangeSet) (*repro.ViolationDelta, error) {
	if h := r.Header.Get("X-Cfd-Epoch"); h != "" {
		epoch, err := strconv.ParseUint(h, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad X-Cfd-Epoch %q: %w", h, err)
		}
		return s.mon().ApplyAt(cs, epoch)
	}
	return s.mon().Apply(cs)
}

func (s *server) handler() http.Handler {
	mux := httpapi.NewMux("cfdserve", s.metrics())
	// apply runs a mutation's ChangeSet through applyMut. A refusal is
	// answered here with the envelope's role codes — a fenced node
	// answers 403 "fenced" with its current epoch (the caller's token is
	// stale — re-query and retry), a read-only standby 409 "read_only"
	// (promote it or write to the primary), anything else is the
	// caller's bad request at the fallback status — and reported as !ok.
	apply := func(w http.ResponseWriter, r *http.Request, cs *repro.ChangeSet, fallback int) (*repro.ViolationDelta, bool) {
		delta, err := s.applyMut(r, cs)
		switch {
		case err == nil:
			return delta, true
		case errors.Is(err, repro.ErrMonitorFenced):
			epoch := s.mon().Epoch()
			httpapi.WriteError(w, http.StatusForbidden, httpapi.Error{Code: "fenced", Message: err.Error(), Epoch: &epoch})
		case errors.Is(err, repro.ErrMonitorReadOnly):
			httpapi.WriteError(w, http.StatusConflict, httpapi.Error{Code: "read_only", Message: err.Error()})
		default:
			httpapi.WriteErr(w, fallback, err)
		}
		return nil, false
	}

	// The single-op forms of /v1/apply. An insert may carry a
	// caller-chosen "key" (a router that owns the key space); absent, the
	// node allocates.
	mux.Handle("/v1/insert", func(w http.ResponseWriter, r *http.Request) {
		cs, ok := httpapi.DecodeOne(w, r, "insert")
		if !ok {
			return
		}
		if delta, ok := apply(w, r, cs, http.StatusBadRequest); ok {
			httpapi.WriteJSON(w, http.StatusOK, map[string]any{"key": cs.Ops[0].Key, "delta": httpapi.EncodeDelta(delta)})
		}
	})
	mux.Handle("/v1/delete", func(w http.ResponseWriter, r *http.Request) {
		cs, ok := httpapi.DecodeOne(w, r, "delete")
		if !ok {
			return
		}
		if delta, ok := apply(w, r, cs, http.StatusNotFound); ok {
			httpapi.WriteJSON(w, http.StatusOK, map[string]any{"delta": httpapi.EncodeDelta(delta)})
		}
	})
	mux.Handle("/v1/update", func(w http.ResponseWriter, r *http.Request) {
		cs, ok := httpapi.DecodeOne(w, r, "update")
		if !ok {
			return
		}
		if delta, ok := apply(w, r, cs, http.StatusBadRequest); ok {
			httpapi.WriteJSON(w, http.StatusOK, map[string]any{"delta": httpapi.EncodeDelta(delta)})
		}
	})
	// Batched ingest: one ChangeSet per request, applied atomically as a
	// single WAL record. Inserted keys come back in op order.
	mux.Handle("/v1/apply", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Ops []httpapi.Op `json:"ops"`
		}
		if !httpapi.DecodePost(w, r, &req) {
			return
		}
		cs, err := httpapi.DecodeOps(req.Ops)
		if err != nil {
			httpapi.WriteErr(w, http.StatusBadRequest, err)
			return
		}
		if delta, ok := apply(w, r, cs, http.StatusBadRequest); ok {
			httpapi.WriteJSON(w, http.StatusOK, map[string]any{
				"ops": cs.Len(), "keys": httpapi.InsertedKeys(cs), "delta": httpapi.EncodeDelta(delta),
			})
		}
	})
	// GET /violations serves the maintained violation view (a pointer
	// load at an unchanged version, never a shard scan). Query surface:
	//   ?key=K            point lookup — the violations tuple K is in
	//   ?cfd=I            only CFD I's violations (total follows the filter)
	//   ?limit=N&cursor=C cursor pagination; cursors are stable within a
	//                     view version ("v<version>:<offset>") and expire
	//                     (410) when the set changes
	// The response carries ETag "v<version>"; a poll with If-None-Match
	// at the current version is answered 304 from the version counter
	// alone, without materializing anything.
	mux.Handle("/v1/violations", func(w http.ResponseWriter, r *http.Request) {
		type perCFD struct {
			CFD          int        `json:"cfd"`
			ConstTuples  []int64    `json:"const_tuples"`
			VariableKeys [][]string `json:"variable_keys"`
		}
		q := r.URL.Query()
		if ks := q.Get("key"); ks != "" {
			key, err := strconv.ParseInt(ks, 10, 64)
			if err != nil {
				httpapi.WriteErr(w, http.StatusBadRequest, fmt.Errorf("bad key %q", ks))
				return
			}
			st, ok := s.mon().ViolationsFor(key)
			if !ok {
				httpapi.WriteErr(w, http.StatusNotFound, fmt.Errorf("no tuple with key %d", key))
				return
			}
			out := make([]perCFD, 0, len(st.PerCFD))
			for i, v := range st.PerCFD {
				if v.Total() > 0 {
					out = append(out, perCFD{CFD: i, ConstTuples: v.ConstTuples, VariableKeys: v.VariableKeys})
				}
			}
			httpapi.WriteJSON(w, http.StatusOK, map[string]any{"key": key, "per_cfd": out, "total": st.Total()})
			return
		}
		etag := fmt.Sprintf("%q", fmt.Sprintf("v%d", s.mon().ViewVersion()))
		if inm := r.Header.Get("If-None-Match"); inm != "" && inm == etag {
			w.Header().Set("ETag", etag)
			w.WriteHeader(http.StatusNotModified)
			return
		}
		view := s.mon().View()
		st := view.State()
		w.Header().Set("ETag", fmt.Sprintf("%q", fmt.Sprintf("v%d", view.Version())))
		cfdSel := -1
		if cs := q.Get("cfd"); cs != "" {
			i, err := strconv.Atoi(cs)
			if err != nil || i < 0 || i >= len(st.PerCFD) {
				httpapi.WriteErr(w, http.StatusBadRequest, fmt.Errorf("bad cfd %q (have %d)", cs, len(st.PerCFD)))
				return
			}
			cfdSel = i
		}
		limit := 0
		if ls := q.Get("limit"); ls != "" {
			n, err := strconv.Atoi(ls)
			if err != nil || n <= 0 {
				httpapi.WriteErr(w, http.StatusBadRequest, fmt.Errorf("bad limit %q", ls))
				return
			}
			limit = n
		}
		offset := 0
		if cur := q.Get("cursor"); cur != "" {
			var cv uint64
			if _, err := fmt.Sscanf(cur, "v%d:%d", &cv, &offset); err != nil || offset < 0 {
				httpapi.WriteErr(w, http.StatusBadRequest, fmt.Errorf("bad cursor %q", cur))
				return
			}
			if cv != view.Version() {
				httpapi.WriteErr(w, http.StatusGone, fmt.Errorf("cursor %q expired (view is at v%d)", cur, view.Version()))
				return
			}
		}
		room := limit
		if limit <= 0 {
			room = int(^uint(0) >> 1)
		}
		skip := offset
		total, emitted := 0, 0
		out := make([]perCFD, 0, len(st.PerCFD))
		for i, v := range st.PerCFD {
			if cfdSel >= 0 && i != cfdSel {
				continue
			}
			total += v.Total()
			if room == 0 && skip == 0 && limit > 0 {
				continue
			}
			p := perCFD{CFD: i}
			if n := len(v.ConstTuples); skip < n {
				take := min(room, n-skip)
				p.ConstTuples = v.ConstTuples[skip : skip+take]
				room -= take
				skip = 0
			} else {
				skip -= n
			}
			if n := len(v.VariableKeys); room > 0 && skip < n {
				take := min(room, n-skip)
				p.VariableKeys = v.VariableKeys[skip : skip+take]
				room -= take
				skip = 0
			} else if room > 0 {
				skip -= n
			}
			if len(p.ConstTuples) > 0 || len(p.VariableKeys) > 0 || (limit <= 0 && cfdSel < 0) {
				emitted += len(p.ConstTuples) + len(p.VariableKeys)
				out = append(out, p)
			}
		}
		resp := map[string]any{"per_cfd": out, "total": total, "version": view.Version()}
		if limit > 0 && emitted > 0 && offset+emitted < total {
			resp["next_cursor"] = fmt.Sprintf("v%d:%d", view.Version(), offset+emitted)
		}
		httpapi.WriteJSON(w, http.StatusOK, resp)
	})
	// GET /v1/repairs serves the live repair suggester: cost-ranked fix
	// suggestions for the current violation set, re-planned in O(Δ)
	// between calls. Query surface mirrors /violations:
	//   ?limit=N&cursor=C   cursor pagination; cursors are stable within
	//                       a suggestion version ("r<version>:<offset>")
	//                       and expire (410) when the set changes
	//   ?trust_threshold=F  wire the streaming miner as the trust
	//                       source: CFDs below confidence F suggest
	//                       relaxation instead of data edits
	// The response carries ETag "r<version>"; a poll with If-None-Match
	// at the current version is answered 304.
	mux.Handle("/v1/repairs", func(w http.ResponseWriter, r *http.Request) {
		if !httpapi.Method(w, r, http.MethodGet) {
			return
		}
		q := r.URL.Query()
		thr := 0.0
		if v := q.Get("trust_threshold"); v != "" {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil || f < 0 || f > 1 {
				httpapi.WriteErr(w, http.StatusBadRequest, fmt.Errorf("bad trust_threshold %q (want 0..1)", v))
				return
			}
			thr = f
		}
		limit := 0
		if ls := q.Get("limit"); ls != "" {
			n, err := strconv.Atoi(ls)
			if err != nil || n <= 0 {
				httpapi.WriteErr(w, http.StatusBadRequest, fmt.Errorf("bad limit %q", ls))
				return
			}
			limit = n
		}
		sg, err := s.suggesterFor(thr)
		if err != nil {
			httpapi.WriteErr(w, http.StatusBadRequest, err)
			return
		}
		sg.Refresh()
		version := sg.Version()
		etag := fmt.Sprintf("%q", fmt.Sprintf("r%d", version))
		w.Header().Set("ETag", etag)
		if inm := r.Header.Get("If-None-Match"); inm != "" && inm == etag {
			w.WriteHeader(http.StatusNotModified)
			return
		}
		offset := 0
		if cur := q.Get("cursor"); cur != "" {
			var cv uint64
			if _, err := fmt.Sscanf(cur, "r%d:%d", &cv, &offset); err != nil || offset < 0 {
				httpapi.WriteErr(w, http.StatusBadRequest, fmt.Errorf("bad cursor %q", cur))
				return
			}
			if cv != version {
				httpapi.WriteErr(w, http.StatusGone, fmt.Errorf("cursor %q expired (suggestions are at r%d)", cur, version))
				return
			}
		}
		sugs := sg.Suggestions()
		end := len(sugs)
		if offset > end {
			offset = end
		}
		if limit > 0 && offset+limit < end {
			end = offset + limit
		}
		out := make([]jsonSuggestion, 0, end-offset)
		for i := offset; i < end; i++ {
			out = append(out, toJSONSuggestion(&sugs[i]))
		}
		resp := map[string]any{"suggestions": out, "total": len(sugs), "version": version}
		if end < len(sugs) {
			resp["next_cursor"] = fmt.Sprintf("r%d:%d", version, end)
		}
		httpapi.WriteJSON(w, http.StatusOK, resp)
	})
	// POST /v1/repairs/apply converts accepted suggestion ids into one
	// ordinary ChangeSet and applies it through the same path as
	// POST /v1/apply — fencing (X-Cfd-Epoch), WAL, group commit and
	// replication all unchanged. Unknown or retired ids answer 404; the
	// client re-fetches /v1/repairs and retries.
	mux.Handle("/v1/repairs/apply", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			IDs []string `json:"ids"`
			// TrustThreshold selects the same cached suggester a prior
			// GET /v1/repairs?trust_threshold=F attached.
			TrustThreshold float64 `json:"trust_threshold"`
		}
		if !httpapi.DecodePost(w, r, &req) {
			return
		}
		if len(req.IDs) == 0 {
			httpapi.WriteErr(w, http.StatusBadRequest, fmt.Errorf("ids is empty"))
			return
		}
		sg, err := s.suggesterFor(req.TrustThreshold)
		if err != nil {
			httpapi.WriteErr(w, http.StatusBadRequest, err)
			return
		}
		sg.Refresh()
		cs, edits, err := sg.Plan(req.IDs)
		if err != nil {
			status := http.StatusBadRequest
			if errors.Is(err, repro.ErrUnknownRepairSuggestion) {
				status = http.StatusNotFound
			}
			httpapi.WriteErr(w, status, err)
			return
		}
		jes := make([]jsonEdit, 0, len(edits))
		for _, e := range edits {
			jes = append(jes, jsonEdit{Key: e.Key, Attr: e.Attr, From: e.From, To: e.To})
		}
		if cs.Len() == 0 {
			// Every accepted edit already holds (another client fixed the
			// data first); nothing to journal.
			httpapi.WriteJSON(w, http.StatusOK, map[string]any{"ops": 0, "edits": jes, "delta": httpapi.EncodeDelta(&repro.ViolationDelta{})})
			return
		}
		if delta, ok := apply(w, r, cs, http.StatusBadRequest); ok {
			sg.Refresh()
			httpapi.WriteJSON(w, http.StatusOK, map[string]any{"ops": cs.Len(), "edits": jes, "delta": httpapi.EncodeDelta(delta)})
		}
	})
	mux.Handle("/v1/stats", func(w http.ResponseWriter, r *http.Request) {
		role := "primary"
		if s.mon().ReadOnly() {
			role = "follower"
		}
		stats := map[string]any{
			"tuples":         s.mon().Len(),
			"violations":     s.mon().ViolationCount(),
			"satisfied":      s.mon().Satisfied(),
			"epoch":          s.mon().Epoch(),
			"fenced":         s.mon().Fenced(),
			"role":           role,
			"next_key":       s.mon().NextKey(),
			"uptime_seconds": time.Since(processStart).Seconds(),
			"build":          buildInfo(),
		}
		if js := s.mon().JournalStats(); js.Durable {
			wal := map[string]any{
				"dir":             js.Dir,
				"generation":      js.Generation,
				"segment_records": js.SegmentRecords,
				"recovered":       js.Recovered,
			}
			if js.LastSnapshotErr != "" {
				wal["last_snapshot_error"] = js.LastSnapshotErr
			}
			stats["wal"] = wal
		}
		if f := s.fol(); f != nil {
			st := f.Status()
			replica := map[string]any{
				"following":       st.Following,
				"promoted":        st.Promoted,
				"seq":             st.Seq,
				"offset":          st.Offset,
				"applied_records": st.AppliedRecords,
				"primary_seq":     st.PrimarySeq,
				"primary_offset":  st.PrimaryOffset,
				"lag_bytes":       st.LagBytes,
				"lag_segments":    st.LagSegments,
			}
			if !st.LastSync.IsZero() {
				replica["last_sync"] = st.LastSync.Format(time.RFC3339Nano)
			}
			if st.LastError != "" {
				replica["last_error"] = st.LastError
			}
			stats["replica"] = replica
		}
		httpapi.WriteJSON(w, http.StatusOK, stats)
	})
	// Prometheus text exposition of everything on the node's registry:
	// the monitor's hot-path series plus the middleware's own.
	mux.Handle("/v1/metrics", httpapi.Metrics(s.metrics()))
	// Streaming discovery: the current mined CFD set under the config the
	// query params select. The miner re-scores incrementally between
	// calls; only a config change pays a full pass.
	mux.Handle("/v1/discover", func(w http.ResponseWriter, r *http.Request) {
		if !httpapi.Method(w, r, http.MethodGet) {
			return
		}
		cfg, err := discoverConfig(r.URL.Query())
		if err != nil {
			httpapi.WriteErr(w, http.StatusBadRequest, err)
			return
		}
		mi, err := s.minerFor(cfg)
		if err != nil {
			httpapi.WriteErr(w, http.StatusBadRequest, err)
			return
		}
		mi.Refresh()
		ds, err := mi.Mined()
		if err != nil {
			httpapi.WriteErr(w, http.StatusInternalServerError, err)
			return
		}
		type mined struct {
			LHS     []string `json:"lhs"`
			RHS     []string `json:"rhs"`
			IsFD    bool     `json:"is_fd"`
			Support []int    `json:"support"`
			CFD     string   `json:"cfd"`
		}
		out := make([]mined, len(ds))
		for i, d := range ds {
			out[i] = mined{LHS: d.CFD.LHS, RHS: d.CFD.RHS, IsFD: d.IsFD, Support: d.Support, CFD: d.CFD.String()}
		}
		httpapi.WriteJSON(w, http.StatusOK, map[string]any{
			"config": map[string]any{
				"max_lhs":        cfg.MaxLHS,
				"min_support":    cfg.MinSupport,
				"min_confidence": cfg.MinConfidence,
				"max_patterns":   cfg.MaxPatterns,
			},
			"tuples": s.mon().Len(),
			"count":  len(out),
			"mined":  out,
		})
	})
	// Admin: force a snapshot now — roll the WAL generation without
	// waiting for the record-count or interval triggers.
	mux.Handle("/v1/snapshot", func(w http.ResponseWriter, r *http.Request) {
		if !httpapi.Method(w, r, http.MethodPost) {
			return
		}
		if err := s.mon().ForceSnapshot(); err != nil {
			// Not-durable and read-only are the caller's mistake (409); a
			// failed write on a durable node is a server-side disk
			// problem (500).
			status := http.StatusInternalServerError
			if !s.mon().JournalStats().Durable || errors.Is(err, repro.ErrMonitorReadOnly) {
				status = http.StatusConflict
			}
			httpapi.WriteErr(w, status, err)
			return
		}
		httpapi.WriteJSON(w, http.StatusOK, map[string]any{"generation": s.mon().JournalStats().Generation})
	})
	// Admin: flip a follower into a writable primary at the record
	// boundary it has applied. Idempotent; 409 on a node that is not
	// following anything.
	mux.Handle("/v1/promote", func(w http.ResponseWriter, r *http.Request) {
		if !httpapi.Method(w, r, http.MethodPost) {
			return
		}
		f := s.fol()
		if f == nil {
			httpapi.WriteErr(w, http.StatusConflict, fmt.Errorf("not a follower"))
			return
		}
		if err := f.Promote(); err != nil {
			// A closed follower (mid-resync) cannot be promoted — the
			// node's state conflicts with the request; retry once the
			// resync lands.
			httpapi.WriteErr(w, http.StatusConflict, err)
			return
		}
		st := f.Status()
		httpapi.WriteJSON(w, http.StatusOK, map[string]any{
			"promoted": true, "seq": st.Seq, "offset": st.Offset,
			"applied_records": st.AppliedRecords, "epoch": f.Monitor().Epoch(),
		})
	})
	// Admin: fence this node at an epoch — it refuses every write under
	// a lower term from now on. A router calls this on the deposed
	// primary right after promoting a standby; idempotent (Fence only
	// ever raises the watermark), safe on any role.
	mux.Handle("/v1/fence", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Epoch uint64 `json:"epoch"`
		}
		if !httpapi.DecodePost(w, r, &req) {
			return
		}
		s.mon().Fence(req.Epoch)
		httpapi.WriteJSON(w, http.StatusOK, map[string]any{
			"epoch": s.mon().Epoch(), "fenced": s.mon().Fenced(),
		})
	})
	// WAL shipping: the newest snapshot image, for a follower's initial
	// sync (or resync after falling below the retention window).
	mux.Handle("/v1/wal/snapshot", func(w http.ResponseWriter, r *http.Request) {
		if !httpapi.Method(w, r, http.MethodGet) {
			return
		}
		seq, rc, size, err := s.mon().ShipSnapshot()
		if err != nil {
			status := http.StatusInternalServerError
			if !s.mon().JournalStats().Durable {
				status = http.StatusConflict
			}
			httpapi.WriteErr(w, status, err)
			return
		}
		defer rc.Close()
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Length", strconv.FormatInt(size, 10))
		w.Header().Set("X-Wal-Seq", strconv.FormatUint(seq, 10))
		_, _ = io.Copy(w, rc)
	})
	// WAL shipping: record-aligned chunks of a segment, from a
	// (generation, offset) cursor. The body is raw framed records; the
	// cursor protocol lives in the X-Wal-* headers. 410 Gone tells the
	// follower its cursor fell below the retention window.
	mux.Handle("/v1/wal/stream", func(w http.ResponseWriter, r *http.Request) {
		if !httpapi.Method(w, r, http.MethodGet) {
			return
		}
		q := r.URL.Query()
		var seq uint64
		var off int64
		if _, err := fmt.Sscanf(q.Get("from"), "%d,%d", &seq, &off); err != nil || off < 0 {
			httpapi.WriteErr(w, http.StatusBadRequest, fmt.Errorf("bad cursor %q (want from=SEQ,OFFSET)", q.Get("from")))
			return
		}
		maxBytes := 1 << 20
		if v := q.Get("max"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n <= 0 {
				httpapi.WriteErr(w, http.StatusBadRequest, fmt.Errorf("bad max %q", v))
				return
			}
			maxBytes = n
		}
		ch, err := s.mon().WALChunk(seq, off, maxBytes)
		if err != nil {
			status := http.StatusInternalServerError
			switch {
			case errors.Is(err, repro.ErrWALSegmentGone):
				status = http.StatusGone
			case !s.mon().JournalStats().Durable:
				status = http.StatusConflict
			}
			httpapi.WriteErr(w, status, err)
			return
		}
		h := w.Header()
		h.Set("Content-Type", "application/octet-stream")
		h.Set("X-Wal-Seq", strconv.FormatUint(ch.Seq, 10))
		h.Set("X-Wal-Offset", strconv.FormatInt(ch.Offset, 10))
		h.Set("X-Wal-Records", strconv.Itoa(ch.Records))
		h.Set("X-Wal-Closed", strconv.FormatBool(ch.Closed))
		h.Set("X-Wal-Next-Seq", strconv.FormatUint(ch.NextSeq, 10))
		h.Set("X-Wal-End-Seq", strconv.FormatUint(ch.EndSeq, 10))
		h.Set("X-Wal-End-Offset", strconv.FormatInt(ch.EndOffset, 10))
		h.Set("X-Wal-Epoch", strconv.FormatUint(ch.Epoch, 10))
		_, _ = w.Write(ch.Data)
	})
	return mux
}

// --- the follower's HTTP chunk source ---

// httpSource implements the follower side of the shipping protocol over
// a primary cfdserve's /wal endpoints.
type httpSource struct {
	base string
	c    http.Client
}

// newHTTPSource builds the source with bounded network waits: a primary
// that dies silently (power loss, partition with no RST) must surface
// as a fetch failure within seconds — not the kernel's many-minute TCP
// retransmission timeout — or -promote-after can never fire. Bodies are
// not deadline-bounded here (a snapshot ship is legitimately long);
// dial/header timeouts plus TCP keepalives bound the silent-death case,
// and Chunk adds its own per-call deadline.
func newHTTPSource(base string) *httpSource {
	return &httpSource{
		base: base,
		c: http.Client{
			Transport: &http.Transport{
				DialContext: (&net.Dialer{
					Timeout:   10 * time.Second,
					KeepAlive: 15 * time.Second,
				}).DialContext,
				ResponseHeaderTimeout: 30 * time.Second,
			},
		},
	}
}

func (h *httpSource) get(ctx context.Context, path string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, h.base+path, nil)
	if err != nil {
		return nil, err
	}
	return h.c.Do(req)
}

// httpErr folds a non-200 response into an error, preserving
// ErrWALSegmentGone across the wire via 410. Every other error STATUS
// still proves the primary is alive and answering, so it carries
// ErrPrimaryResponded — the follower retries on it but never arms
// -promote-after (only transport-level failures may).
func httpErr(resp *http.Response) error {
	msg := httpapi.ReadError(resp).Message
	if resp.StatusCode == http.StatusGone {
		return fmt.Errorf("primary: %s: %w", msg, repro.ErrWALSegmentGone)
	}
	return fmt.Errorf("primary: %s (%s): %w", msg, resp.Status, repro.ErrPrimaryResponded)
}

func (h *httpSource) Snapshot(ctx context.Context) (uint64, io.ReadCloser, error) {
	resp, err := h.get(ctx, "/v1/wal/snapshot")
	if err != nil {
		return 0, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		return 0, nil, httpErr(resp)
	}
	seq, err := strconv.ParseUint(resp.Header.Get("X-Wal-Seq"), 10, 64)
	if err != nil {
		resp.Body.Close()
		return 0, nil, fmt.Errorf("primary snapshot: bad X-Wal-Seq %q", resp.Header.Get("X-Wal-Seq"))
	}
	return seq, resp.Body, nil
}

func (h *httpSource) Chunk(ctx context.Context, seq uint64, offset int64, maxBytes int) (repro.WALShipChunk, error) {
	var ch repro.WALShipChunk
	// A chunk body is at most maxBytes plus framing; if it cannot arrive
	// within this deadline the connection is dead or useless, and the
	// tail loop should learn that rather than block.
	ctx, cancel := context.WithTimeout(ctx, 2*time.Minute)
	defer cancel()
	resp, err := h.get(ctx, fmt.Sprintf("/v1/wal/stream?from=%d,%d&max=%d", seq, offset, maxBytes))
	if err != nil {
		return ch, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return ch, httpErr(resp)
	}
	hd := resp.Header
	fail := func(name string, err error) (repro.WALShipChunk, error) {
		return ch, fmt.Errorf("primary chunk: bad %s %q: %v", name, hd.Get(name), err)
	}
	if ch.Seq, err = strconv.ParseUint(hd.Get("X-Wal-Seq"), 10, 64); err != nil {
		return fail("X-Wal-Seq", err)
	}
	if ch.Offset, err = strconv.ParseInt(hd.Get("X-Wal-Offset"), 10, 64); err != nil {
		return fail("X-Wal-Offset", err)
	}
	if ch.Records, err = strconv.Atoi(hd.Get("X-Wal-Records")); err != nil {
		return fail("X-Wal-Records", err)
	}
	if ch.Closed, err = strconv.ParseBool(hd.Get("X-Wal-Closed")); err != nil {
		return fail("X-Wal-Closed", err)
	}
	if ch.NextSeq, err = strconv.ParseUint(hd.Get("X-Wal-Next-Seq"), 10, 64); err != nil {
		return fail("X-Wal-Next-Seq", err)
	}
	if ch.EndSeq, err = strconv.ParseUint(hd.Get("X-Wal-End-Seq"), 10, 64); err != nil {
		return fail("X-Wal-End-Seq", err)
	}
	if ch.EndOffset, err = strconv.ParseInt(hd.Get("X-Wal-End-Offset"), 10, 64); err != nil {
		return fail("X-Wal-End-Offset", err)
	}
	// X-Wal-Epoch is the fencing term; a pre-fencing primary does not
	// send it, which parses as epoch 0 — the legacy unfenced history.
	if v := hd.Get("X-Wal-Epoch"); v != "" {
		if ch.Epoch, err = strconv.ParseUint(v, 10, 64); err != nil {
			return fail("X-Wal-Epoch", err)
		}
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		// A connection torn mid-chunk is a retryable fetch failure; what
		// DID arrive still ends on a record boundary at the scan layer,
		// but simplest is to drop the partial chunk and re-request.
		return ch, fmt.Errorf("primary chunk: %w", err)
	}
	ch.Data = data
	return ch, nil
}
