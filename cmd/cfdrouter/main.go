// cfdrouter fronts a sharded cfdserve cluster: a consistent-hash ring
// partitions the tuple key space across independent shard groups (each
// a cfdserve primary plus optional hot standbys), every incoming
// ChangeSet is split by owning shard and fanned out in parallel, and
// the per-shard violation deltas merge into one response. Writes scale
// with the number of groups because each group commits to its own WAL.
//
// Usage:
//
//	cfdrouter -http :8100 \
//	    -shard g0=http://p0:8081,http://f0:8085 \
//	    -shard g1=http://p1:8082
//
// Every mutation the router sends is stamped with the epoch it believes
// current for that group (X-Cfd-Epoch), so a deposed primary refuses
// the write instead of forking history; a 403 whose envelope carries
// code "fenced" makes the router re-query the node's epoch and retry
// once, which heals the case where an operator promoted a standby
// behind a stable primary address. POST /v1/promote fails a group over to
// its first standby and re-points writes with no re-seeding: the
// standby already holds the replicated state.
//
// Endpoints live under /v1 (see docs/operations.md); any other path
// answers 404: /v1/insert /v1/delete /v1/update /v1/apply (the cfdserve
// mutation shapes, minus the choice of node), /v1/violations
// (cluster-wide total), /v1/repairs (per-group fan-out of the shards'
// live repair suggestions), /v1/stats (router view; ?shards=1 fans out
// per-group node stats), /v1/ring (ownership probe), /v1/promote,
// /v1/metrics. Failures use the same error envelope as cfdserve:
// {"error": {"code", "message", ...}}.
//
// Reads fan out: /v1/violations and /v1/stats?shards=1 accept
// ?consistency=primary|any. "primary" (the default) serves every
// group's read from its current primary; "any" round-robins the primary
// and the group's standbys, skipping any standby that is fenced behind
// the group's epoch or lagging the primary's WAL tail by more than
// -max-read-lag bytes — so hot standbys absorb read traffic without
// ever serving a stale-beyond-bound or deposed history.
//
// Atomicity is per shard group: a batch spanning groups may commit on
// some and fail on others, in which case the response names the failed
// groups and the delta covers the committed ones. Variable (multi-
// tuple) violations are likewise detected within each group's key
// range; keep tuples that must be compared on one shard group, or run
// a single cfdserve.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro"
	"repro/internal/cliutil"
	"repro/internal/httpapi"
	"repro/internal/obs"
)

var processStart = time.Now()

// --- httpBackend: one shard-group node over the cfdserve wire ---

// httpBackend adapts a cfdserve node to the router's ClusterBackend:
// mutations go through POST /v1/apply stamped with X-Cfd-Epoch, the
// epoch and key watermark come from GET /v1/stats, failover runs over
// POST /v1/promote and POST /v1/fence. An error envelope carrying the
// machine-readable code "fenced" (or "read_only") is mapped back onto
// the sentinel error the router dispatches on.
type httpBackend struct {
	base string
	hc   *http.Client
}

func newHTTPBackend(base string, timeout time.Duration) *httpBackend {
	return &httpBackend{base: strings.TrimRight(base, "/"), hc: &http.Client{Timeout: timeout}}
}

// call runs one JSON exchange. A nil body means a bare request (GET or
// an empty POST); a non-2xx response is decoded for its error message
// and machine code.
func (b *httpBackend) call(ctx context.Context, method, path string, body any, epoch *uint64, out any) error {
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequestWithContext(ctx, method, b.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if epoch != nil {
		req.Header.Set("X-Cfd-Epoch", strconv.FormatUint(*epoch, 10))
	}
	resp, err := b.hc.Do(req)
	if err != nil {
		return fmt.Errorf("shard %s: %w", b.base, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("shard %s%s: %w", b.base, path, httpapi.ReadError(resp))
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func (b *httpBackend) Apply(ctx context.Context, epoch uint64, cs *repro.ChangeSet) (*repro.ViolationDelta, error) {
	ops, err := httpapi.EncodeOps(cs)
	if err != nil {
		return nil, err
	}
	var res struct {
		Delta httpapi.Delta `json:"delta"`
	}
	if err := b.call(ctx, http.MethodPost, "/v1/apply", map[string]any{"ops": ops}, &epoch, &res); err != nil {
		return nil, err
	}
	return httpapi.DecodeDelta(res.Delta)
}

func (b *httpBackend) stats(ctx context.Context) (epoch uint64, nextKey int64, err error) {
	var st struct {
		Epoch   uint64 `json:"epoch"`
		NextKey int64  `json:"next_key"`
	}
	if err := b.call(ctx, http.MethodGet, "/v1/stats", nil, nil, &st); err != nil {
		return 0, 0, err
	}
	return st.Epoch, st.NextKey, nil
}

func (b *httpBackend) Epoch(ctx context.Context) (uint64, error) {
	epoch, _, err := b.stats(ctx)
	return epoch, err
}

func (b *httpBackend) NextKey(ctx context.Context) (int64, error) {
	_, next, err := b.stats(ctx)
	return next, err
}

func (b *httpBackend) Promote(ctx context.Context) (uint64, error) {
	var res struct {
		Epoch uint64 `json:"epoch"`
	}
	if err := b.call(ctx, http.MethodPost, "/v1/promote", nil, nil, &res); err != nil {
		return 0, err
	}
	return res.Epoch, nil
}

func (b *httpBackend) Fence(ctx context.Context, epoch uint64) error {
	return b.call(ctx, http.MethodPost, "/v1/fence", map[string]any{"epoch": epoch}, nil, nil)
}

// violationTotal reads the node's live violation count, for the
// router's cluster-wide /v1/violations aggregate.
func (b *httpBackend) violationTotal(ctx context.Context) (int, error) {
	var res struct {
		Total int `json:"total"`
	}
	if err := b.call(ctx, http.MethodGet, "/v1/violations", nil, nil, &res); err != nil {
		return 0, err
	}
	return res.Total, nil
}

// shardRepairs is one node's GET /v1/repairs response as the router
// re-serves it: the suggestions pass through untouched.
type shardRepairs struct {
	Suggestions []json.RawMessage `json:"suggestions"`
	Total       int               `json:"total"`
	Version     uint64            `json:"version"`
}

// repairs reads the node's live repair suggestions, for the router's
// per-group fan-out of GET /v1/repairs. query carries the forwarded
// trust_threshold/limit parameters ("" for none).
func (b *httpBackend) repairs(ctx context.Context, query string) (shardRepairs, error) {
	var res shardRepairs
	if err := b.call(ctx, http.MethodGet, "/v1/repairs"+query, nil, nil, &res); err != nil {
		return shardRepairs{}, err
	}
	return res, nil
}

// ReadPosition implements the read fan-out's staleness probe over the
// wire: the node's epoch and — for a following standby — its replication
// byte lag, both straight from GET /v1/stats. A primary (no replica block,
// or one already promoted) is its own tail: lag 0.
func (b *httpBackend) ReadPosition(ctx context.Context) (repro.ClusterReadPosition, error) {
	var st struct {
		Epoch   uint64 `json:"epoch"`
		Replica *struct {
			Following bool  `json:"following"`
			LagBytes  int64 `json:"lag_bytes"`
		} `json:"replica"`
	}
	if err := b.call(ctx, http.MethodGet, "/v1/stats", nil, nil, &st); err != nil {
		return repro.ClusterReadPosition{}, err
	}
	pos := repro.ClusterReadPosition{Epoch: st.Epoch}
	if st.Replica != nil && st.Replica.Following {
		pos.LagBytes = st.Replica.LagBytes
	}
	return pos, nil
}

// --- the daemon ---

type routerServer struct {
	rt     *repro.ClusterRouter
	vnodes int
	reg    *repro.MetricsRegistry
}

func (s *routerServer) handler() http.Handler {
	mux := httpapi.NewMux("cfdrouter", s.reg)
	reg := s.reg
	routedOps := reg.Counter("cfdrouter_routed_ops_total", "Mutation ops routed to shard groups.")
	shardFails := reg.Counter("cfdrouter_shard_failures_total", "Sub-batches refused or failed by a shard group.")
	readViolDur := reg.DurationHistogram("cfdrouter_read_seconds", "Fan-out read latency against shard nodes, by endpoint.", obs.L("endpoint", "/violations"))
	readStatsDur := reg.DurationHistogram("cfdrouter_read_seconds", "Fan-out read latency against shard nodes, by endpoint.", obs.L("endpoint", "/stats"))
	readRepairDur := reg.DurationHistogram("cfdrouter_read_seconds", "Fan-out read latency against shard nodes, by endpoint.", obs.L("endpoint", "/repairs"))
	readErrs := reg.Counter("cfdrouter_read_errors_total", "Fan-out reads against shard nodes that failed.")
	// pickRead resolves one group's read target honoring ?consistency=.
	pickRead := func(ctx context.Context, name string, mode repro.ClusterReadConsistency) (*httpBackend, error) {
		be, err := s.rt.PickRead(ctx, name, mode)
		if err != nil {
			return nil, fmt.Errorf("group %s: %w", name, err)
		}
		hb, ok := be.(*httpBackend)
		if !ok {
			return nil, fmt.Errorf("group %s: read target is not an HTTP backend", name)
		}
		return hb, nil
	}
	// routeErr maps a routed apply's failure. A partial failure (some
	// groups committed, some refused) is the router's defining error
	// shape: 502 naming the failed groups, with the delta of the
	// committed ones alongside so the caller can reconcile.
	routeErr := func(w http.ResponseWriter, err error, delta *repro.ViolationDelta) {
		var ae *repro.ClusterApplyError
		if errors.As(err, &ae) {
			shardFails.Add(uint64(len(ae.Failed)))
			failed := make(map[string]string, len(ae.Failed))
			for name, ferr := range ae.Failed {
				failed[name] = ferr.Error()
			}
			body := map[string]any{
				"error":  httpapi.Error{Code: httpapi.CodeFor(http.StatusBadGateway), Message: err.Error()},
				"failed": failed,
			}
			if delta != nil {
				body["delta"] = httpapi.EncodeDelta(delta)
			}
			httpapi.WriteJSON(w, http.StatusBadGateway, body)
			return
		}
		httpapi.WriteErr(w, http.StatusBadRequest, err)
	}
	apply := func(w http.ResponseWriter, r *http.Request, cs *repro.ChangeSet) (*repro.ViolationDelta, bool) {
		delta, err := s.rt.Apply(r.Context(), cs)
		if err != nil {
			routeErr(w, err, delta)
			return nil, false
		}
		routedOps.Add(uint64(cs.Len()))
		return delta, true
	}

	mux.Handle("/v1/insert", func(w http.ResponseWriter, r *http.Request) {
		cs, ok := httpapi.DecodeOne(w, r, "insert")
		if !ok {
			return
		}
		if delta, ok := apply(w, r, cs); ok {
			key := cs.Ops[0].Key
			httpapi.WriteJSON(w, http.StatusOK, map[string]any{"key": key, "shard": s.rt.Owner(key), "delta": httpapi.EncodeDelta(delta)})
		}
	})
	for _, op := range []string{"delete", "update"} {
		mux.Handle("/v1/"+op, func(w http.ResponseWriter, r *http.Request) {
			cs, ok := httpapi.DecodeOne(w, r, op)
			if !ok {
				return
			}
			if delta, ok := apply(w, r, cs); ok {
				httpapi.WriteJSON(w, http.StatusOK, map[string]any{"delta": httpapi.EncodeDelta(delta)})
			}
		})
	}
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
		if delta, ok := apply(w, r, cs); ok {
			httpapi.WriteJSON(w, http.StatusOK, map[string]any{
				"ops": cs.Len(), "keys": httpapi.InsertedKeys(cs), "delta": httpapi.EncodeDelta(delta),
			})
		}
	})
	// Cluster-wide violation count: the sum of one read per group.
	// Totals are disjoint because each group owns its key range. With
	// ?consistency=any the per-group read may land on a fresh standby
	// instead of the primary.
	mux.Handle("/v1/violations", func(w http.ResponseWriter, r *http.Request) {
		mode, err := repro.ParseClusterReadConsistency(r.URL.Query().Get("consistency"))
		if err != nil {
			httpapi.WriteErr(w, http.StatusBadRequest, err)
			return
		}
		groups := make(map[string]int)
		total := 0
		for _, name := range s.rt.Groups() {
			hb, err := pickRead(r.Context(), name, mode)
			if err != nil {
				httpapi.WriteErr(w, http.StatusInternalServerError, err)
				return
			}
			start := time.Now()
			n, err := hb.violationTotal(r.Context())
			readViolDur.ObserveSince(start)
			if err != nil {
				readErrs.Inc()
				httpapi.WriteErr(w, http.StatusBadGateway, fmt.Errorf("group %s: %w", name, err))
				return
			}
			groups[name] = n
			total += n
		}
		httpapi.WriteJSON(w, http.StatusOK, map[string]any{"groups": groups, "total": total, "consistency": mode.String()})
	})
	// Cluster-wide live repair suggestions: one GET /v1/repairs per
	// group, merged under per-group labels (?consistency= applies, and
	// ?trust_threshold=/?limit= are forwarded to every node). The merged
	// view is deliberately unpaginated — suggestion IDs and versions are
	// per-node, so each group's list arrives whole (or ?limit-truncated)
	// and accepted IDs must be applied against the owning group's node,
	// named in its "node" field.
	mux.Handle("/v1/repairs", func(w http.ResponseWriter, r *http.Request) {
		if !httpapi.Method(w, r, http.MethodGet) {
			return
		}
		mode, err := repro.ParseClusterReadConsistency(r.URL.Query().Get("consistency"))
		if err != nil {
			httpapi.WriteErr(w, http.StatusBadRequest, err)
			return
		}
		fwd := url.Values{}
		for _, k := range []string{"trust_threshold", "limit"} {
			if v := r.URL.Query().Get(k); v != "" {
				fwd.Set(k, v)
			}
		}
		query := ""
		if len(fwd) > 0 {
			query = "?" + fwd.Encode()
		}
		groups := make(map[string]any)
		total := 0
		for _, name := range s.rt.Groups() {
			hb, err := pickRead(r.Context(), name, mode)
			if err != nil {
				httpapi.WriteErr(w, http.StatusInternalServerError, err)
				return
			}
			start := time.Now()
			res, err := hb.repairs(r.Context(), query)
			readRepairDur.ObserveSince(start)
			if err != nil {
				readErrs.Inc()
				httpapi.WriteErr(w, http.StatusBadGateway, fmt.Errorf("group %s: %w", name, err))
				return
			}
			if res.Suggestions == nil {
				res.Suggestions = []json.RawMessage{}
			}
			groups[name] = map[string]any{
				"suggestions": res.Suggestions,
				"total":       res.Total,
				"version":     res.Version,
				"node":        hb.base,
			}
			total += res.Total
		}
		httpapi.WriteJSON(w, http.StatusOK, map[string]any{"groups": groups, "total": total, "consistency": mode.String()})
	})
	mux.Handle("/v1/stats", func(w http.ResponseWriter, r *http.Request) {
		out := map[string]any{
			"groups":         s.rt.Status(),
			"next_key":       s.rt.NextKey(),
			"vnodes":         s.vnodes,
			"uptime_seconds": time.Since(processStart).Seconds(),
		}
		// ?shards=1 additionally fans out one GET /v1/stats per group,
		// routed like any other read (?consistency= applies).
		if sq := r.URL.Query().Get("shards"); sq != "" && sq != "0" && sq != "false" {
			mode, err := repro.ParseClusterReadConsistency(r.URL.Query().Get("consistency"))
			if err != nil {
				httpapi.WriteErr(w, http.StatusBadRequest, err)
				return
			}
			shards := make(map[string]any)
			for _, name := range s.rt.Groups() {
				hb, err := pickRead(r.Context(), name, mode)
				if err != nil {
					shards[name] = map[string]any{"error": err.Error()}
					continue
				}
				start := time.Now()
				var raw map[string]any
				err = hb.call(r.Context(), http.MethodGet, "/v1/stats", nil, nil, &raw)
				readStatsDur.ObserveSince(start)
				if err != nil {
					readErrs.Inc()
					shards[name] = map[string]any{"error": err.Error()}
					continue
				}
				raw["node"] = hb.base
				shards[name] = raw
			}
			out["shards"] = shards
		}
		httpapi.WriteJSON(w, http.StatusOK, out)
	})
	// Ownership probe: which group would serve a key.
	mux.Handle("/v1/ring", func(w http.ResponseWriter, r *http.Request) {
		if kq := r.URL.Query().Get("key"); kq != "" {
			key, err := strconv.ParseInt(kq, 10, 64)
			if err != nil {
				httpapi.WriteErr(w, http.StatusBadRequest, fmt.Errorf("bad key %q: %w", kq, err))
				return
			}
			httpapi.WriteJSON(w, http.StatusOK, map[string]any{"key": key, "owner": s.rt.Owner(key)})
			return
		}
		httpapi.WriteJSON(w, http.StatusOK, map[string]any{"members": s.rt.Groups(), "vnodes": s.vnodes})
	})
	// Failover: promote the group's first standby and re-point writes.
	mux.Handle("/v1/promote", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Group string `json:"group"`
		}
		if !httpapi.DecodePost(w, r, &req) {
			return
		}
		epoch, err := s.rt.Promote(r.Context(), req.Group)
		if err != nil {
			httpapi.WriteErr(w, http.StatusConflict, err)
			return
		}
		httpapi.WriteJSON(w, http.StatusOK, map[string]any{"group": req.Group, "epoch": epoch, "promoted": true})
	})
	mux.Handle("/v1/metrics", httpapi.Metrics(reg))
	return mux
}

// shardFlag accumulates repeated -shard name=primaryURL[,standbyURL...]
// definitions in declaration order.
type shardDef struct {
	name     string
	primary  string
	standbys []string
}

func parseShard(v string) (shardDef, error) {
	name, urls, ok := strings.Cut(v, "=")
	if !ok || name == "" || urls == "" {
		return shardDef{}, fmt.Errorf("bad -shard %q: want name=primaryURL[,standbyURL...]", v)
	}
	parts := strings.Split(urls, ",")
	for _, p := range parts {
		if !strings.HasPrefix(p, "http://") && !strings.HasPrefix(p, "https://") {
			return shardDef{}, fmt.Errorf("bad -shard %q: %q is not an http(s) URL", v, p)
		}
	}
	return shardDef{name: name, primary: parts[0], standbys: parts[1:]}, nil
}

func main() {
	var shards []shardDef
	var (
		httpAddr  = flag.String("http", "", "serve the router API on this address (required)")
		vnodes    = flag.Int("vnodes", 0, "virtual nodes per shard group on the hash ring (0 = default)")
		timeout   = flag.Duration("shard-timeout", 30*time.Second, "per-request timeout talking to a shard node")
		maxLag    = flag.Int64("max-read-lag", 0, "max WAL byte lag before ?consistency=any skips a standby (0 = default 4MiB)")
		pprofAddr = flag.String("pprof-addr", "", "serve net/http/pprof on this second, private address (off when empty)")
		logLevel  = flag.String("log-level", "info", "log threshold: debug, info, warn or error")
		logJSON   = flag.Bool("log-json", false, "write logs to stderr as JSON lines instead of text")
	)
	flag.Func("shard", "shard group as name=primaryURL[,standbyURL...]; repeat per group (required)", func(v string) error {
		def, err := parseShard(v)
		if err != nil {
			return err
		}
		shards = append(shards, def)
		return nil
	})
	flag.Parse()
	lg, err := cliutil.NewLogger(*logLevel, *logJSON)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cfdrouter:", err)
		os.Exit(2)
	}
	if *httpAddr == "" || len(shards) == 0 {
		fmt.Fprintln(os.Stderr, "cfdrouter: -http and at least one -shard are required")
		flag.Usage()
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	httpapi.ServePprof(lg, *pprofAddr)

	groups := make([]repro.ClusterGroupConfig, 0, len(shards))
	for _, def := range shards {
		cfg := repro.ClusterGroupConfig{Name: def.name, Primary: newHTTPBackend(def.primary, *timeout)}
		for _, u := range def.standbys {
			cfg.Standbys = append(cfg.Standbys, newHTTPBackend(u, *timeout))
		}
		groups = append(groups, cfg)
	}
	// The router reads each primary's epoch and key watermark at boot,
	// so every shard must be reachable here.
	rt, err := repro.NewClusterRouter(ctx, groups, repro.ClusterOptions{VNodes: *vnodes, MaxReadLag: *maxLag})
	if err != nil {
		lg.Error("startup failed", "error", err)
		os.Exit(2)
	}
	srv := &routerServer{rt: rt, vnodes: *vnodes, reg: repro.DefaultMetrics()}

	lis, err := net.Listen("tcp", *httpAddr)
	if err != nil {
		lg.Error("listen failed", "error", err)
		os.Exit(2)
	}
	fmt.Printf("routing %d shard groups on %s (next key %d)\n", len(groups), lis.Addr(), rt.NextKey())
	if err := httpapi.Serve(ctx, lis, srv.handler()); err != nil {
		lg.Error("server failed", "error", err)
		os.Exit(1)
	}
}
