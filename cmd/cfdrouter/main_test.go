package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/httpapi"
)

// The daemon is tested against stub shard nodes that speak the cfdserve
// wire subset the router programs against (/v1/apply with X-Cfd-Epoch,
// /v1/stats, /v1/violations, /v1/repairs, /v1/promote, /v1/fence), each
// backed by a real monitor. The cfdserve side of the same contract is
// pinned by its own fencing wire test.

func custFixture(t *testing.T) (*repro.Schema, []*repro.CFD) {
	t.Helper()
	schema, err := repro.NewSchema("cust",
		repro.Attr("CC"), repro.Attr("AC"), repro.Attr("PN"),
		repro.Attr("NM"), repro.Attr("STR"), repro.Attr("CT"), repro.Attr("ZIP"))
	if err != nil {
		t.Fatal(err)
	}
	sigma, err := repro.ParseCFDSet(`
[CC, AC, PN] -> [STR, CT, ZIP]
[CC=01, AC=908, PN] -> [STR, CT=MH, ZIP]
`)
	if err != nil {
		t.Fatal(err)
	}
	return schema, sigma
}

// stubNode is one shard-group node: a monitor (or a follower wrapping
// one) behind the wire endpoints the router's httpBackend uses.
type stubNode struct {
	mu sync.Mutex
	m  *repro.Monitor
	f  *repro.MonitorFollower
}

func (n *stubNode) mon() *repro.Monitor {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.f != nil {
		return n.f.Monitor()
	}
	return n.m
}

func (n *stubNode) handler() http.Handler {
	mux := httpapi.NewMux("stub", repro.NewMetricsRegistry())
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
		var delta *repro.ViolationDelta
		if h := r.Header.Get("X-Cfd-Epoch"); h != "" {
			epoch, perr := strconv.ParseUint(h, 10, 64)
			if perr != nil {
				httpapi.WriteErr(w, http.StatusBadRequest, perr)
				return
			}
			delta, err = n.mon().ApplyAt(cs, epoch)
		} else {
			delta, err = n.mon().Apply(cs)
		}
		switch {
		case errors.Is(err, repro.ErrMonitorFenced):
			httpapi.WriteErr(w, http.StatusForbidden, err)
		case errors.Is(err, repro.ErrMonitorReadOnly):
			httpapi.WriteError(w, http.StatusConflict, httpapi.Error{Code: "read_only", Message: err.Error()})
		case err != nil:
			httpapi.WriteErr(w, http.StatusBadRequest, err)
		default:
			httpapi.WriteJSON(w, http.StatusOK, map[string]any{"delta": httpapi.EncodeDelta(delta)})
		}
	})
	mux.Handle("/v1/stats", func(w http.ResponseWriter, r *http.Request) {
		stats := map[string]any{
			"epoch": n.mon().Epoch(), "next_key": n.mon().NextKey(),
		}
		n.mu.Lock()
		f := n.f
		n.mu.Unlock()
		if f != nil {
			st := f.Status()
			stats["replica"] = map[string]any{
				"following": st.Following, "lag_bytes": st.LagBytes,
			}
		}
		httpapi.WriteJSON(w, http.StatusOK, stats)
	})
	mux.Handle("/v1/violations", func(w http.ResponseWriter, r *http.Request) {
		httpapi.WriteJSON(w, http.StatusOK, map[string]any{"total": n.mon().ViolationCount()})
	})
	// The cfdserve GET /v1/repairs shape, minus ETag/cursor machinery:
	// a throwaway suggester over the node's live violation set.
	mux.Handle("/v1/repairs", func(w http.ResponseWriter, r *http.Request) {
		sg, err := repro.WatchRepairs(n.mon(), repro.SuggestOptions{})
		if err != nil {
			httpapi.WriteErr(w, http.StatusBadRequest, err)
			return
		}
		defer sg.Close()
		sg.Refresh()
		sugs := sg.Suggestions()
		out := make([]map[string]any, 0, len(sugs))
		for _, s := range sugs {
			out = append(out, map[string]any{"id": s.ID, "kind": s.Kind.String(), "cost": s.Cost})
		}
		httpapi.WriteJSON(w, http.StatusOK, map[string]any{"suggestions": out, "total": len(sugs), "version": sg.Version()})
	})
	mux.Handle("/v1/promote", func(w http.ResponseWriter, r *http.Request) {
		n.mu.Lock()
		f := n.f
		n.mu.Unlock()
		if f == nil {
			httpapi.WriteErr(w, http.StatusConflict, errors.New("not a follower"))
			return
		}
		if err := f.Promote(); err != nil {
			httpapi.WriteErr(w, http.StatusConflict, err)
			return
		}
		httpapi.WriteJSON(w, http.StatusOK, map[string]any{"promoted": true, "epoch": f.Monitor().Epoch()})
	})
	mux.Handle("/v1/fence", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Epoch uint64 `json:"epoch"`
		}
		if !httpapi.DecodePost(w, r, &req) {
			return
		}
		n.mon().Fence(req.Epoch)
		httpapi.WriteJSON(w, http.StatusOK, map[string]any{"epoch": n.mon().Epoch(), "fenced": n.mon().Fenced()})
	})
	return mux
}

func postBody(t *testing.T, url, body string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v map[string]any
	_ = json.NewDecoder(resp.Body).Decode(&v)
	return resp.StatusCode, v
}

func getBody(t *testing.T, url string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v map[string]any
	_ = json.NewDecoder(resp.Body).Decode(&v)
	return resp.StatusCode, v
}

// startRouter builds a routerServer over the given shard groups and
// serves it from an httptest server.
func startRouter(t *testing.T, groups []repro.ClusterGroupConfig) (*routerServer, string) {
	t.Helper()
	rt, err := repro.NewClusterRouter(context.Background(), groups, repro.ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	srv := &routerServer{rt: rt, reg: repro.NewMetricsRegistry()}
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)
	return srv, ts.URL
}

func TestDaemonRoutesAcrossShards(t *testing.T) {
	schema, sigma := custFixture(t)
	nodes := make(map[string]*stubNode, 3)
	var groups []repro.ClusterGroupConfig
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("g%d", i)
		m, err := repro.NewMonitor(schema, sigma, repro.MonitorOptions{})
		if err != nil {
			t.Fatal(err)
		}
		node := &stubNode{m: m}
		ts := httptest.NewServer(node.handler())
		t.Cleanup(ts.Close)
		nodes[name] = node
		groups = append(groups, repro.ClusterGroupConfig{Name: name, Primary: newHTTPBackend(ts.URL, 10*time.Second)})
	}
	srv, url := startRouter(t, groups)

	// A routed batch: keys are allocated by the router and every tuple
	// lands on the shard the ring names — and nowhere else.
	code, res := postBody(t, url+"/v1/apply", `{"ops":[
		{"op":"insert","values":["01","908","1111111","Mike","Tree Ave.","MH","07974"]},
		{"op":"insert","values":["01","212","2222222","Joe","Elm Str.","NYC","01202"]},
		{"op":"insert","values":["01","215","3333333","Ben","Oak Ave.","PHI","19014"]}]}`)
	if code != http.StatusOK || fmt.Sprint(res["ops"]) != "3" {
		t.Fatalf("apply: %d %v", code, res)
	}
	keys := res["keys"].([]any)
	if len(keys) != 3 {
		t.Fatalf("keys = %v", keys)
	}
	for _, kv := range keys {
		key := int64(kv.(float64))
		_, ringRes := getBody(t, fmt.Sprintf("%s/v1/ring?key=%d", url, key))
		owner, _ := ringRes["owner"].(string)
		for name, node := range nodes {
			_, ok := node.mon().Get(key)
			if want := name == owner; ok != want {
				t.Fatalf("key %d: present=%v on %s, owner %s", key, ok, name, owner)
			}
		}
	}

	// A const-violating insert: the shard's delta comes back through the
	// router, and the cluster-wide /violations aggregate sees it.
	code, res = postBody(t, url+"/v1/insert", `{"values":["01","908","4444444","Eve","Elm Str.","NYC","01202"]}`)
	if code != http.StatusOK {
		t.Fatalf("insert: %d %v", code, res)
	}
	badKey := int64(res["key"].(float64))
	delta := res["delta"].(map[string]any)
	if added := delta["added"].([]any); len(added) == 0 {
		t.Fatalf("violating insert produced no delta: %v", res)
	}
	code, res = getBody(t, url+"/v1/violations")
	var wantTotal int64
	for _, node := range nodes {
		wantTotal += node.mon().ViolationCount()
	}
	if code != http.StatusOK || fmt.Sprint(res["total"]) != fmt.Sprint(wantTotal) || wantTotal == 0 {
		t.Fatalf("violations: %d %v, nodes hold %d", code, res, wantTotal)
	}

	// The live-repair fan-out merges each group's suggestions under its
	// name; the violating tuple's owner contributes at least one.
	code, res = getBody(t, url+"/v1/repairs")
	if code != http.StatusOK || res["total"].(float64) == 0 {
		t.Fatalf("repairs: %d %v, want a non-zero total", code, res)
	}
	rg := res["groups"].(map[string]any)
	if len(rg) != 3 {
		t.Fatalf("repairs groups = %v", rg)
	}
	owner := srv.rt.Owner(badKey)
	og := rg[owner].(map[string]any)
	if sugs := og["suggestions"].([]any); len(sugs) == 0 || og["node"] == "" {
		t.Fatalf("owner group %s repairs = %v", owner, og)
	}
	// Only /v1 spellings exist: the unversioned one 404s.
	if code, _ = getBody(t, url+"/repairs"); code != http.StatusNotFound {
		t.Fatalf("unversioned /repairs: %d, want 404", code)
	}

	// A routed update heals it; a routed delete removes the tuple from
	// its owner.
	code, res = postBody(t, url+"/v1/update", fmt.Sprintf(`{"key":%d,"attr":"CT","value":"MH"}`, badKey))
	if code != http.StatusOK {
		t.Fatalf("update: %d %v", code, res)
	}
	if removed := res["delta"].(map[string]any)["removed"].([]any); len(removed) == 0 {
		t.Fatalf("healing update removed nothing: %v", res)
	}
	code, _ = postBody(t, url+"/v1/delete", fmt.Sprintf(`{"key":%d}`, badKey))
	if code != http.StatusOK {
		t.Fatal("delete failed")
	}
	if _, ok := nodes[srv.rt.Owner(badKey)].mon().Get(badKey); ok {
		t.Fatal("deleted key still on its owner shard")
	}

	// Wire validation: delete with no key is refused up front.
	if code, _ = postBody(t, url+"/v1/apply", `{"ops":[{"op":"delete"}]}`); code != http.StatusBadRequest {
		t.Fatalf("keyless delete: %d, want 400", code)
	}

	// /stats reflects the allocator watermark and every group.
	_, st := getBody(t, url+"/v1/stats")
	if fmt.Sprint(st["next_key"]) != "4" {
		t.Fatalf("next_key = %v, want 4", st["next_key"])
	}
	if gs := st["groups"].([]any); len(gs) != 3 {
		t.Fatalf("stats groups = %v", gs)
	}
	_, ring := getBody(t, url+"/v1/ring")
	if members := ring["members"].([]any); len(members) != 3 {
		t.Fatalf("ring members = %v", members)
	}
}

func TestDaemonPromoteFailover(t *testing.T) {
	_, sigma := custFixture(t)
	schema, _ := custFixture(t)
	ctx := context.Background()
	p, err := repro.NewMonitor(schema, sigma, repro.MonitorOptions{Durable: t.TempDir(), RetainSegments: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	f, err := repro.FollowMonitor(ctx, sigma, repro.MonitorOptions{Durable: t.TempDir()},
		repro.FollowOptions{Source: repro.NewMonitorChunkSource(p)})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	pnode := &stubNode{m: p}
	fnode := &stubNode{f: f}
	pts := httptest.NewServer(pnode.handler())
	defer pts.Close()
	fts := httptest.NewServer(fnode.handler())
	defer fts.Close()
	_, url := startRouter(t, []repro.ClusterGroupConfig{{
		Name:     "g0",
		Primary:  newHTTPBackend(pts.URL, 10*time.Second),
		Standbys: []repro.ClusterBackend{newHTTPBackend(fts.URL, 10*time.Second)},
	}})

	code, res := postBody(t, url+"/v1/insert", `{"values":["01","908","1111111","Mike","Tree Ave.","MH","07974"]}`)
	if code != http.StatusOK {
		t.Fatalf("insert: %d %v", code, res)
	}
	for { // the standby catches up before failover
		n, err := f.Sync(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			break
		}
	}

	// Failover: the standby takes over under a bumped epoch, and the
	// router re-points writes with no re-seeding.
	code, res = postBody(t, url+"/v1/promote", `{"group":"g0"}`)
	if code != http.StatusOK || fmt.Sprint(res["epoch"]) != "1" {
		t.Fatalf("promote: %d %v", code, res)
	}
	code, res = postBody(t, url+"/v1/insert", `{"values":["01","212","2222222","Joe","Elm Str.","NYC","01202"]}`)
	if code != http.StatusOK {
		t.Fatalf("post-failover insert: %d %v", code, res)
	}
	newKey := int64(res["key"].(float64))
	if _, ok := f.Monitor().Get(newKey); !ok {
		t.Fatal("post-failover write did not land on the promoted standby")
	}

	// The deposed primary was fenced over the wire: direct writes are
	// refused, so its history can never fork.
	if !p.Fenced() {
		t.Fatal("deposed primary is not fenced")
	}
	var cs repro.ChangeSet
	cs.Insert(repro.Tuple{"01", "908", "9999999", "X", "Y", "MH", "07974"})
	if _, err := p.Apply(&cs); !errors.Is(err, repro.ErrMonitorFenced) {
		t.Fatalf("deposed primary accepted a write: %v", err)
	}

	// No standbys remain, so a second failover is refused.
	if code, _ = postBody(t, url+"/v1/promote", `{"group":"g0"}`); code != http.StatusConflict {
		t.Fatalf("second promote: %d, want 409", code)
	}
	_, st := getBody(t, url+"/v1/stats")
	g0 := st["groups"].([]any)[0].(map[string]any)
	if fmt.Sprint(g0["epoch"]) != "1" || fmt.Sprint(g0["standbys"]) != "0" {
		t.Fatalf("group status after failover = %v", g0)
	}
}
