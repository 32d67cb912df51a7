// Package httpapi is the HTTP plumbing cfdserve and cfdrouter share: the
// uniform error envelope, per-path request metrics, bounded JSON request
// decoding, graceful serving, and the wire form of ChangeSets and
// violation deltas (wire.go) that travels between a router and its shard
// nodes.
package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	_ "net/http/pprof" // ServePprof serves the DefaultServeMux handlers
	"time"

	"repro/internal/incremental"
	"repro/internal/obs"
)

// MaxBodyBytes bounds every request body a daemon decodes, so no client
// can make a node buffer an arbitrarily large batch. The largest body
// the tree sends, a router's 1,000-op seed batch, is about 0.1 MB.
const MaxBodyBytes = 32 << 20

// Error is the uniform envelope every non-2xx response carries:
//
//	{"error": {"code": "...", "message": "...", "epoch": E?}}
//
// Code is the machine-dispatched classification; Epoch rides along on
// "fenced" errors so the caller can refresh its token without another
// round trip. On the client side an Error decoded by ReadError unwraps
// to incremental.ErrFenced or incremental.ErrReadOnly for those codes.
type Error struct {
	Code    string  `json:"code"`
	Message string  `json:"message"`
	Epoch   *uint64 `json:"epoch,omitempty"`
}

func (e *Error) Error() string { return e.Message }

func (e *Error) Unwrap() error {
	switch e.Code {
	case "fenced":
		return incremental.ErrFenced
	case "read_only":
		return incremental.ErrReadOnly
	}
	return nil
}

// CodeFor maps a response status to its envelope code. A cause that
// shares its status with another ("read_only" is a 409) is stamped by
// the caller through WriteError.
func CodeFor(status int) string {
	switch status {
	case http.StatusBadRequest:
		return "bad_request"
	case http.StatusForbidden:
		return "fenced"
	case http.StatusNotFound:
		return "not_found"
	case http.StatusMethodNotAllowed:
		return "method_not_allowed"
	case http.StatusConflict:
		return "conflict"
	case http.StatusGone:
		return "stale_cursor"
	case http.StatusRequestEntityTooLarge:
		return "too_large"
	case http.StatusBadGateway:
		return "bad_gateway"
	default:
		return "internal"
	}
}

// WriteJSON answers with status and v encoded as JSON.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v) // the status is sent; a failed write means the client left
}

// WriteError answers with status and the envelope e.
func WriteError(w http.ResponseWriter, status int, e Error) {
	WriteJSON(w, status, map[string]Error{"error": e})
}

// WriteErr answers with status and an envelope carrying CodeFor(status).
func WriteErr(w http.ResponseWriter, status int, err error) {
	WriteError(w, status, Error{Code: CodeFor(status), Message: err.Error()})
}

// ReadError decodes a non-2xx response's envelope. A body that is not an
// envelope yields an Error whose message is the response status.
func ReadError(resp *http.Response) *Error {
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16)) // a short read still carries the status
	var env struct {
		Error Error `json:"error"`
	}
	_ = json.Unmarshal(raw, &env) // a foreign body leaves the zero Error
	if env.Error.Message == "" {
		env.Error.Message = resp.Status
	}
	return &env.Error
}

// Method reports whether r uses method; otherwise it answers 405.
func Method(w http.ResponseWriter, r *http.Request, method string) bool {
	if r.Method == method {
		return true
	}
	WriteErr(w, http.StatusMethodNotAllowed, fmt.Errorf("%s required", method))
	return false
}

// DecodePost decodes a POST request's JSON body, at most MaxBodyBytes,
// into v. On failure it has answered 405, 413 or 400 and returns false.
func DecodePost(w http.ResponseWriter, r *http.Request, v any) bool {
	if !Method(w, r, http.MethodPost) {
		return false
	}
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxBodyBytes)).Decode(v)
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		WriteErr(w, http.StatusRequestEntityTooLarge, fmt.Errorf("request body over %d bytes", MaxBodyBytes))
	case err != nil:
		WriteErr(w, http.StatusBadRequest, fmt.Errorf("bad JSON body: %w", err))
	default:
		return true
	}
	return false
}

// Mux routes a daemon's endpoints. Every endpoint is wrapped in per-path
// request metrics on the daemon's registry — <daemon>_http_requests_total,
// <daemon>_http_errors_total (status >= 400) and
// <daemon>_http_request_seconds, labeled path — and a path no endpoint
// serves answers 404 in the envelope, without a series of its own.
type Mux struct {
	mux    http.ServeMux
	daemon string
	reg    *obs.Registry
}

// NewMux returns an empty Mux publishing on reg under the daemon's name.
func NewMux(daemon string, reg *obs.Registry) *Mux {
	m := &Mux{daemon: daemon, reg: reg}
	m.mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		WriteErr(w, http.StatusNotFound, fmt.Errorf("no endpoint %s", r.URL.Path))
	})
	return m
}

// Handle registers h at path. The metric handles are registered here, so
// the request path only does atomic adds.
func (m *Mux) Handle(path string, h http.HandlerFunc) {
	l := obs.L("path", path)
	reqs := m.reg.Counter(m.daemon+"_http_requests_total", "HTTP requests served, by endpoint.", l)
	errs := m.reg.Counter(m.daemon+"_http_errors_total", "HTTP responses with status >= 400, by endpoint.", l)
	dur := m.reg.DurationHistogram(m.daemon+"_http_request_seconds", "HTTP request latency, by endpoint.", l)
	m.mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := statusWriter{ResponseWriter: w}
		h(&sw, r)
		reqs.Inc()
		if sw.status >= 400 {
			errs.Inc()
		}
		dur.ObserveSince(start)
	})
}

func (m *Mux) ServeHTTP(w http.ResponseWriter, r *http.Request) { m.mux.ServeHTTP(w, r) }

// Metrics serves reg in the Prometheus text format.
func Metrics(reg *obs.Registry) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !Method(w, r, http.MethodGet) {
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.WritePrometheus(w) // the status is sent; a failed write means the client left
	}
}

// statusWriter records the response status so the middleware can count
// error responses; an implicit 200 (first Write without WriteHeader) is
// recorded too.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// Serve serves h on lis until ctx is cancelled, then shuts down
// gracefully: the listener closes, in-flight responses are flushed, and
// only then does the call return.
func Serve(ctx context.Context, lis net.Listener, h http.Handler) error {
	hs := &http.Server{Handler: h}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(lis) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// ServePprof serves net/http/pprof on addr, a second, private listener
// that lives as long as the process; an empty addr leaves it off.
func ServePprof(lg *slog.Logger, addr string) {
	if addr == "" {
		return
	}
	go func() {
		lg.Info("pprof listening", "addr", addr)
		if err := http.ListenAndServe(addr, nil); err != nil {
			lg.Error("pprof server failed", "error", err)
		}
	}()
}
