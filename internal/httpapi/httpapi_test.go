package httpapi

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/incremental"
)

// ReadError recovers the sentinel a role refusal stands for, and falls
// back to the status line for a body that is not an envelope.
func TestReadError(t *testing.T) {
	for _, tc := range []struct {
		write    func(w http.ResponseWriter)
		sentinel error
		msg      string
	}{
		{func(w http.ResponseWriter) { WriteErr(w, http.StatusForbidden, incremental.ErrFenced) }, incremental.ErrFenced, incremental.ErrFenced.Error()},
		{func(w http.ResponseWriter) {
			WriteError(w, http.StatusConflict, Error{Code: "read_only", Message: "standby"})
		}, incremental.ErrReadOnly, "standby"},
		{func(w http.ResponseWriter) { WriteErr(w, http.StatusConflict, fmt.Errorf("busy")) }, nil, "busy"},
		{func(w http.ResponseWriter) { http.Error(w, "plain", http.StatusBadGateway) }, nil, "502 Bad Gateway"},
	} {
		rec := httptest.NewRecorder()
		tc.write(rec)
		resp := rec.Result()
		e := ReadError(resp)
		if e.Message != tc.msg {
			t.Errorf("message = %q, want %q", e.Message, tc.msg)
		}
		for _, s := range []error{incremental.ErrFenced, incremental.ErrReadOnly} {
			if errors.Is(e, s) != (s == tc.sentinel) {
				t.Errorf("%q: errors.Is(%v) = %v", e.Message, s, !(s == tc.sentinel))
			}
		}
	}
}
