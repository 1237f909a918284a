package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// FuzzRunRequest is the API's panic wall: whatever bytes arrive as a
// POST /v1/run body — including inline architecture objects, which
// open a much larger input surface than scenario names — the handler
// answers a well-formed JSON response with one of the documented
// status codes, and never panics the process. CI runs this for a short
// -fuzztime smoke alongside FuzzDecodeArchitecture.
func FuzzRunRequest(f *testing.F) {
	for _, seed := range []string{
		``,
		`{}`,
		`{"scenario": "didactic"}`,
		`{"scenario": "didactic", "params": {"tokens": 50}}`,
		`{"engine": "reference", "scenario": "pipeline", "options": {"limit_ns": 1000}}`,
		`{"engine": "hybrid", "scenario": "didactic"}`,
		`{"scenario": "ghost"}`,
		`{"scenario": "didactic", "params": {"ghost": 1}}`,
		`{"architecture": {"version": 1}}`,
		`{"architecture": {"version": 99, "name": "x"}}`,
		`{"scenario": "didactic", "architecture": {"version": 1, "name": "x"}}`,
		`{"architecture": ` + inlineSpec + `}`,
		`{"architecture": ` + inlineSpec + `, "params": {"period": -1}}`,
		`{"architecture": ` + inlineSpec + `, "params": {"ghost": 3}}`,
		`{"scenario": "didactic"} trailing`,
		`[1, 2, 3]`,
		`{"options": {"group": ["F1"]}}`,
	} {
		f.Add([]byte(seed))
	}

	s := New(Config{})
	defer s.Close()
	h := s.Handler()

	allowed := map[int]bool{
		http.StatusOK:                    true,
		http.StatusBadRequest:            true,
		http.StatusRequestEntityTooLarge: true,
		http.StatusUnprocessableEntity:   true,
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest(http.MethodPost, "/v1/run", strings.NewReader(string(body)))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)

		if !allowed[rec.Code] {
			t.Fatalf("status %d for body %q", rec.Code, body)
		}
		var payload json.RawMessage
		if err := json.Unmarshal(rec.Body.Bytes(), &payload); err != nil {
			t.Fatalf("non-JSON response %q for body %q", rec.Body.String(), body)
		}
		if rec.Code != http.StatusOK {
			var er ErrorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Err.Code == "" {
				t.Fatalf("status %d without a structured error: %q", rec.Code, rec.Body.String())
			}
		}
	})
}

// FuzzChunkRequest is the same panic wall for the worker side of the
// distributed sweep fabric: whatever bytes arrive as a POST /v1/chunks
// body — a whole sweep request plus an index selection — the handler
// answers one of the endpoint's documented statuses with a JSON body,
// a structured ErrorResponse on every non-200, and never panics the
// process. Point failures inside a valid chunk are per-point errors in
// a 200, not statuses. CI runs this for a short -fuzztime smoke too.
func FuzzChunkRequest(f *testing.F) {
	for _, seed := range []string{
		``,
		`{}`,
		`{"indices": [0]}`,
		`{"scenario": "didactic", "axes": [{"name": "seed", "values": [1, 2, 3]}], "params": {"tokens": 30}, "indices": [0, 2]}`,
		`{"scenario": "didactic", "axes": [{"name": "stages", "values": [0, 1]}], "params": {"tokens": 30}, "indices": [1, 0]}`,
		`{"scenario": "chain", "axes": [{"name": "seed", "values": [1, 2]}], "params": {"tokens": 30}, "options": {"batch_width": 2}, "indices": [0, 1]}`,
		`{"engine": "hybrid", "scenario": "didactic", "axes": [{"name": "seed", "values": [1]}], "params": {"tokens": 30}, "indices": [0]}`,
		`{"scenario": "didactic", "axes": [{"name": "seed", "values": [1, 2]}], "indices": []}`,
		`{"scenario": "didactic", "axes": [{"name": "seed", "values": [1, 2]}], "indices": [2]}`,
		`{"scenario": "didactic", "axes": [{"name": "seed", "values": [1, 2]}], "indices": [-1]}`,
		`{"scenario": "didactic", "axes": [{"name": "seed", "values": [1, 2]}], "indices": [1, 1]}`,
		`{"scenario": "didactic", "axes": [{"name": "seed", "values": [1]}], "options": {"sample_tolerance": 0.1}, "indices": [0]}`,
		`{"scenario": "ghost", "axes": [{"name": "seed", "values": [1]}], "indices": [0]}`,
		`{"scenario": "didactic", "axes": [{"name": "ghost", "values": [1]}], "indices": [0]}`,
		`{"architecture": ` + inlineSpec + `, "axes": [{"name": "period", "values": [700, 800]}], "indices": [0, 1]}`,
		`{"scenario": "didactic", "axes": [{"name": "seed", "values": [1]}], "indices": [0]} trailing`,
		`{"scenario": "didactic", "axes": [{"name": "seed", "values": [1]}], "indices": "0"}`,
		`[1, 2, 3]`,
	} {
		f.Add([]byte(seed))
	}

	s := New(Config{})
	defer s.Close()
	h := s.Handler()

	allowed := map[int]bool{
		http.StatusOK:                    true,
		http.StatusBadRequest:            true,
		http.StatusRequestEntityTooLarge: true,
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest(http.MethodPost, "/v1/chunks", strings.NewReader(string(body)))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)

		if !allowed[rec.Code] {
			t.Fatalf("status %d for body %q", rec.Code, body)
		}
		var payload json.RawMessage
		if err := json.Unmarshal(rec.Body.Bytes(), &payload); err != nil {
			t.Fatalf("non-JSON response %q for body %q", rec.Body.String(), body)
		}
		if rec.Code != http.StatusOK {
			var er ErrorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Err.Code == "" {
				t.Fatalf("status %d without a structured error: %q", rec.Code, rec.Body.String())
			}
		}
	})
}
