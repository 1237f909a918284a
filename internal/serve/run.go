package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"

	"dyncomp/internal/archjson"
	"dyncomp/internal/engine"
	"dyncomp/internal/zoo"
)

// RequestError carries a validation failure to the HTTP layer: the
// status to answer with, a stable machine-readable code and a
// human-readable message. It is exported because the distributed
// coordinator (internal/shard) compiles the same wire requests through
// CompileSweep and relays these verbatim to its own callers.
type RequestError struct {
	Status int
	Code   string
	Msg    string
}

func (e *RequestError) Error() string { return e.Msg }

func requestErrorf(status int, code, format string, args ...any) *RequestError {
	return &RequestError{Status: status, Code: code, Msg: fmt.Sprintf(format, args...)}
}

// evaluate runs one evaluation on the caller's request context,
// confining a panic to an error, and answers a failure: a passed
// deadline answers 504 deadline_exceeded, a cancelled context (the
// caller went away) gets no answer, and any other error answers status
// and code. It reports whether fn succeeded.
func evaluate(w http.ResponseWriter, what string, status int, code string, fn func() error) bool {
	err := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("%s: panic: %v", what, r)
			}
		}()
		return fn()
	}()
	switch {
	case err == nil:
		return true
	case errors.Is(err, context.DeadlineExceeded):
		WriteError(w, http.StatusGatewayTimeout, CodeDeadlineExceeded, "%s exceeded the request deadline", what)
	case errors.Is(err, context.Canceled):
		// The caller went away; there is nobody to answer.
	default:
		WriteError(w, status, code, "%v", err)
	}
	return false
}

// handleRun serves POST /v1/run: decode, resolve the model source (a
// registered scenario or an inline architecture), evaluate
// synchronously on the caller's request context (a dropped connection
// cancels the run at the engine's granularity), and answer with the
// unified result plus a cache snapshot.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	var req RunRequest
	if aerr := DecodeJSON(w, r, &req); aerr != nil {
		WriteError(w, aerr.Status, aerr.Code, "%s", aerr.Msg)
		return
	}
	pm := zoo.ParamMap(req.Params)
	eng, src, spec, aerr := resolveSource(req.Engine, req.Scenario, req.Architecture, req.Params)
	if aerr != nil {
		WriteError(w, aerr.Status, aerr.Code, "%s", aerr.Msg)
		return
	}
	group, aerr := hybridGroup(eng, src, req.Options.Group, pm)
	if aerr != nil {
		WriteError(w, aerr.Status, aerr.Code, "%s", aerr.Msg)
		return
	}
	a, err := src.Build(pm)
	if err != nil {
		// A spec that fails to build is the request's fault: its binding
		// resolved to values the structural check cannot see (e.g. a
		// speed of zero). A scenario that fails to build is a
		// well-formed request whose model could not be built.
		if archjson.ErrCode(err) != "" {
			WriteError(w, http.StatusBadRequest, CodeInvalidArchitecture, "%v", err)
		} else {
			WriteError(w, http.StatusUnprocessableEntity, CodeRunFailed, "%v", err)
		}
		return
	}
	if !s.admitPoints(w, r, 1) {
		return
	}

	opts := req.Options.engineOptions(group)
	opts.Cache = s.cache
	var res *engine.Result
	if !evaluate(w, "run", http.StatusUnprocessableEntity, CodeRunFailed, func() (err error) {
		res, err = eng.Run(r.Context(), a, opts)
		return err
	}) {
		return
	}
	s.runs.Inc(eng.Name())
	hits, misses := s.cache.Stats()
	resp := RunResponse{
		Engine:   eng.Name(),
		Scenario: req.Scenario,
		Result:   resultJSON(res),
		Cache:    CacheStats{Shapes: s.cache.Shapes(), Hits: hits, Misses: misses},
	}
	if spec != nil {
		resp.Architecture = spec.Name
	}
	WriteJSON(w, http.StatusOK, resp)
}
