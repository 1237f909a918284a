package serve

// This file resolves the model a request evaluates. POST /v1/run,
// /v1/sweeps (and through CompileSweep /v1/chunks and the coordinator)
// and /v1/optimize name either a registered scenario or carry an
// inline "architecture" object — a spec in the open JSON model format
// (internal/archjson, docs/MODEL_FORMAT.md). Both resolve here, once,
// to a zoo.Source; everything downstream checks parameters, groups and
// builds through that source. An inline spec is built through the same
// model.Validate path the compiled-in scenarios use, and the process-
// wide derivation cache keys on the built model's structural shape, so
// two inline requests carrying the same structure rebind one cached
// temporal dependency graph exactly as repeated scenario requests do.

import (
	"encoding/json"
	"net/http"
	"strings"

	"dyncomp/internal/archjson"
	"dyncomp/internal/engine"
	"dyncomp/internal/zoo"
)

// resolveSource validates the engine name and resolves the model
// source of a request: the inline architecture when one is present,
// the named scenario otherwise, never both. The parameters are checked
// against the source. The decoded spec comes back too (nil for a
// scenario), for the spec-only data /v1/optimize reads.
func resolveSource(engineName, scenario string, architecture json.RawMessage, params map[string]int64) (engine.Engine, zoo.Source, *archjson.Spec, *RequestError) {
	inline := hasArchitecture(architecture)
	if inline && scenario != "" {
		return nil, zoo.Source{}, nil, requestErrorf(http.StatusBadRequest, CodeInvalidArchitecture,
			"scenario and architecture are mutually exclusive")
	}
	if engineName == "" {
		engineName = "equivalent"
	}
	eng, err := engine.Lookup(engineName)
	if err != nil {
		return nil, zoo.Source{}, nil, requestErrorf(http.StatusBadRequest, CodeUnknownEngine, "%v", err)
	}
	var (
		src  zoo.Source
		spec *archjson.Spec
	)
	if inline {
		var aerr *RequestError
		if spec, aerr = decodeArchitecture(architecture); aerr != nil {
			return nil, zoo.Source{}, nil, aerr
		}
		src = spec.Source()
	} else {
		sc, err := zoo.LookupScenario(scenario)
		if err != nil {
			return nil, zoo.Source{}, nil, requestErrorf(http.StatusBadRequest, CodeUnknownScenario, "%v", err)
		}
		src = sc.Source()
	}
	if err := src.Check(params); err != nil {
		return nil, zoo.Source{}, nil, requestErrorf(http.StatusBadRequest, CodeUnknownParam, "%v", err)
	}
	return eng, src, spec, nil
}

// hybridGroup resolves the abstraction group for the hybrid engine at
// p: the request's explicit group wins, then the source's canonical
// group; sources without one (randomized structures, specs declaring
// no group) require the explicit group.
func hybridGroup(eng engine.Engine, src zoo.Source, requested []string, p zoo.Params) ([]string, *RequestError) {
	if eng.Name() != "hybrid" || len(requested) > 0 {
		return requested, nil
	}
	if src.Group == nil {
		return nil, requestErrorf(http.StatusBadRequest, CodeMissingGroup,
			"%s %q has no canonical hybrid group; set options.group", src.Kind, src.Name)
	}
	return src.Group(p), nil
}

// hasArchitecture reports whether a request actually carries an inline
// spec — an explicit JSON null counts as absent, like an omitted field.
func hasArchitecture(raw []byte) bool {
	s := strings.TrimSpace(string(raw))
	return s != "" && s != "null"
}

// decodeArchitecture decodes and validates an inline spec, mapping the
// archjson error taxonomy onto the wire codes: oversize specs answer
// 413 like oversize bodies, an unsupported format version gets its own
// code, and everything else is invalid_architecture.
func decodeArchitecture(raw []byte) (*archjson.Spec, *RequestError) {
	spec, err := archjson.Decode(raw)
	if err != nil {
		switch archjson.ErrCode(err) {
		case archjson.CodeTooLarge:
			return nil, requestErrorf(http.StatusRequestEntityTooLarge, CodeBodyTooLarge, "%v", err)
		case archjson.CodeVersion:
			return nil, requestErrorf(http.StatusBadRequest, CodeUnsupportedVersion, "%v", err)
		default:
			return nil, requestErrorf(http.StatusBadRequest, CodeInvalidArchitecture, "%v", err)
		}
	}
	return spec, nil
}
