package dyncomp

import (
	"dyncomp/internal/archjson"
	"dyncomp/internal/zoo"
)

// ArchSpec is a validated architecture description in the open JSON
// model format: a versioned, parameterized document declaring channels,
// functions, resources, mapping and environment, decodable by any
// dyncomp process (library, CLI or server) with no registered scenario.
// See docs/MODEL_FORMAT.md for the schema reference. Obtain one with
// DecodeArchitecture or ExportArchitecture; instantiate it with
// BuildArchitecture.
type ArchSpec = archjson.Spec

// Stable machine-readable codes carried by every architecture-format
// error, shared verbatim with the HTTP layer's error bodies.
const (
	// ArchCodeInvalid marks a spec that violates the schema or resolves
	// to an invalid configuration.
	ArchCodeInvalid = archjson.CodeInvalid
	// ArchCodeVersion marks a spec declaring an unsupported format
	// version.
	ArchCodeVersion = archjson.CodeVersion
	// ArchCodeTooLarge marks a document over the decoder's size cap.
	ArchCodeTooLarge = archjson.CodeTooLarge
)

// ArchErrorCode extracts the stable code from an error returned by the
// architecture-format functions ("" for foreign errors).
func ArchErrorCode(err error) string { return archjson.ErrCode(err) }

// DecodeArchitecture parses and fully validates a JSON architecture
// document. A non-nil error always carries a stable code (see
// ArchErrorCode); a nil error guarantees the spec is schema-valid,
// though building may still fail for specific parameter bindings.
func DecodeArchitecture(data []byte) (*ArchSpec, error) { return archjson.Decode(data) }

// BuildArchitecture instantiates a decoded spec into a runnable
// architecture, binding the given parameters over the spec's declared
// defaults (nil: all defaults). Unknown parameter names and bindings
// that resolve to invalid configurations are reported as
// ArchCodeInvalid errors, never panics.
func BuildArchitecture(spec *ArchSpec, params map[string]int64) (*Architecture, error) {
	if err := spec.CheckParams(params); err != nil {
		return nil, err
	}
	return spec.Build(zoo.ParamMap(params))
}

// ExportArchitecture converts a programmatically built architecture
// into a spec that round-trips: building the exported spec yields a
// model whose evaluation is bit-exact against the original on every
// engine. Cost, schedule and token functions are tabulated over the
// model's declared token counts, so exporting requires every source to
// declare a finite count.
func ExportArchitecture(a *Architecture) (*ArchSpec, error) { return archjson.Export(a) }

// MarshalArchitecture renders a spec as indented JSON, the inverse of
// DecodeArchitecture.
func MarshalArchitecture(spec *ArchSpec) ([]byte, error) { return archjson.Marshal(spec) }
