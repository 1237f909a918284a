package zoo

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"dyncomp/internal/maxplus"
	"dyncomp/internal/model"
)

// Scenario is a named, parameterized architecture family. Scenarios are
// the second half of the engine × scenario matrix: any registered engine
// (internal/engine) can run any registered scenario by name, which is
// what the CLIs, the cross-engine equivalence tests and the experiment
// harness iterate over.
type Scenario struct {
	// Name is the registry key ("didactic", "pipeline", ...).
	Name string
	// Desc is a one-line description for CLI usage texts.
	Desc string
	// ParamsHelp lists the recognized parameter names (absent parameters
	// fall back to scenario defaults), for CLI usage texts.
	ParamsHelp string
	// Build maps named integer parameters to an architecture. It must be
	// deterministic and safe for concurrent calls.
	Build func(Params) *model.Architecture
	// HybridGroup returns the scenario's canonical function group for
	// the hybrid engine on the architecture Build(p) — the group is
	// closed under resources and emits through one boundary channel.
	// Nil when the scenario has no canonical group (e.g. randomized
	// structures); the hybrid engine is then skipped for it.
	HybridGroup func(p Params) []string
}

// ParamNames returns the scenario's recognized parameter names, parsed
// from ParamsHelp (a comma-separated list). An empty ParamsHelp yields
// nil: the scenario takes no parameters.
func (s Scenario) ParamNames() []string {
	if strings.TrimSpace(s.ParamsHelp) == "" {
		return nil
	}
	var names []string
	for _, n := range strings.Split(s.ParamsHelp, ",") {
		if n = strings.TrimSpace(n); n != "" {
			names = append(names, n)
		}
	}
	return names
}

// CheckParams rejects parameters the scenario does not recognize — the
// builders silently fall back to defaults on absent names, so a typoed
// parameter would otherwise be ignored without a trace. Serving layers
// decoding parameters from JSON call this before Build.
func (s Scenario) CheckParams(p map[string]int64) error {
	known := s.ParamNames()
	var bad []string
	for name := range p {
		found := false
		for _, k := range known {
			if k == name {
				found = true
				break
			}
		}
		if !found {
			bad = append(bad, name)
		}
	}
	if len(bad) == 0 {
		return nil
	}
	sort.Strings(bad)
	return fmt.Errorf("zoo: scenario %q: unknown parameter(s) %s (recognized: %s)",
		s.Name, strings.Join(bad, ", "), s.ParamsHelp)
}

// GroupFor returns the scenario's canonical abstraction group when the
// named engine needs one ("hybrid"), and nil otherwise — including when
// the scenario declares no canonical group, which callers should treat
// as "this engine × scenario combination is not runnable by default".
func (s Scenario) GroupFor(engineName string, p Params) []string {
	if engineName != "hybrid" || s.HybridGroup == nil {
		return nil
	}
	return s.HybridGroup(p)
}

// Source is a model family as the serving layer and the sweep CLI see
// it once a request or a command line is resolved: a registered
// scenario (Scenario.Source) or an inline architecture description
// (archjson's Spec.Source). Everything downstream of the resolution
// checks parameters, groups and builds through it without asking which
// kind it came from.
type Source struct {
	// Kind says what the source was resolved from ("scenario" or
	// "architecture"), for messages.
	Kind string
	// Name is the scenario or architecture name.
	Name string
	// Check rejects parameter names the family does not recognize.
	Check func(map[string]int64) error
	// Build maps a parameter binding to an architecture. It never
	// panics: a builder failure comes back as an error.
	Build func(Params) (*model.Architecture, error)
	// Group returns the canonical hybrid abstraction group at a
	// parameter binding. Nil when the family has none.
	Group func(Params) []string
}

// Source returns the scenario as a model source. Its Build confines the
// builder's panics (the model layer uses them for invalid
// configurations) to an error naming the scenario.
func (s Scenario) Source() Source {
	return Source{
		Kind:  "scenario",
		Name:  s.Name,
		Check: s.CheckParams,
		Build: func(p Params) (a *model.Architecture, err error) {
			defer func() {
				if r := recover(); r != nil {
					a, err = nil, fmt.Errorf("scenario %q: %v", s.Name, r)
				}
			}()
			if a = s.Build(p); a == nil {
				return nil, fmt.Errorf("scenario %q built no architecture", s.Name)
			}
			return a, nil
		},
		Group: s.HybridGroup,
	}
}

// ParamMap is a literal Params implementation for tests and defaults.
type ParamMap map[string]int64

// Lookup implements Params.
func (m ParamMap) Lookup(name string) (int64, bool) {
	v, ok := m[name]
	return v, ok
}

var (
	scenarioMu  sync.RWMutex
	scenarioReg = map[string]Scenario{}
)

// Register adds a scenario to the registry. It panics on an empty name,
// a nil Build, or a duplicate — programmer errors in an init function.
func Register(s Scenario) {
	if s.Name == "" {
		panic("zoo: Register with empty scenario name")
	}
	if s.Build == nil {
		panic(fmt.Sprintf("zoo: scenario %q has no Build", s.Name))
	}
	scenarioMu.Lock()
	defer scenarioMu.Unlock()
	if _, dup := scenarioReg[s.Name]; dup {
		panic(fmt.Sprintf("zoo: duplicate scenario %q", s.Name))
	}
	scenarioReg[s.Name] = s
}

// LookupScenario returns the scenario registered under name; the error
// of an unknown name lists every registered scenario.
func LookupScenario(name string) (Scenario, error) {
	scenarioMu.RLock()
	s, ok := scenarioReg[name]
	scenarioMu.RUnlock()
	if !ok {
		return Scenario{}, fmt.Errorf("zoo: unknown scenario %q (registered: %s)",
			name, strings.Join(ScenarioNames(), "|"))
	}
	return s, nil
}

// Scenarios returns every registered scenario, sorted by name.
func Scenarios() []Scenario {
	scenarioMu.RLock()
	defer scenarioMu.RUnlock()
	out := make([]Scenario, 0, len(scenarioReg))
	for _, s := range scenarioReg {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ScenarioNames returns the registered scenario names, sorted.
func ScenarioNames() []string {
	scenarioMu.RLock()
	defer scenarioMu.RUnlock()
	names := make([]string, 0, len(scenarioReg))
	for n := range scenarioReg {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// didacticHybridGroup is the canonical hybrid group of the (chained)
// didactic architecture: the last stage's hardware half {F3, F4} —
// closed under resource P2 of that stage, emitting through the final M6.
func didacticHybridGroup(stages int) []string {
	suffix := ""
	if stages > 1 {
		suffix = fmt.Sprintf("_%d", stages)
	}
	return []string{"F3" + suffix, "F4" + suffix}
}

func init() {
	Register(Scenario{
		Name:       "didactic",
		Desc:       "the paper's Fig. 1 example (Table I chained variant via stages)",
		ParamsHelp: "stages, tokens, period, seed, fifo",
		Build:      func(p Params) *model.Architecture { return DidacticFromParams(p) },
		HybridGroup: func(p Params) []string {
			return didacticHybridGroup(int(param(p, "stages", 1)))
		},
	})
	Register(Scenario{
		Name:       "chain",
		Desc:       "chained didactic stages in series (Table I Examples 2-4)",
		ParamsHelp: "stages, tokens, period, seed, fifo",
		Build: func(p Params) *model.Architecture {
			return DidacticChain(int(param(p, "stages", 2)), DidacticSpec{
				Tokens:  int(param(p, "tokens", 1000)),
				Period:  maxplus.T(param(p, "period", 1200)),
				Seed:    param(p, "seed", 41),
				UseFIFO: param(p, "fifo", 0) != 0,
			})
		},
		HybridGroup: func(p Params) []string {
			return didacticHybridGroup(int(param(p, "stages", 2)))
		},
	})
	Register(Scenario{
		Name:       "pipeline",
		Desc:       "the Fig. 5 synthetic linear pipeline",
		ParamsHelp: "xsize, tokens, period, seed",
		Build:      func(p Params) *model.Architecture { return PipelineFromParams(p) },
		HybridGroup: func(p Params) []string {
			// The tail of the pipeline: up to the last two stages.
			nfun := int(param(p, "xsize", 6)) - 1
			first := nfun - 1
			if first < 1 {
				first = 1
			}
			var group []string
			for i := first; i <= nfun; i++ {
				group = append(group, fmt.Sprintf("S%d", i))
			}
			return group
		},
	})
	Register(Scenario{
		Name:       "phased",
		Desc:       "phase-changing didactic workload (the adaptive engine's reference)",
		ParamsHelp: "tokens, period, seed, fifo, stages",
		Build:      func(p Params) *model.Architecture { return PhasedFromParams(p) },
		HybridGroup: func(p Params) []string {
			return didacticHybridGroup(int(param(p, "stages", 1)))
		},
	})
	Register(Scenario{
		Name:       "forkjoin",
		Desc:       "one producer fanning out to N parallel workers with a gather stage",
		ParamsHelp: "workers, tokens, period, seed",
		Build:      func(p Params) *model.Architecture { return ForkJoinFromParams(p) },
		HybridGroup: func(p Params) []string {
			return forkJoinHybridGroup(int(param(p, "workers", DefaultForkJoinWorkers)))
		},
	})
	Register(Scenario{
		Name:       "random",
		Desc:       "randomized-but-valid architecture (property-test structures)",
		ParamsHelp: "seed, tokens",
		Build:      func(p Params) *model.Architecture { return RandomFromParams(p) },
		// No canonical hybrid group: the structure varies with the seed.
	})
}
