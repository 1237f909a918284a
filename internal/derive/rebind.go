package derive

import (
	"fmt"
	"strings"

	"dyncomp/internal/model"
	"dyncomp/internal/tdg"
)

// execRef is an index-based reference to one Exec statement: functions
// and statements are identified by position so the reference resolves
// against any architecture of the same structural shape.
type execRef struct {
	fn   int // index into Architecture.Functions
	stmt int // index into Function.Body
}

// probeRef is the index-based form of a Probe.
type probeRef struct {
	base tdg.NodeID
	pre  []execRef
	exec execRef
}

// ShapeKey returns a canonical fingerprint of everything that determines
// the derived graph's structure: topology, channel protocols and
// capacities, statement sequences, resource kinds and rotations, and the
// names feeding node labels. Dynamics — token streams, source schedules
// and counts, cost functions and resource speeds — are excluded: two
// architectures with equal shape keys derive structurally identical
// graphs and can share one derivation through Rebind or a Cache.
func ShapeKey(a *model.Architecture) (string, error) {
	if err := a.Validate(); err != nil {
		return "", err
	}
	fnIdx := make(map[*model.Function]int, len(a.Functions))
	for i, f := range a.Functions {
		fnIdx[f] = i
	}
	chIdx := make(map[*model.Channel]int, len(a.Channels))
	for i, ch := range a.Channels {
		chIdx[ch] = i
	}
	resIdx := make(map[*model.Resource]int, len(a.Resources))
	for i, r := range a.Resources {
		resIdx[r] = i
	}

	var b strings.Builder
	fmt.Fprintf(&b, "arch %s\n", a.Name)
	for i, ch := range a.Channels {
		fmt.Fprintf(&b, "ch %d %s kind=%d cap=%d src=%t sink=%t\n",
			i, ch.Name, ch.Kind, ch.Capacity, ch.Source != nil, ch.Sink != nil)
	}
	for i, f := range a.Functions {
		fmt.Fprintf(&b, "fn %d %s res=%d rot=%d body=", i, f.Name, resIdx[f.Resource], f.RotIndex)
		for _, st := range f.Body {
			switch s := st.(type) {
			case model.Read:
				fmt.Fprintf(&b, "R%d;", chIdx[s.Ch])
			case model.Write:
				fmt.Fprintf(&b, "W%d;", chIdx[s.Ch])
			case model.Exec:
				fmt.Fprintf(&b, "X%s;", s.Label)
			}
		}
		b.WriteByte('\n')
	}
	for i, r := range a.Resources {
		fmt.Fprintf(&b, "res %d %s kind=%d conc=%d rot=", i, r.Name, r.Kind, r.Concurrency)
		for _, f := range r.Rotation {
			fmt.Fprintf(&b, "%d;", fnIdx[f])
		}
		b.WriteByte('\n')
	}
	for i, s := range a.Sources {
		fmt.Fprintf(&b, "src %d %s ch=%d\n", i, s.Name, chIdx[s.Ch])
	}
	for i, s := range a.Sinks {
		fmt.Fprintf(&b, "sink %d %s ch=%d\n", i, s.Name, chIdx[s.Ch])
	}
	return b.String(), nil
}

// Rebind instantiates an existing derivation against another architecture
// of the same structural shape, without re-deriving: the frozen graph
// structure (nodes, arcs, topological order) is shared, while every arc
// weight, probe and boundary binding is rebuilt from the new
// architecture's exec statements, sources and sinks. The rebound result
// evaluates bit-identically to Derive(a, sameOptions) at a fraction of
// the cost, and carries no mutable state of the original, so one template
// can be rebound concurrently from many goroutines.
func Rebind(base *Result, a *model.Architecture) (*Result, error) {
	key, err := ShapeKey(a) // also validates a
	if err != nil {
		return nil, err
	}
	return rebind(base, a, key)
}

// rebind is Rebind with the target's shape key already computed (and a
// validated): the cache hit path calls it directly so each point builds
// the key exactly once.
func rebind(base *Result, a *model.Architecture, key string) (*Result, error) {
	if base.shapeKey == "" {
		return nil, fmt.Errorf("derive: result for %q carries no rebinding metadata", base.Arch.Name)
	}
	if key != base.shapeKey {
		return nil, fmt.Errorf("derive: architecture %q does not share the structural shape of %q",
			a.Name, base.Arch.Name)
	}

	// Resolve each referenced exec statement once, so arcs and probes
	// evaluating the same duration share one memoizing ExecInfo, exactly
	// as after a fresh Derive.
	var err error
	infos := map[execRef]*model.ExecInfo{}
	resolve := func(r execRef) (*model.ExecInfo, error) {
		if e, ok := infos[r]; ok {
			return e, nil
		}
		if r.fn < 0 || r.fn >= len(a.Functions) {
			return nil, fmt.Errorf("derive: rebind references function %d of %d", r.fn, len(a.Functions))
		}
		e, err := a.ExecInfoOf(a.Functions[r.fn], r.stmt)
		if err != nil {
			return nil, err
		}
		infos[r] = e
		return e, nil
	}

	weights := make([]tdg.Weight, len(base.recipes))
	for i, recipe := range base.recipes {
		durs := make([]*model.ExecInfo, len(recipe))
		for j, r := range recipe {
			if durs[j], err = resolve(r); err != nil {
				return nil, err
			}
		}
		weights[i] = weightOf(durs)
	}
	g, err := base.Graph.CloneReweighted(func(to tdg.NodeID, arc tdg.Arc) (tdg.Weight, error) {
		if arc.Tag == 0 {
			if !arc.Weight.IsIdentity() {
				return tdg.Weight{}, fmt.Errorf("derive: graph %q has an untagged weighted arc into %q; cannot rebind",
					base.Graph.Name, base.Graph.Nodes()[to].Name)
			}
			return tdg.Weight{}, nil
		}
		if arc.Tag < 1 || arc.Tag > len(weights) {
			return tdg.Weight{}, fmt.Errorf("derive: arc tag %d outside recipe table of size %d", arc.Tag, len(weights))
		}
		return weights[arc.Tag-1], nil
	})
	if err != nil {
		return nil, err
	}

	probes := make([]Probe, len(base.probeRefs))
	for i, pr := range base.probeRefs {
		exec, err := resolve(pr.exec)
		if err != nil {
			return nil, err
		}
		pre := make([]*model.ExecInfo, len(pr.pre))
		for j, r := range pr.pre {
			if pre[j], err = resolve(r); err != nil {
				return nil, err
			}
		}
		probes[i] = Probe{Base: pr.base, Pre: pre, Exec: exec}
	}

	res := &Result{
		Arch:      a,
		Graph:     g,
		Probes:    probes,
		Labels:    base.Labels,
		shapeKey:  key,
		opts:      base.opts,
		srcU:      base.srcU,
		chWrite:   base.chWrite,
		chRead:    base.chRead,
		recipes:   base.recipes,
		probeRefs: base.probeRefs,
	}
	// Patch the compiled weight tables against the rebound graph instead
	// of recompiling; the rebound program shares the template's structure
	// arrays and evaluator pool.
	if res.prog, err = base.prog.Rebound(g); err != nil {
		return nil, err
	}
	if err := res.buildBindings(); err != nil {
		return nil, err
	}
	return res, nil
}
