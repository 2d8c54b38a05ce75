package ccsd

import (
	"parsec/internal/cluster"
	"parsec/internal/molecule"
	"parsec/internal/ptg"
	"parsec/internal/tce"
)

// SimGraph rebuilds the exact graph RunSim executes for the same
// configuration, without running it: the same kernel inspection, the
// same GA block placement, and the same build options. Profiling uses
// it to replay an executed DAG through ptg.Analyze with measured
// durations (internal/obsv critical-path attribution).
func SimGraph(sys *molecule.System, spec VariantSpec, mcfg cluster.Config, rc SimRunConfig) (*ptg.Graph, error) {
	_, _, w, err := newSimMachine(sys, rc.Kernel, mcfg, nil)
	if err != nil {
		return nil, err
	}
	return BuildGraph(w, spec, Options{
		Nodes:         mcfg.Nodes,
		SegmentHeight: rc.SegmentHeight,
		WriteSpan:     rc.WriteSpan,
	}), nil
}

// AnalyzeVariantSim replays the DAG a simulated run executed, charging
// each instance the duration dur reports for its TaskRef (typically a
// lookup of measured trace spans). The returned Analysis carries the
// critical path and per-entry durations for class attribution.
func AnalyzeVariantSim(sys *molecule.System, spec VariantSpec, mcfg cluster.Config, rc SimRunConfig, dur func(ptg.TaskRef) int64) (ptg.Analysis, error) {
	g, err := SimGraph(sys, spec, mcfg, rc)
	if err != nil {
		return ptg.Analysis{}, err
	}
	return ptg.Analyze(g, func(in *ptg.Instance) int64 { return dur(in.Ref) })
}

// AnalyzeVariantReal is AnalyzeVariantSim for the single-node
// shared-memory graph a plan compiled with Options{Nodes: 1,
// SegmentHeight: segHeight} executes. The graph is built
// without a backing store — task bodies are never invoked during
// replay, only the dataflow is.
func AnalyzeVariantReal(w *tce.Workload, spec VariantSpec, segHeight int, dur func(ptg.TaskRef) int64) (ptg.Analysis, error) {
	g := BuildGraph(w, spec, Options{Nodes: 1, SegmentHeight: segHeight})
	return ptg.Analyze(g, func(in *ptg.Instance) int64 { return dur(in.Ref) })
}
