package ccsd

import (
	"time"

	"parsec/internal/ga"
	"parsec/internal/ptg"
	"parsec/internal/runtime"
	"parsec/internal/sched"
	"parsec/internal/tce"
	"parsec/internal/trace"
)

// RealResult is the outcome of a shared-memory execution with real data.
type RealResult struct {
	Energy float64
	Report runtime.Report
}

// RunReal executes one variant of the ported subroutine with real tensor
// arithmetic on the goroutine runtime and returns the correlation-energy
// functional of the output. All variants must agree with the serial
// reference to ~14 digits (§IV-A).
func RunReal(w *tce.Workload, spec VariantSpec, workers int) (RealResult, error) {
	return runRealWithOptions(w, spec, workers, 0, sched.SharedQueue)
}

// RunRealQueued is RunReal with an explicit ready-queue structure, for
// comparing the shared queue against PaRSEC-style per-worker queues
// (§IV-D) on the real workload rather than a microbenchmark.
func RunRealQueued(w *tce.Workload, spec VariantSpec, workers int, queue sched.QueueMode) (RealResult, error) {
	return runRealWithOptions(w, spec, workers, 0, queue)
}

// RunRealPerturbed is RunRealQueued with a per-task delay hook — the
// real-runtime analogue of a simulated straggler. The returned energy
// must still match the serial reference bit-for-bit at the 1e-12 level:
// fault recovery may reshuffle who computes what, never what is
// computed.
func RunRealPerturbed(w *tce.Workload, spec VariantSpec, workers int, queue sched.QueueMode, delay func(worker int, ref ptg.TaskRef) time.Duration) (RealResult, error) {
	return runRealDelayed(w, spec, workers, 0, queue, nil, delay)
}

// runRealWithOptions additionally overrides the GEMM segment height
// (<= 0 keeps the variant default), for the §IV-A locality/parallelism
// ablation.
func runRealWithOptions(w *tce.Workload, spec VariantSpec, workers, segHeight int, queue sched.QueueMode) (RealResult, error) {
	return runRealTraced(w, spec, workers, segHeight, queue, nil)
}

// runRealTraced is runRealWithOptions with an optional trace sink;
// when tr is non-nil every completed task is recorded through
// runtime.TraceObserver.
func runRealTraced(w *tce.Workload, spec VariantSpec, workers, segHeight int, queue sched.QueueMode, tr *trace.Trace) (RealResult, error) {
	return runRealDelayed(w, spec, workers, segHeight, queue, tr, nil)
}

// runRealDelayed is the full-option form behind every real-execution
// entry point, adding the fault-injection task-delay hook.
func runRealDelayed(w *tce.Workload, spec VariantSpec, workers, segHeight int, queue sched.QueueMode, tr *trace.Trace, delay func(int, ptg.TaskRef) time.Duration) (RealResult, error) {
	store := filledStore(w)
	g := BuildGraph(w, spec, Options{Nodes: 1, Store: store, SegmentHeight: segHeight})
	return runKernelGraph(w, spec, g, store, runtime.Config{Workers: workers, Queues: queue, TaskDelay: delay}, tr)
}

// filledStore returns a fresh single-node store holding the workload's
// two input tensors, every distinct block filled, and an empty output
// array: the state one real execution starts from.
func filledStore(w *tce.Workload) *ga.Store {
	store := ga.NewStore(1)
	aName, bName := w.InputTensors()
	for _, name := range []string{aName, bName} {
		arr := store.Create(name)
		for _, ref := range w.UniqueBlocks(name) {
			w.FillBlock(ref, arr.GetOrCreate(ref.Key, ref.Dims))
		}
	}
	store.Create(tce.TensorC)
	return store
}

// runKernelGraph executes a kernel graph bound to store on the goroutine
// runtime — the variant picks the ready-queue policy, tr (if non-nil)
// records every task — and reduces the output array to the energy.
func runKernelGraph(w *tce.Workload, spec VariantSpec, g *ptg.Graph, store *ga.Store, rcfg runtime.Config, tr *trace.Trace) (RealResult, error) {
	rcfg.Policy = sched.PriorityOrder
	if !spec.UsePriorities() {
		rcfg.Policy = sched.LIFOOrder
	}
	if tr != nil {
		rcfg.Observer = runtime.TraceObserver(0, tr)
	}
	rep, err := runtime.Run(g, rcfg)
	if err != nil {
		return RealResult{}, err
	}
	return RealResult{
		Energy: w.Energy(store.Array(tce.TensorC)),
		Report: rep,
	}, nil
}

// ReferenceEnergy computes the ground-truth energy with the serial
// reference executor.
func ReferenceEnergy(w *tce.Workload) float64 {
	a, b := w.Materialize()
	return w.Energy(w.RunReference(a, b))
}
