package runtime

import (
	"parsec/internal/trace"
)

// TraceObserver returns an Observer that records every completed task
// into tr as it completes: one trace.Trace.Add — its mutex, a label
// formatted with fmt — per task. No run path of the repository uses it
// any more: Execute, the service and every netrun rank record 24-byte
// spans in the executor (Executor.Record, RunRecorded) and label them
// after the run with trace.Trace.AddSpans. It stays for the
// parsec.RuntimeTraceObserver facade, whose caller brings a graph of
// their own and a Config.Observer to put this in, and for the tests
// that pin the Observer contract. The events are the ones AddSpans
// builds: worker index as the thread lane, canonical reference string
// (e.g. "GEMM(1,2,3)") as the label.
func TraceObserver(node int, tr *trace.Trace) func(Event) {
	return func(e Event) {
		tr.Add(trace.Event{
			Node:   node,
			Thread: e.Worker,
			Seq:    e.Seq,
			Class:  e.Task.Class,
			Label:  e.Task.String(),
			Start:  int64(e.Start),
			End:    int64(e.End),
		})
	}
}
