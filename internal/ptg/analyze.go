package ptg

import (
	"fmt"
)

// Analysis summarizes the DAG structure of an instantiated graph under a
// task-duration model: total work, critical-path length (the span), and
// the resulting upper bound on achievable speedup. These are the
// work/span bounds that explain why chain organizations (v1) stop
// scaling while parallel-GEMM organizations (v5) continue (§IV-A).
type Analysis struct {
	Tasks        int
	Edges        int
	TotalWork    int64 // sum of task durations (ns)
	CriticalPath int64 // longest duration-weighted path (ns)
	// Path is one critical path, producer to final consumer.
	Path []TaskRef
	// PathDur holds the duration charged to each Path entry, so callers
	// can attribute the critical path to task classes (see
	// internal/obsv.Profile.SetCritical).
	PathDur []int64
	// MaxSpeedup is TotalWork / CriticalPath.
	MaxSpeedup float64
}

// String summarizes the work/span analysis in one line.
func (a Analysis) String() string {
	return fmt.Sprintf("tasks=%d edges=%d work=%.3fs span=%.3fs max-speedup=%.1f",
		a.Tasks, a.Edges, float64(a.TotalWork)/1e9, float64(a.CriticalPath)/1e9, a.MaxSpeedup)
}

// Analyze instantiates the graph and computes work/span under the given
// per-instance duration function (nanoseconds). It drives the same
// tracker used for execution, so the analyzed DAG is exactly the executed
// one.
func Analyze(g *Graph, dur func(*Instance) int64) (Analysis, error) {
	tr, err := NewTracker(g)
	if err != nil {
		return Analysis{}, err
	}
	var a Analysis
	a.Tasks = tr.NumInstances()

	// dist[inst] = longest finish time over paths ending at inst;
	// pred[inst] = predecessor on that path; durs[inst] = charge.
	dist := make(map[*Instance]int64, a.Tasks)
	pred := make(map[*Instance]*Instance, a.Tasks)
	durs := make(map[*Instance]int64, a.Tasks)

	queue := append([]*Instance(nil), tr.InitialReady()...)
	var last *Instance
	var dels []Delivery
	for len(queue) > 0 {
		in := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if err := tr.Start(in); err != nil {
			return a, err
		}
		d := dur(in)
		if d < 0 {
			d = 0
		}
		durs[in] = d
		finish := dist[in] + d
		dist[in] = finish
		a.TotalWork += d
		if finish > a.CriticalPath {
			a.CriticalPath = finish
			last = in
		}
		if dels, _, err = tr.Complete(in, dels[:0]); err != nil {
			return a, err
		}
		for _, del := range dels {
			a.Edges++
			if finish > dist[del.To] {
				dist[del.To] = finish
				pred[del.To] = in
			}
			ready, err := tr.Deliver(del.To, del.ToFlow, nil)
			if err != nil {
				return a, err
			}
			if ready {
				queue = append(queue, del.To)
			}
		}
	}
	if err := tr.CheckQuiescent(); err != nil {
		return a, err
	}
	for in := last; in != nil; in = pred[in] {
		a.Path = append(a.Path, in.Ref)
		a.PathDur = append(a.PathDur, durs[in])
	}
	// Reverse to producer-first order.
	for i, j := 0, len(a.Path)-1; i < j; i, j = i+1, j-1 {
		a.Path[i], a.Path[j] = a.Path[j], a.Path[i]
		a.PathDur[i], a.PathDur[j] = a.PathDur[j], a.PathDur[i]
	}
	if a.CriticalPath > 0 {
		a.MaxSpeedup = float64(a.TotalWork) / float64(a.CriticalPath)
	}
	return a, nil
}
