package ptg

import (
	"fmt"
	"io"
)

// classColors give DAG nodes stable colors per task class in DOT output.
var dotColors = []string{
	"#c0392b", "#2e6da4", "#8e44ad", "#f1c40f", "#e67e22",
	"#7ed67e", "#16a085", "#2c3e50", "#95a5a6",
}

// ExportDOT writes the fully instantiated task graph in Graphviz DOT
// format: one node per task instance, one edge per dataflow dependency,
// labeled with the flow names. It walks the symbolic definition itself
// rather than a Skeleton, because it also draws what the skeleton omits
// (terminal data); the export exists for inspection and debugging of
// small problems.
func ExportDOT(g *Graph, w io.Writer) error {
	if err := g.Validate(); err != nil {
		return err
	}
	instances := make(map[TaskRef]bool)
	for _, tc := range g.Classes() {
		tc.Domain(func(a Args) { instances[TaskRef{Class: tc.Name, Args: a}] = true })
	}
	if _, err := fmt.Fprintf(w, "digraph %q {\n  rankdir=LR;\n  node [shape=box, style=filled, fontname=monospace];\n", g.Name); err != nil {
		return err
	}
	colorOf := map[string]string{}
	for i, tc := range g.Classes() {
		colorOf[tc.Name] = dotColors[i%len(dotColors)]
	}
	refs := make([]TaskRef, 0, len(instances))
	for r := range instances {
		refs = append(refs, r)
	}
	g.SortRefs(refs)
	for _, r := range refs {
		fmt.Fprintf(w, "  %q [fillcolor=%q];\n", r.String(), colorOf[r.Class])
	}
	for _, r := range refs {
		tc := g.ClassByName(r.Class)
		for _, f := range tc.Flows {
			for _, out := range f.Outs {
				if out.Guard != nil && !out.Guard(r.Args) {
					continue
				}
				switch {
				case out.Consumer != nil:
					to, flow := out.Consumer(r.Args)
					if !instances[to] {
						return fmt.Errorf("ptg: %v flow %s targets nonexistent %v", r, f.Name, to)
					}
					fmt.Fprintf(w, "  %q -> %q [label=%q];\n", r.String(), to.String(),
						f.Name+"→"+flow)
				case out.Data != nil:
					d := out.Data(r.Args)
					fmt.Fprintf(w, "  %q -> %q [style=dashed];\n  %q [shape=cylinder, fillcolor=\"#dddddd\"];\n",
						r.String(), d.ID, d.ID)
				}
			}
			if dep, ok := matchIn(f, r.Args); ok && dep.Data != nil {
				d := dep.Data(r.Args)
				fmt.Fprintf(w, "  %q -> %q [style=dashed];\n  %q [shape=cylinder, fillcolor=\"#dddddd\"];\n",
					d.ID, r.String(), d.ID)
			}
		}
	}
	_, err := fmt.Fprintln(w, "}")
	return err
}
