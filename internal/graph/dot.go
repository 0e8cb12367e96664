package graph

import (
	"fmt"
	"strings"
)

// DOT renders the graph in Graphviz dot syntax. Edge labels show the volume
// annotation when non-zero. The output is deterministic.
func (g *Graph) DOT() string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n", sanitizeDOTName(g.name))
	b.WriteString("  rankdir=LR;\n  node [shape=circle];\n")
	for _, n := range g.Nodes() {
		fmt.Fprintf(&b, "  n%d [label=\"%d\"];\n", n, n)
	}
	for _, e := range g.Edges() {
		if e.Volume != 0 {
			fmt.Fprintf(&b, "  n%d -> n%d [label=\"%g\"];\n", e.From, e.To, e.Volume)
		} else {
			fmt.Fprintf(&b, "  n%d -> n%d;\n", e.From, e.To)
		}
	}
	b.WriteString("}\n")
	return b.String()
}

func sanitizeDOTName(s string) string {
	if s == "" {
		return "G"
	}
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			return r
		default:
			return '_'
		}
	}, s)
}
