package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// interfaceMethods are method names that satisfy a standard interface
// (fmt.Stringer, error, json.Marshaler, sort.Interface, heap.Interface),
// so the code that calls them lives in the standard library.
var interfaceMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true,
	"MarshalJSON": true, "UnmarshalJSON": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
}

// keptForTests lists the exported functions and methods in internal/ that
// no program calls but tests need, keyed "pkg.Name" or "pkg.Recv.Name",
// each with the reason it stays: a test uses it as an independent
// reference or to observe live behaviour.
var keptForTests = map[string]string{
	"graph.Sum":                          "Definition 1 of the paper, composed with Subtract in the graph property tests",
	"graph.Subtract":                     "Definition 2 of the paper, the reference Frozen.Materialize is checked against",
	"graph.SubtractEdges":                "edge-list form of Definition 2, the same Materialize reference",
	"graph.Equal":                        "structural equality the round-trip and determinism tests compare graphs with",
	"noc.Network.RunUntilDrained":        "drains a network stepped by hand in the simulator tests and root benchmarks",
	"routing.LandmarkRouter.Landmarks":   "observes which landmarks a landmark router chose",
	"routing.LandmarkRouter.Trees":       "observes the landmark shortest-path trees",
	"routing.SparseRouter.TreeCount":     "observes how many shortest-path trees a sparse router keeps",
	"routing.Table.NextHop":              "reads one routing-table entry in the routing tests",
	"routing.VCAssignment.VCForHop":      "hop-by-hop VC rule, the reference for the compiled per-hop VCs",
	"service.Job.FromCache":              "observes that a job was answered from the result cache",
	"service.Service.Submit":             "in-process admission the service tests drive the cache, coalescing and queue paths through",
	"service.Service.SubmitSimulate":     "in-process admission of simulate jobs for the same service tests",
	"core.Decomposition.CoverIsExact":    "checks that a decomposition covers every ACG edge exactly once",
	"fft.Transform":                      "sequential FFT the distributed transform is checked against",
	"iso.FindAll":                        "map-graph VF2 entry of the matcher tests and the VF2 ledger benchmark",
	"primitives.Library.Reversed":        "small-first library order of the search-order ablation benchmark",
	"noc.NetworkPool.Idle":               "observes the pool's idle networks",
	"noc.Network.Faulted":                "observes which links and routers a fault map took down",
	"noc.Network.FaultsDown":             "observes how many elements are down",
	"noc.Pattern.Stochastic":             "observes whether a pattern draws destinations at random",
	"noc.Pattern.Permutation":            "observes whether a pattern is a permutation",
	"routing.CompiledTable.PairCount":    "observes how many pairs a table compiled",
	"routing.CompiledTable.Plan":         "reads one compiled route plan",
	"routing.CompiledTable.LazyCached":   "observes the lazy plan cache",
	"routing.CompiledTable.SetLazyBound": "shrinks the lazy plan cache so its eviction is tested",
	"routing.PairSet.Contains":           "checks demand-set membership",
}

type exportedDecl struct {
	key    string // pkg.Name or pkg.Recv.Name
	name   string
	pkg    string // import path
	method bool
	pos    token.Position
}

// TestInternalSurfaceHasCallers fails on any exported function or method
// declared in a non-test file under internal/ that no non-test file of
// the repository (cmd/, examples/, perfbench/, the root package and
// internal/ itself) references outside its own declaration. References
// are matched by name: pkg.Name through an import of that package or a
// bare Name inside it for functions, any .Name selector for methods.
func TestInternalSurfaceHasCallers(t *testing.T) {
	fset := token.NewFileSet()
	var decls []exportedDecl
	funcRefs := map[string]bool{}   // "importpath.Name"
	methodRefs := map[string]bool{} // "Name"
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := importPath(filepath.Dir(path))
		imports := map[string]string{}
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			name := p[strings.LastIndex(p, "/")+1:]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = p
		}
		declIdents := map[*ast.Ident]bool{}
		for _, dl := range f.Decls {
			fn, ok := dl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declIdents[fn.Name] = true
			if !fn.Name.IsExported() || !strings.HasPrefix(pkg, "repro/internal/") {
				continue
			}
			key := pkg[len("repro/internal/"):] + "."
			if fn.Recv != nil {
				if interfaceMethods[fn.Name.Name] {
					continue
				}
				key += recvName(fn.Recv.List[0].Type) + "."
			}
			decls = append(decls, exportedDecl{key + fn.Name.Name, fn.Name.Name, pkg, fn.Recv != nil, fset.Position(fn.Pos())})
		}
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				methodRefs[n.Sel.Name] = true
				if x, ok := n.X.(*ast.Ident); ok {
					if p, ok := imports[x.Name]; ok {
						funcRefs[p+"."+n.Sel.Name] = true
					}
				}
				ast.Inspect(n.X, visit)
				return false
			case *ast.Ident:
				if !declIdents[n] {
					funcRefs[pkg+"."+n.Name] = true
				}
			}
			return true
		}
		ast.Inspect(f, visit)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) == 0 {
		t.Fatal("no exported declarations found under internal/")
	}
	kept := map[string]bool{}
	for _, d := range decls {
		if (d.method && methodRefs[d.name]) || (!d.method && funcRefs[d.pkg+"."+d.name]) {
			continue
		}
		if _, ok := keptForTests[d.key]; ok {
			kept[d.key] = true
			continue
		}
		t.Errorf("%s: %s is exported but no program calls it", d.pos, d.key)
	}
	for k := range keptForTests {
		if !kept[k] {
			t.Errorf("keptForTests names %s, which is not an uncalled exported declaration", k)
		}
	}
}

// importPath maps a directory of the repository to its import path; the
// perfbench directory is its own module, repro/perfbench.
func importPath(dir string) string {
	if dir == "." {
		return "repro"
	}
	return "repro/" + filepath.ToSlash(dir)
}

func recvName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return recvName(e.X)
	case *ast.IndexExpr:
		return recvName(e.X)
	case *ast.IndexListExpr:
		return recvName(e.X)
	case *ast.Ident:
		return e.Name
	}
	return "?"
}
