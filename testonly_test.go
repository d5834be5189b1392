package harvest

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// keptTestOnly lists the exported names in internal/ that only tests
// reference and that stay on purpose, as package.Name or
// package.Type.Method. The test switches tensor.WithoutAVX512,
// WithoutAMX, WithWorkers and imaging.WithGoBodies are declared in
// export_test.go files, which this guard does not read.
var keptTestOnly = map[string]string{
	// Reference bodies the fast paths are checked against.
	"tensor.Q7GemmTransBRef":  "scalar reference for the int8 GEMM bodies",
	"tensor.Transpose2D":      "the models' reference forward transposes weights with it",
	"imaging.CenterCrop":      "naive composition the fused preprocessing kernel must match",
	"imaging.ResizeShortSide": "naive composition the fused preprocessing kernel must match",
	"stats.Exponential":       "workload's legacy Poisson generator, the reference its stream is pinned to",
	"tensor.Tensor.Clone":     "the models' reference forward copies with it",
	// Test switches and test views of product state.
	"guardpage.OnGuard":       "places an operand against a PROT_NONE page",
	"loadgen.Config.Schedule": "exposes the arrival schedule to the reproducibility test",
	"serve.Server.MetricsFor": "one model's metrics without the JSON surface",
	"metrics.Table.NumRows":   "the artifact tests check table shapes with it",
	"tensor.Tensor.At":        "the tensor tests index elements with it",
	"trace.Recorder.Len":      "the trace tests count retained spans with it",
	"trace.Recorder.Validate": "the no-overlap invariant the serve and trace tests check",
	// Checkpoint writers the save/load round-trip tests use.
	"modelio.SaveFile":   "round-trip tests write checkpoint files with it",
	"modelio.SaveResNet": "round-trip tests write ResNet checkpoints with it",
	// Still test-only, with a floor test of its own; it goes in a
	// later change (ROADMAP item 16).
	"tensor.MatMulTransB": "pending deletion",
}

// implicitMethods are called by the standard library through an
// interface, so no selector in product code names them.
var implicitMethods = map[string]bool{"Error": true, "String": true, "Unwrap": true, "ServeHTTP": true}

// exportedDecl is one exported name declared in a non-test file under
// internal/.
type exportedDecl struct {
	key    string // package.Name or package.Type.Method
	dir    string // the declaring package's directory
	name   string
	method bool
}

// reference is one identifier product code names. owner is the key of
// the exported declaration whose body names it ("" outside one): a
// reference only counts once its owner is itself used.
type reference struct {
	owner, dir, name string
	selector         bool // x.name: a method, or an imported name when dir is set
	called           bool // x.name(...)
	// sees is the file's own package directory and the internal/
	// directories it imports: the packages whose methods x.name can
	// reach without going through an interface.
	sees []string
}

// TestNoTestOnlyExports fails when an exported package-level function,
// type, or method of an exported type in internal/ is referenced only
// from _test.go files (or from nowhere), unless keptTestOnly names it.
// Such a name is product surface that no product code uses. Matching
// is syntactic: a function or type counts as used when its package
// names it bare or another package names it through its import; a
// method counts as used when a call or method value of its name
// appears in its package or in one that imports it. A
// reference from inside an unused exported declaration does not count,
// so a test-only name stays visible behind another one.
func TestNoTestOnlyExports(t *testing.T) {
	fset := token.NewFileSet()
	var files []*ast.File
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err == nil {
			files = append(files, f)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	dirOf := func(f *ast.File) string { return filepath.ToSlash(filepath.Dir(fset.File(f.Pos()).Name())) }

	// Struct field names: an uncalled x.name of one of these is read as
	// a field, not as a method value.
	fields := map[string]bool{}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if st, ok := n.(*ast.StructType); ok {
				for _, fld := range st.Fields.List {
					for _, name := range fld.Names {
						fields[name.Name] = true
					}
				}
			}
			return true
		})
	}

	var decls []exportedDecl
	var refs []reference
	for _, f := range files {
		called := map[*ast.SelectorExpr]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
					called[sel] = true
				}
			}
			return true
		})
		dir, pkg := dirOf(f), f.Name.Name
		aliases := map[string]string{} // local name → imported dir
		sees := []string{dir}
		for _, imp := range f.Imports {
			ip, _ := strconv.Unquote(imp.Path.Value)
			if dir, ok := strings.CutPrefix(ip, "harvest/"); ok {
				local := path.Base(ip)
				if imp.Name != nil {
					local = imp.Name.Name
				}
				aliases[local] = dir
				sees = append(sees, dir)
			}
		}
		var collect func(owner string, nodes ...ast.Node)
		collect = func(owner string, nodes ...ast.Node) {
			for _, n := range nodes {
				if n == nil || reflect.ValueOf(n).IsNil() {
					continue
				}
				ast.Inspect(n, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.SelectorExpr:
						r := reference{owner: owner, name: n.Sel.Name, selector: true, called: called[n], sees: sees}
						if x, ok := n.X.(*ast.Ident); ok {
							r.dir = aliases[x.Name]
						}
						refs = append(refs, r)
						collect(owner, n.X) // n.Sel is not a bare name
						return false
					case *ast.Ident:
						refs = append(refs, reference{owner: owner, dir: dir, name: n.Name})
					}
					return true
				})
			}
		}
		declare := func(key, name string, method bool) string {
			if !strings.HasPrefix(dir, "internal/") {
				return ""
			}
			decls = append(decls, exportedDecl{key, dir, name, method})
			return key
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				owner := ""
				switch {
				case !decl.Name.IsExported():
				case decl.Recv == nil:
					owner = declare(pkg+"."+decl.Name.Name, decl.Name.Name, false)
				default:
					if recv := receiverType(decl.Recv.List[0].Type); ast.IsExported(recv) {
						owner = declare(pkg+"."+recv+"."+decl.Name.Name, decl.Name.Name, true)
					}
				}
				// The receiver and the name are the declaration, not a use.
				collect(owner, decl.Type, decl.Body)
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						collect("", spec)
						continue
					}
					owner := ""
					if ts.Name.IsExported() {
						owner = declare(pkg+"."+ts.Name.Name, ts.Name.Name, false)
					}
					collect(owner, ts.TypeParams, ts.Type)
				}
			}
		}
	}

	// Grow the used set from references outside exported declarations
	// until it stops changing.
	byName := map[string][]exportedDecl{}
	for _, d := range decls {
		byName[d.name] = append(byName[d.name], d)
	}
	used := map[string]bool{}
	for changed := true; changed; {
		changed = false
		for _, r := range refs {
			if r.owner != "" && !used[r.owner] {
				continue
			}
			for _, d := range byName[r.name] {
				// A bare name in the package, or pkg.Name through its
				// import; a method by a call, or a method value that
				// no field shares a name with, in its package or in
				// one that imports it.
				method := r.selector && (r.called || !fields[r.name]) && slices.Contains(r.sees, d.dir)
				hit := d.method && method || !d.method && d.dir == r.dir
				if hit && !used[d.key] {
					used[d.key], changed = true, true
				}
			}
		}
	}

	var testOnly []string
	declared := map[string]bool{}
	for _, d := range decls {
		declared[d.key] = true
		if !used[d.key] && !(d.method && implicitMethods[d.name]) && keptTestOnly[d.key] == "" {
			testOnly = append(testOnly, d.key)
		}
	}
	slices.Sort(testOnly)
	for _, key := range testOnly {
		t.Errorf("%s is exported but only tests use it: delete it, unexport it, or give it a product caller", key)
	}
	for key := range keptTestOnly {
		if !declared[key] {
			t.Errorf("keptTestOnly names %s, which internal/ no longer declares", key)
		} else if used[key] && strings.Count(key, ".") == 1 {
			// Methods match by name alone, so only a function or a
			// type is known to have a product caller.
			t.Errorf("keptTestOnly names %s, which product code uses now", key)
		}
	}
}

// receiverType is the type name of a method receiver: T, *T, T[P].
func receiverType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}
