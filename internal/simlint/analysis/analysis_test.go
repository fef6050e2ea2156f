package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"maps"
	"strings"
	"testing"
)

const directiveSrc = `package p

func f(m map[int]int) int {
	n := 0
	//lint:ordered commutative sum
	for _, v := range m {
		n += v
	}
	for k := range m { //lint:ordered trailing form works too
		n += k
	}
	//lint:ordered
	for range m {
	}
	return n
}
`

func passFor(t *testing.T, src string) (*Pass, *ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	p := &Pass{
		Analyzer: &Analyzer{Name: "test"},
		Fset:     fset,
		Files:    []*ast.File{f},
	}
	return p, f
}

func rangeStmts(f *ast.File) []*ast.RangeStmt {
	var rs []*ast.RangeStmt
	ast.Inspect(f, func(n ast.Node) bool {
		if r, ok := n.(*ast.RangeStmt); ok {
			rs = append(rs, r)
		}
		return true
	})
	return rs
}

func TestDirectiveLookup(t *testing.T) {
	p, f := passFor(t, directiveSrc)
	var diags []Diagnostic
	p.Report = func(d Diagnostic) { diags = append(diags, d) }
	rs := rangeStmts(f)
	if len(rs) != 3 {
		t.Fatalf("got %d range statements, want 3", len(rs))
	}

	if just, ok := p.Directive(rs[0].Pos(), "ordered"); !ok || just != "commutative sum" {
		t.Errorf("line-above directive: got (%q, %v)", just, ok)
	}
	if just, ok := p.Directive(rs[1].Pos(), "ordered"); !ok || just != "trailing form works too" {
		t.Errorf("trailing directive: got (%q, %v)", just, ok)
	}
	if _, ok := p.Directive(rs[0].Pos(), "pooled"); ok {
		t.Error("verb mismatch must not match")
	}

	if !p.Suppressed(rs[0].Pos(), "ordered") {
		t.Error("justified directive must suppress")
	}
	if p.Suppressed(rs[2].Pos(), "ordered") {
		t.Error("justification-free directive must not suppress")
	}
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "without a justification") {
		t.Errorf("expected one missing-justification diagnostic, got %v", diags)
	}
}

func TestRunOrdersDiagnostics(t *testing.T) {
	p, f := passFor(t, directiveSrc)
	_ = p
	a := &Analyzer{
		Name: "emitter",
		Run: func(pass *Pass) error {
			rs := rangeStmts(pass.Files[0])
			// Report out of order; Run must sort by position.
			pass.Reportf(rs[2].Pos(), "third")
			pass.Reportf(rs[0].Pos(), "first")
			return nil
		},
	}
	diags, err := Run(a, p.Fset, []*ast.File{f}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 2 || diags[0].Message != "first" || diags[1].Message != "third" {
		t.Fatalf("diagnostics not position-ordered: %v", diags)
	}
	if diags[0].Analyzer != "emitter" {
		t.Errorf("diagnostic analyzer = %q", diags[0].Analyzer)
	}
}

func TestWalkStack(t *testing.T) {
	_, f := passFor(t, `package p
func g() {
	panic(h(1))
}
func h(int) string { return "" }
`)
	sawInner := false
	WalkStack(f, func(n ast.Node, stack []ast.Node) bool {
		if lit, ok := n.(*ast.BasicLit); ok && lit.Value == "1" {
			sawInner = true
			panics := 0
			for _, anc := range stack {
				if call, ok := anc.(*ast.CallExpr); ok {
					if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
						panics++
					}
				}
			}
			if panics != 1 {
				t.Errorf("stack at literal 1 contains %d panic calls, want 1", panics)
			}
		}
		return true
	})
	if !sawInner {
		t.Fatal("walk never reached the inner literal")
	}
}

func TestPkgPathOf(t *testing.T) {
	if got := PkgPathOf(nil); got != "" {
		t.Errorf("PkgPathOf(nil) = %q, want empty", got)
	}
	pkg := types.NewPackage("example/p", "p")
	obj := types.NewVar(token.NoPos, pkg, "x", types.Typ[types.Int])
	if got := PkgPathOf(obj); got != "example/p" {
		t.Errorf("PkgPathOf = %q, want example/p", got)
	}
	universe := types.Universe.Lookup("true")
	if got := PkgPathOf(universe); got != "" {
		t.Errorf("PkgPathOf(universe true) = %q, want empty", got)
	}
}

const optInSrc = `//lint:deterministic
package p

//lint:hot
func a() {}

//lint:hto misspelled
func b() {}

//lint:hot justified, but a blank line parts it from the func

func c() {}

// d is a root.
//
//lint:hot justified and in place
func d() {}

//lint:ordered a suppression is read by its analyzer, not here
var x = 1
`

// TestDirectivesReportsStrayOptIns: an opt-in that would mark nothing is
// reported once, and a bare one marks nothing.
func TestDirectivesReportsStrayOptIns(t *testing.T) {
	p, f := passFor(t, optInSrc)
	diags, err := Run(Directives, p.Fset, []*ast.File{f}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"//lint:deterministic directive without a justification",
		"//lint:hot directive without a justification",
		"unknown directive //lint:hto",
		"//lint:hot directive marks nothing",
	}
	if len(diags) != len(want) {
		t.Fatalf("got %d diagnostics, want %d: %v", len(diags), len(want), diags)
	}
	for i, w := range want {
		if !strings.HasPrefix(diags[i].Message, w) {
			t.Errorf("diagnostic %d = %q, want prefix %q", i, diags[i].Message, w)
		}
	}
	if p.Deterministic() {
		t.Error("a bare //lint:deterministic must not mark the package")
	}
	marked := map[string]bool{}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok {
			marked[fd.Name.Name] = p.Marked(fd.Pos(), "hot")
		}
	}
	if want := map[string]bool{"a": false, "b": false, "c": false, "d": true}; !maps.Equal(marked, want) {
		t.Errorf("marked //lint:hot = %v, want %v", marked, want)
	}
}

func TestDeterministicTrailingForm(t *testing.T) {
	p, _ := passFor(t, "package p //lint:deterministic the same line works too\n")
	if !p.Deterministic() {
		t.Error("a trailing //lint:deterministic must mark the package")
	}
}

// TestDeterministicInAnyFile: one marked file marks the whole package,
// whichever file it is; with none marked, the package is unchecked.
func TestDeterministicInAnyFile(t *testing.T) {
	fset := token.NewFileSet()
	parse := func(name, src string) *ast.File {
		f, err := parser.ParseFile(fset, name, src, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	plain := parse("a.go", "// Package p is documented here.\npackage p\n")
	marked := parse("b.go", "//lint:deterministic its draws replay\npackage p\n")
	for _, tc := range []struct {
		files []*ast.File
		want  bool
	}{
		{[]*ast.File{plain, marked}, true},
		{[]*ast.File{marked, plain}, true},
		{[]*ast.File{plain}, false},
	} {
		p := &Pass{Analyzer: &Analyzer{Name: "test"}, Fset: fset, Files: tc.files}
		if got := p.Deterministic(); got != tc.want {
			t.Errorf("%d files, marked one included %v: Deterministic() = %v", len(tc.files), tc.want, got)
		}
	}
}
