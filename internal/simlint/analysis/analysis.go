// Package analysis is the repository's minimal static-analysis framework,
// a self-contained analogue of golang.org/x/tools/go/analysis built only on
// the standard library (the module is dependency-free by policy). An
// Analyzer inspects one type-checked package at a time and reports
// Diagnostics; the driver in cmd/simlint and the fixture harness in
// internal/simlint/linttest both run Analyzers through the same Pass type,
// so fixture behaviour is the behaviour CI enforces.
//
// The framework also owns the //lint:<verb> source-annotation contract:
// a finding can be suppressed only by a directive that names the analyzer's
// verb AND records a human justification on the same line or the line
// directly above the flagged construct. Justification-free directives never
// suppress anything — they are themselves reported — so every exemption in
// the tree carries its reason next to the code.
//
// The same directives carry the suite's contract itself. A package joins
// the determinism checks with //lint:deterministic <why> directly above
// its package clause (Pass.Deterministic), and a function becomes a
// hot-path root with //lint:hot <why> directly above its func
// (Pass.Marked). A misspelled or misplaced opt-in would silently drop a
// package or a root, so the Directives analyzer reports every verb outside
// the suite's set and every bare or stray opt-in.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named invariant check over a single package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and -only flags.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Run inspects the package held by pass and reports findings via
	// pass.Reportf. It returns an error only for internal failures, never
	// for findings.
	Run func(pass *Pass) error
}

// Pass carries one type-checked package through one Analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report receives each diagnostic as it is raised.
	Report func(Diagnostic)

	directives map[string][]directive // file name -> line-sorted directives
}

// Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string
}

// Reportf raises a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...), Analyzer: p.Analyzer.Name})
}

// directive is one parsed //lint:<verb> <justification> comment.
type directive struct {
	pos           token.Pos
	line          int
	verb          string
	justification string
}

// DirectivePrefix introduces a suppression annotation. The full form is
// "//lint:<verb> <justification>"; the verb is defined by each analyzer
// (e.g. "ordered" for maprange, "pooled" and "coldpath" for hotalloc).
const DirectivePrefix = "//lint:"

// parseDirectives indexes every //lint: comment of every file by position.
func (p *Pass) parseDirectives() {
	p.directives = make(map[string][]directive)
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, DirectivePrefix)
				if !ok {
					continue
				}
				verb, just, _ := strings.Cut(rest, " ")
				pos := p.Fset.Position(c.Pos())
				p.directives[pos.Filename] = append(p.directives[pos.Filename], directive{
					pos:           c.Pos(),
					line:          pos.Line,
					verb:          verb,
					justification: strings.TrimSpace(just),
				})
			}
		}
	}
	for _, ds := range p.directives {
		sort.Slice(ds, func(i, j int) bool { return ds[i].line < ds[j].line })
	}
}

// Directive looks for a //lint:<verb> annotation governing pos: on the same
// line (trailing comment) or on the line immediately above. It returns the
// recorded justification and whether a directive was found at all; a found
// directive with an empty justification must not suppress a finding.
func (p *Pass) Directive(pos token.Pos, verb string) (justification string, found bool) {
	if d := p.lookup(pos, verb); d != nil {
		return d.justification, true
	}
	return "", false
}

// lookup returns the //lint:<verb> directive governing pos, or nil.
func (p *Pass) lookup(pos token.Pos, verb string) *directive {
	if p.directives == nil {
		p.parseDirectives()
	}
	at := p.Fset.Position(pos)
	ds := p.directives[at.Filename]
	for i := range ds {
		if ds[i].verb == verb && (ds[i].line == at.Line || ds[i].line == at.Line-1) {
			return &ds[i]
		}
	}
	return nil
}

// Suppressed reports whether a justified //lint:<verb> directive governs
// pos. When a directive is present but carries no justification, the
// finding is not suppressed and an extra diagnostic demands the reason —
// the annotation contract requires every exemption to be explained.
func (p *Pass) Suppressed(pos token.Pos, verb string) bool {
	just, found := p.Directive(pos, verb)
	if !found {
		return false
	}
	if just == "" {
		p.Reportf(pos, "%s%s directive without a justification: write %s%s <why this is safe>",
			DirectivePrefix, verb, DirectivePrefix, verb)
		return false
	}
	return true
}

// Marked reports whether a justified //lint:<verb> directive governs pos.
// It reports nothing itself: the Directives analyzer reports a bare
// opt-in once, however many analyzers ask.
func (p *Pass) Marked(pos token.Pos, verb string) bool {
	just, found := p.Directive(pos, verb)
	return found && just != ""
}

// Deterministic reports whether the package opts into the determinism
// contract: a justified //lint:deterministic directly above the package
// clause of any of its files.
func (p *Pass) Deterministic() bool {
	for _, f := range p.Files {
		if p.Marked(f.Package, "deterministic") {
			return true
		}
	}
	return false
}

// verbs is the suite's directive vocabulary: the suppressions each
// analyzer honours and the opt-ins the framework reads.
var verbs = map[string]bool{
	"ordered": true, "pooled": true, "coldpath": true, "boxed": true,
	"hot": true, "deterministic": true,
}

// optIns names what each opt-in verb must stand directly above.
var optIns = map[string]string{"deterministic": "package clause", "hot": "func"}

// Directives reports, once per package, the directives no analyzer would
// read: a verb outside the suite's set, and an opt-in that is bare or
// stands where it marks nothing.
var Directives = &Analyzer{
	Name: "directive",
	Doc: "reports //lint: directives with an unknown verb, and //lint:deterministic or //lint:hot " +
		"directives without a justification or not directly above a package clause or func",
	Run: checkDirectives,
}

func checkDirectives(pass *Pass) error {
	governed := map[*directive]bool{}
	for _, f := range pass.Files {
		governed[pass.lookup(f.Package, "deterministic")] = true
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok {
				governed[pass.lookup(fd.Pos(), "hot")] = true
			}
		}
	}
	for _, ds := range pass.directives {
		for i := range ds {
			d := &ds[i]
			anchor, optIn := optIns[d.verb]
			switch {
			case !verbs[d.verb]:
				pass.Reportf(d.pos, "unknown directive %s%s: the verbs are ordered, pooled, coldpath, boxed, hot and deterministic",
					DirectivePrefix, d.verb)
			case !optIn:
			case d.justification == "":
				pass.Reportf(d.pos, "%s%s directive without a justification: write %s%s <why>",
					DirectivePrefix, d.verb, DirectivePrefix, d.verb)
			case !governed[d]:
				pass.Reportf(d.pos, "%s%s directive marks nothing: put it directly above the %s",
					DirectivePrefix, d.verb, anchor)
			}
		}
	}
	return nil
}

// Run applies one analyzer to one type-checked package and returns its
// findings in position order. Both the cmd/simlint driver and the fixture
// harness go through this entry point.
func Run(a *Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info) ([]Diagnostic, error) {
	var diags []Diagnostic
	pass := &Pass{
		Analyzer:  a,
		Fset:      fset,
		Files:     files,
		Pkg:       pkg,
		TypesInfo: info,
		Report:    func(d Diagnostic) { diags = append(diags, d) },
	}
	if err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("%s: %v", a.Name, err)
	}
	sort.SliceStable(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	return diags, nil
}

// PkgPathOf returns the import path of the package an object belongs to,
// or "" for builtins and universe-scope objects.
func PkgPathOf(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Path()
}

// WalkStack traverses the subtree rooted at n, calling pre with each node
// and the stack of its ancestors (outermost first, not including n). If
// pre returns false the node's children are skipped.
func WalkStack(n ast.Node, pre func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(n, func(node ast.Node) bool {
		if node == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		descend := pre(node, stack)
		if descend {
			stack = append(stack, node)
		}
		return descend
	})
}
