// Package framework is a dependency-free re-implementation of the slice of
// golang.org/x/tools/go/analysis that the ftlint analyzers need. The build
// environment bakes in only the standard library, so instead of importing
// x/tools we provide the same shape — an Analyzer with a Run func over a
// type-checked Pass that reports position-tagged Diagnostics — on top of
// go/ast, go/types, and `go list -export` (see load.go).
//
// Suppression is handled centrally: a finding is dropped when an
//
//	//ftlint:allow <analyzer>[,<analyzer>...] <rationale>
//
// comment sits on the reported line, on the line directly above it, or in
// the doc comment of the enclosing function declaration. The rationale text
// is free-form but expected — the escape hatch exists to make exceptions
// auditable, not silent.
//
// RunAll audits the escape hatches themselves: an allow that names an
// analyzer not in the run set, or that suppresses no finding of any
// analyzer that did run, is reported as an "allowaudit" finding. Stale
// allows are how suppressed invariants quietly rot — the comment outlives
// the exception it documented. Audit findings are not suppressible.
package framework

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer describes one invariant checker.
type Analyzer struct {
	Name string // short lower-case identifier, used in //ftlint:allow
	Doc  string // one-paragraph description of the enforced invariant
	Run  func(*Pass) error
}

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	Path  string // import path ("repro/internal/toom", or fixture name)
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Pass carries one analyzer's run over one package.
type Pass struct {
	Analyzer *Analyzer
	Path     string
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	// Summaries is the interprocedural fact base over every package of the
	// run (Run computes it for the single package; RunAll for the whole
	// set, so cross-package helpers resolve).
	Summaries *Summaries

	diags []Diagnostic
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Pos
	Position token.Position
	Analyzer string
	Message  string
	// SuppressedBy holds the file:line of the //ftlint:allow comment that
	// suppressed this finding ("" for active findings). Only populated on
	// the suppressed list of RunAllDetail.
	SuppressedBy string
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      pos,
		Position: p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Run applies one analyzer to one package and returns its findings with
// //ftlint:allow suppressions already applied, sorted by position. Single-
// analyzer runs do not audit the allow comments (an allow aimed at another
// analyzer would always look unknown or stale); use RunAll for that.
func Run(a *Analyzer, pkg *Package) ([]Diagnostic, error) {
	out, _, err := runFiltered(a, pkg, buildAllowIndex(pkg), ComputeSummaries([]*Package{pkg}))
	return out, err
}

func runFiltered(a *Analyzer, pkg *Package, allowed *allowIndex, sums *Summaries) ([]Diagnostic, []Diagnostic, error) {
	pass := &Pass{
		Analyzer:  a,
		Path:      pkg.Path,
		Fset:      pkg.Fset,
		Files:     pkg.Files,
		Pkg:       pkg.Types,
		Info:      pkg.Info,
		Summaries: sums,
	}
	if err := a.Run(pass); err != nil {
		return nil, nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
	}
	var out, suppressed []Diagnostic
	for _, d := range pass.diags {
		if by, ok := allowed.suppresses(a.Name, d); ok {
			d.SuppressedBy = by
			suppressed = append(suppressed, d)
		} else {
			out = append(out, d)
		}
	}
	sortDiags(out)
	sortDiags(suppressed)
	return out, suppressed, nil
}

func sortDiags(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		pi, pj := ds[i].Position, ds[j].Position
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		// Position ties (several analyzers, or one analyzer firing twice on
		// a line) break deterministically so -json output is stable.
		if ds[i].Analyzer != ds[j].Analyzer {
			return ds[i].Analyzer < ds[j].Analyzer
		}
		return ds[i].Message < ds[j].Message
	})
}

// dedupeDiags drops exact duplicates (same file:line:col, analyzer, and
// message) from a sorted slice. Multi-package runs can analyze one file
// under several passes; the report should carry each finding once.
func dedupeDiags(ds []Diagnostic) []Diagnostic {
	out := ds[:0]
	for i, d := range ds {
		if i > 0 {
			p := out[len(out)-1]
			if p.Position.Filename == d.Position.Filename &&
				p.Position.Line == d.Position.Line &&
				p.Position.Column == d.Position.Column &&
				p.Analyzer == d.Analyzer && p.Message == d.Message {
				continue
			}
		}
		out = append(out, d)
	}
	return out
}

// RunAll applies every analyzer to every package, sharing one suppression
// index per package so that afterwards the allow comments themselves can be
// audited: every allow must name a known analyzer and suppress at least one
// finding of the full run.
func RunAll(analyzers []*Analyzer, pkgs []*Package) ([]Diagnostic, error) {
	out, _, err := RunAllDetail(analyzers, pkgs)
	return out, err
}

// RunAllDetail is RunAll plus the suppressed findings, each tagged with the
// file:line of the allow comment that covered it — the payload of
// `ftlint -json`.
func RunAllDetail(analyzers []*Analyzer, pkgs []*Package) (active, suppressed []Diagnostic, err error) {
	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
	}
	sums := ComputeSummaries(pkgs)
	for _, pkg := range pkgs {
		idx := buildAllowIndex(pkg)
		for _, a := range analyzers {
			ds, sup, err := runFiltered(a, pkg, idx, sums)
			if err != nil {
				return nil, nil, err
			}
			active = append(active, ds...)
			suppressed = append(suppressed, sup...)
		}
		active = append(active, idx.audit(known)...)
	}
	sortDiags(active)
	sortDiags(suppressed)
	return dedupeDiags(active), dedupeDiags(suppressed), nil
}

// allowEntry is one analyzer name in one //ftlint:allow comment. Entries
// track whether they ever suppressed a finding, so RunAll can report the
// stale ones.
type allowEntry struct {
	name     string
	pos      token.Pos
	position token.Position // of the allow comment
	used     bool
}

// allowIndex records where //ftlint:allow comments take effect.
type allowIndex struct {
	// lines maps file -> line -> entries allowed at that line (the
	// comment's own line; a diagnostic on that line or the next is covered).
	lines map[string]map[int][]*allowEntry
	// funcRanges lists function bodies whose doc comment carries an allow:
	// every diagnostic inside is covered.
	funcRanges []allowRange
	// entries holds every entry once, in source order, for the audit.
	entries []*allowEntry
	fset    *token.FileSet
}

type allowRange struct {
	file       string
	start, end int // line range, inclusive
	entries    []*allowEntry
}

func buildAllowIndex(pkg *Package) *allowIndex {
	idx := &allowIndex{lines: make(map[string]map[int][]*allowEntry), fset: pkg.Fset}

	newEntries := func(c *ast.Comment) []*allowEntry {
		var es []*allowEntry
		for _, n := range parseAllow(c.Text) {
			e := &allowEntry{name: n, pos: c.Pos(), position: pkg.Fset.Position(c.Pos())}
			es = append(es, e)
			idx.entries = append(idx.entries, e)
		}
		return es
	}

	for _, f := range pkg.Files {
		// Function-doc allows cover the whole body. Their comments are
		// indexed here only, not in the line pass below: a second, line-
		// anchored entry for the same comment would never suppress anything
		// and show up as a false stale.
		inFuncDoc := make(map[*ast.Comment]bool)
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil || fd.Body == nil {
				continue
			}
			var es []*allowEntry
			for _, c := range fd.Doc.List {
				if ne := newEntries(c); len(ne) > 0 {
					es = append(es, ne...)
					inFuncDoc[c] = true
				}
			}
			if len(es) == 0 {
				continue
			}
			start := pkg.Fset.Position(fd.Pos())
			end := pkg.Fset.Position(fd.End())
			idx.funcRanges = append(idx.funcRanges, allowRange{
				file:    start.Filename,
				start:   start.Line,
				end:     end.Line,
				entries: es,
			})
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if inFuncDoc[c] {
					continue
				}
				es := newEntries(c)
				if len(es) == 0 {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				byLine := idx.lines[pos.Filename]
				if byLine == nil {
					byLine = make(map[int][]*allowEntry)
					idx.lines[pos.Filename] = byLine
				}
				byLine[pos.Line] = append(byLine[pos.Line], es...)
			}
		}
	}
	return idx
}

// parseAllow extracts analyzer names from an //ftlint:allow comment line.
// Syntax: "//ftlint:allow name[,name...] free-form rationale".
func parseAllow(text string) []string {
	text = strings.TrimPrefix(text, "//")
	text = strings.TrimSpace(text)
	if !strings.HasPrefix(text, "ftlint:allow") {
		return nil
	}
	rest := strings.TrimSpace(strings.TrimPrefix(text, "ftlint:allow"))
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return nil
	}
	// The name list may carry spaces after its commas ("allow accown,
	// poolspawn rationale"): keep consuming fields while the accumulated
	// list still ends in a comma, so the rationale proper starts at the
	// first field that completes the list.
	list := fields[0]
	for i := 1; i < len(fields) && strings.HasSuffix(list, ","); i++ {
		list += fields[i]
	}
	var names []string
	for _, n := range strings.Split(list, ",") {
		if n = strings.TrimSpace(n); n != "" {
			names = append(names, n)
		}
	}
	return names
}

// suppresses reports whether an allow covers d, marking every covering
// entry as used so the audit can tell live allows from stale ones. The
// returned string locates the (first) covering comment as file:line.
func (idx *allowIndex) suppresses(name string, d Diagnostic) (string, bool) {
	by := ""
	mark := func(e *allowEntry) {
		e.used = true
		if by == "" {
			by = fmt.Sprintf("%s:%d", e.position.Filename, e.position.Line)
		}
	}
	pos := d.Position
	if byLine := idx.lines[pos.Filename]; byLine != nil {
		for _, line := range []int{pos.Line, pos.Line - 1} {
			for _, e := range byLine[line] {
				if e.name == name {
					mark(e)
				}
			}
		}
	}
	for _, r := range idx.funcRanges {
		if r.file != pos.Filename || pos.Line < r.start || pos.Line > r.end {
			continue
		}
		for _, e := range r.entries {
			if e.name == name {
				mark(e)
			}
		}
	}
	return by, by != ""
}

// audit reports allow entries that name an analyzer outside the run set and
// entries that suppressed nothing across the whole run.
func (idx *allowIndex) audit(known map[string]bool) []Diagnostic {
	var out []Diagnostic
	report := func(e *allowEntry, format string, args ...any) {
		out = append(out, Diagnostic{
			Pos:      e.pos,
			Position: e.position,
			Analyzer: "allowaudit",
			Message:  fmt.Sprintf(format, args...),
		})
	}
	for _, e := range idx.entries {
		switch {
		case !known[e.name]:
			report(e, "ftlint:allow names unknown analyzer %q: the suppression can never take effect (typo, or the analyzer was removed)", e.name)
		case !e.used:
			report(e, "stale ftlint:allow for %q: it suppresses no finding — remove it, or the exception it documents has silently widened", e.name)
		}
	}
	sortDiags(out)
	return out
}

// NewInfo returns a types.Info with every map the analyzers consult.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}
