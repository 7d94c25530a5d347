package costbound

import (
	"fmt"
	"go/ast"
	"go/types"

	"repro/internal/analysis/framework"
)

// Analyzer symbolically certifies the paper's F/BW/L closed forms against
// the real sources: the binomial-tree collectives are derived as
// polynomials over (g, W) and compared with Table 1, and the parallel /
// fault-tolerant multiplication tiers are derived exactly over the finite
// crosscheck worlds and compared with the Table 2 recurrences. A
// divergence carries both polynomials and a concrete witness assignment; a
// protocol construct the interpreter cannot model is itself a finding
// (silence is never an answer).
var Analyzer = &framework.Analyzer{
	Name: "costbound",
	Doc: "derive F/BW/L cost polynomials from the collective and " +
		"multiplication sources by abstract interpretation and certify them " +
		"against the paper's closed forms (Tables 1-2); report any divergence " +
		"with both formulas and a concrete witness world",
	Run: run,
}

// Test seams (set only from this package's tests): perturb the expected
// side of a comparison, proving the certification cannot pass vacuously.
var (
	testMutateFormula func(name string, cv costVec) costVec
	testMutateCounts  func(world string, c Counts) Counts
)

// worldsFor returns the certified worlds whose Multiply entry the package
// at path declares.
func worldsFor(path string) []World {
	var out []World
	for _, w := range Worlds() {
		if w.Entry() == path {
			out = append(out, w)
		}
	}
	return out
}

func run(pass *framework.Pass) error {
	if pass.Summaries == nil || pass.Summaries.Graph == nil {
		return nil
	}
	if pass.Pkg != nil && pass.Pkg.Name() == "collective" {
		checkCollectives(pass)
	}
	if ws := worldsFor(pass.Path); len(ws) != 0 {
		checkWorlds(pass, ws)
	}
	return nil
}

// checkCollectives derives every certified collective declared in the
// package and compares it with the Table 1 closed form.
func checkCollectives(pass *framework.Pass) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv != nil || fd.Body == nil {
				continue
			}
			expected, certified := expectedCollective(fd.Name.Name)
			if !certified {
				continue
			}
			if testMutateFormula != nil {
				expected = testMutateFormula(fd.Name.Name, expected)
			}
			fn, _ := pass.Info.Defs[fd.Name].(*types.Func)
			node := nodeForDecl(pass.Summaries, fn)
			if node == nil {
				continue
			}
			derived, err := deriveCollective(pass.Summaries, pass.Fset, node)
			if err != nil {
				if _, incomplete := err.(framework.Missing); incomplete {
					continue // partial load set: not this package's fault
				}
				pass.Reportf(fd.Name.Pos(),
					"cannot certify %s against the paper closed form: %v",
					fd.Name.Name, err)
				continue
			}
			if derived.equal(expected) {
				continue
			}
			// Syntactically different: certified iff no world in the grid
			// separates them (the same finite domain protomc exhausts).
			_, witness, diverges := findWitness(derived, expected)
			if !diverges {
				continue
			}
			pass.ReportFormula(fd.Name.Pos(),
				fmt.Sprintf("derived %s ≠ expected %s", derived, expected),
				witness,
				"%s cost diverges from the paper closed form",
				fd.Name.Name)
		}
	}
}

// checkWorlds derives the package's Multiply entry over each certified
// finite world and compares the per-counter maxima with the Table 2
// recurrence values.
func checkWorlds(pass *framework.Pass, worlds []World) {
	node := framework.MultiplyEntry(pass.Summaries, pass.Pkg)
	if node == nil {
		return
	}
	for _, w := range worlds {
		expected := w.Expected
		if testMutateCounts != nil {
			expected = testMutateCounts(w.Name, expected)
		}
		derived, err := deriveWorld(pass.Summaries, pass.Fset, node, w)
		if err != nil {
			if _, incomplete := err.(framework.Missing); incomplete {
				return // partial load set (single-package run): skip all worlds
			}
			pass.Reportf(node.Decl.Name.Pos(),
				"cannot certify world %s: %v", w.Name, err)
			continue
		}
		if derived == expected {
			continue
		}
		pass.ReportFormula(node.Decl.Name.Pos(),
			fmt.Sprintf("derived F=%d S=%d R=%d L=%d ≠ expected F=%d S=%d R=%d L=%d",
				derived.F, derived.S, derived.R, derived.L,
				expected.F, expected.S, expected.R, expected.L),
			fmt.Sprintf("world %s: P=%d k=%d F=%d ldfs=%d",
				w.Name, w.P, w.K, w.Faults, w.DFSSteps),
			"Multiply cost diverges from the Table 2 recurrence on world %s",
			w.Name)
	}
}

// DeriveWorldCounts exposes the interpreter's per-world derivation for the
// crosscheck suite (static table vs. abstract interpretation vs. runtime).
func DeriveWorldCounts(sums *framework.Summaries, pkg *framework.Package, w World) (Counts, error) {
	node := framework.MultiplyEntry(sums, pkg.Types)
	if node == nil {
		return Counts{}, fmt.Errorf("no Multiply entry in %s", pkg.Path)
	}
	return deriveWorld(sums, pkg.Fset, node, w)
}
