package costbound

import (
	"fmt"

	"repro/internal/analysis/framework"
)

// This file is the *paper* side of the certification: the closed forms of
// Table 1 (collectives) and the cost recurrences behind Tables 1/2 and
// Theorems 5.1-5.3 (multiplication tiers), encoded independently of the
// abstract interpreter. costbound.go compares what the interpreter derives
// from the real ASTs against these.

// ---------------------------------------------------------------------------
// Table 1: binomial-tree collectives, symbolic in g (group size) and W
// (payload words). Components are the per-counter maxima over participants,
// matching machine.Report.

// expectedCollective returns the paper's closed form for a top-level
// collective, or false if the name carries no certified formula.
func expectedCollective(name string) (costVec, bool) {
	g := framework.SymVar("g")
	w := framework.SymVar("W")
	lg := framework.SymLog2Ceil(g)
	zero := framework.SymConst(0)
	one := framework.SymConst(1)
	switch name {
	case "Broadcast":
		// Root relays down the binomial tree: ⌈log₂ g⌉ sends of W words;
		// every non-root receives the payload once.
		return costVec{F: zero, S: w.Mul(lg), R: w, L: lg}, true
	case "Reduce":
		// Root combines ⌈log₂ g⌉ child contributions (W word-ops each);
		// every non-root sends its partial once.
		return costVec{F: w.Mul(lg), S: w, R: w.Mul(lg), L: one}, true
	}
	return costVec{}, false
}

// witnessGrid is the protomc-style world grid the witness search walks:
// every certified collective formula is over g and W only.
var witnessGrid = struct {
	g []int64
	w []int64
}{
	g: []int64{2, 3, 4, 5},
	w: []int64{1, 2, 3, 5, 8},
}

// findWitness searches the world grid for a concrete assignment separating
// the two cost polynomials. It returns the environment, a parseable
// rendering ("g=2 W=4: S derived=.. expected=.."), and whether one exists.
// Polynomials that agree on the whole grid but differ syntactically are
// reported without a witness (the diagnostic still fires on the formulas).
func findWitness(derived, expected costVec) (map[string]int64, string, bool) {
	for _, g := range witnessGrid.g {
		for _, w := range witnessGrid.w {
			env := map[string]int64{"g": g, "W": w}
			df, ds, dr, dl, err := derived.eval(env)
			if err != nil {
				continue
			}
			ef, es, er, el, err := expected.eval(env)
			if err != nil {
				continue
			}
			var counter string
			var got, want int64
			switch {
			case df != ef:
				counter, got, want = "F", df, ef
			case ds != es:
				counter, got, want = "S", ds, es
			case dr != er:
				counter, got, want = "R", dr, er
			case dl != el:
				counter, got, want = "L", dl, el
			default:
				continue
			}
			return env, fmt.Sprintf("g=%d W=%d: %s derived=%d expected=%d",
				g, w, counter, got, want), true
		}
	}
	return nil, "", false
}

// ---------------------------------------------------------------------------
// Tables 1/2 recurrences for the finite crosscheck worlds. These evaluate
// the paper's per-level cost sums exactly (unit-word model, worst-case F:
// no structural-zero or zero-entry skips), so S/R/L match the runtime
// Stats exactly and F dominates them.

// Counts is an exact four-counter tally for one finite world: F word
// operations, S sent words, R received words, L messages — per-processor
// maxima, mirroring machine.Report.
type Counts struct {
	F, S, R, L int64
}

func (c Counts) add(d Counts) Counts {
	return Counts{c.F + d.F, c.S + d.S, c.R + d.R, c.L + d.L}
}

func maxCounts(a, b Counts) Counts {
	return Counts{max64(a.F, b.F), max64(a.S, b.S), max64(a.R, b.R), max64(a.L, b.L)}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// World is one certified multiplication world of the shared list together
// with the paper's expected cost maxima.
type World struct {
	framework.MultiplyWorld
	Digits   int // total digit count the plan derives
	Expected Counts
}

// Worlds returns the certified crosscheck worlds: the shared world list's
// zero-fault worlds (the straggler variant's deadline receives are
// model-checked, not cost-certified).
func Worlds() []World {
	var ws []World
	for _, mw := range framework.MultiplyWorlds() {
		if mw.Straggler {
			continue
		}
		w := World{MultiplyWorld: mw}
		cols := 2*w.K - 1
		levels := w.DFSSteps + intLog(w.P, cols)
		w.Digits = ipow(w.K, levels) * w.P
		if w.FT {
			w.Expected = ftCounts(w.P, w.K, w.Faults, w.DFSSteps, w.Digits)
		} else {
			w.Expected = parallelCounts(w.P, w.K, w.DFSSteps, w.Digits)
		}
		ws = append(ws, w)
	}
	return ws
}

// MachineP returns the simulated machine size the world runs on.
func (w World) MachineP() int {
	if !w.FT {
		return w.P
	}
	cols := 2*w.K - 1
	gP := w.P / cols
	// Workers + one linear-code rank per grid column + F polynomial-code
	// ranks per grid row.
	return 2*w.P + w.Faults*gP
}

// ---------------------------------------------------------------------------
// Section 3 recurrence (plain parallel tier). All processors are SPMD
// symmetric, so the per-processor tally is the per-counter maximum.

// parallelCounts evaluates the Section 3 recurrence for P processors,
// Toom-Cook-k, l_DFS sequential levels and `digits` total digits.
func parallelCounts(p, k, ldfs, digits int) Counts {
	var c Counts
	parallelNode(&c, p, digits/p, k, ldfs, 0)
	return c
}

// parallelNode adds one recursion node's per-processor cost: g group
// members, s digits held per member. Result vectors have 2s entries per
// member (redundant digit representation).
func parallelNode(c *Counts, g, s, k, ldfs, level int) {
	cols := 2*k - 1
	switch {
	case level < ldfs:
		// DFS step: 2k-1 sequential sub-problems, no communication.
		lb := s / k
		for j := 0; j < cols; j++ {
			c.F += int64(4 * s) // two local evaluations, 2·(s/k)·k word-ops each
			parallelNode(c, g, lb, k, ldfs, level+1)
			c.F += int64(2 * cols * 2 * lb) // fold W^T column j into 2k-1 coefficients
		}
	case g > 1:
		// BFS step on the (g/(2k-1)) × (2k-1) grid.
		lb := s / k
		c.F += int64(4 * cols * s)        // evaluate all 2k-1 rows of both operands
		c.S += int64(2 * (cols - 1) * lb) // downward exchange (operands A and B)
		c.R += int64(2 * (cols - 1) * lb)
		c.L += int64(2 * (cols - 1))
		parallelNode(c, g/cols, lb*cols, k, ldfs, level+1)
		c.S += int64((cols - 1) * 2 * lb) // upward exchange of product classes
		c.R += int64((cols - 1) * 2 * lb)
		c.L += int64(cols - 1)
		c.F += int64(4 * cols * cols * lb) // fold: (2k-1)² weights over 2·(s/k) entries
	default:
		// Leaf: recompose (2s word-ops) and multiply (s² schoolbook bound).
		c.F += int64(2*s + s*s)
	}
}

// ---------------------------------------------------------------------------
// Section 4/5 recurrence (fault-tolerant tier, zero injected faults).
// Three roles: workers (grid columns 0..2k-2), linear-code ranks (one per
// worker, roots of the input/product erasure codes), and polynomial-code
// ranks (virtual grid columns 2k-1..2k-1+F-1).

func ftCounts(p, k, faults, ldfs, digits int) Counts {
	cols := 2*k - 1
	gP := p / cols
	total := 2*p + faults*gP
	logT := int64(ceilLog2(int64(total)))

	var worker, linear, poly Counts

	// createInputCode: each worker scales its 2·digits/P input share and
	// reduces it onto its linear-code root (binomial reduce over 2 ranks).
	inVec := int64(2 * digits / p)
	worker.F += inVec
	worker.S += inVec
	worker.L++
	linear.F += 2 * inVec
	linear.R += inVec

	// Barrier(PhaseEval), charged once to every rank.
	barrier := Counts{S: logT, L: logT}
	worker = worker.add(barrier)
	linear = linear.add(barrier)
	poly = poly.add(barrier)

	ftNode(&worker, &linear, &poly, p, k, faults, gP, logT, digits, ldfs, 0)

	return maxCounts(maxCounts(worker, linear), poly)
}

// ftNode adds one FT recursion level's per-role cost at lenTotal digits.
func ftNode(worker, linear, poly *Counts, p, k, faults, gP int, logT int64, lenTotal, ldfs, level int) {
	cols := 2*k - 1
	if level < ldfs {
		// DFS level: workers evaluate both operands locally (parallel.EvalRowBlocks
		// over the 2·lenTotal/P-word share, twice) and accumulate each
		// child product into the 2k-1 coefficient blocks; code ranks only
		// follow the recursion.
		shareLen := int64(lenTotal / p)
		childLen := int64(2 * lenTotal / k / p)
		for j := 0; j < cols; j++ {
			worker.F += 4 * shareLen
			ftNode(worker, linear, poly, p, k, faults, gP, logT, lenTotal/k, ldfs, level+1)
			worker.F += 2 * int64(cols) * childLen
		}
		return
	}

	// BFS step with F redundant columns.
	numCols := cols + faults
	shareLen := int64(lenTotal / p)
	per := int64(lenTotal / (k * p))
	prodLen := int64(2 * lenTotal / (k * gP))
	perUp := prodLen / int64(cols)

	// Evaluation over all real+virtual columns, downward redistribution.
	worker.F += 4 * int64(numCols) * shareLen
	worker.S += int64(numCols-1) * 2 * per // to every other column's row-mate
	worker.L += int64(numCols - 1)
	worker.R += int64(cols-1) * 2 * per // from every other worker column
	poly.R += int64(cols) * 2 * per     // virtual columns receive from all workers

	// Barrier(PhaseMul).
	barrier := Counts{S: logT, L: logT}
	*worker = worker.add(barrier)
	*linear = linear.add(barrier)
	*poly = poly.add(barrier)

	// Column subtree: plain parallel leaf over per·(2k-1) digits (gP = 1 in
	// the certified worlds; larger grids would recurse parallelNode here).
	sub := int64(per) * int64(cols)
	worker.F += 2*sub + sub*sub
	poly.F += 2*sub + sub*sub

	// createProductCode: workers reduce their child product onto their
	// linear-code root; virtual columns carry no code rank.
	worker.F += prodLen
	worker.S += prodLen
	worker.L++
	linear.F += 2 * prodLen
	linear.R += prodLen

	// Barrier(PhaseInterp).
	*worker = worker.add(barrier)
	*linear = linear.add(barrier)
	*poly = poly.add(barrier)

	// Upward exchange among the 2k-1 surviving (worker) columns; virtual
	// columns are not survivors under zero faults and return before it.
	worker.S += int64(cols-1) * perUp
	worker.R += int64(cols-1) * perUp
	worker.L += int64(cols - 1)

	// Fold with the lcm-scaled interpolation weights, plus the final
	// denominator-alignment rescale of the 2·lenTotal/P output entries.
	worker.F += 2*int64(cols)*int64(cols)*perUp + int64(2*lenTotal/p)
}

// ---------------------------------------------------------------------------
// Exact evaluation of the collective closed forms, exported for the
// crosscheck suite (static table vs. machine.Proc's runtime charges).

// ExpectedBroadcast evaluates the Table 1 Broadcast form at g, w.
func ExpectedBroadcast(g, w int64) Counts {
	return evalCollective("Broadcast", g, w)
}

// ExpectedReduce evaluates the Table 1 Reduce form at g, w.
func ExpectedReduce(g, w int64) Counts {
	return evalCollective("Reduce", g, w)
}

func evalCollective(name string, g, w int64) Counts {
	form, ok := expectedCollective(name)
	if !ok {
		panic("costbound: no formula for " + name)
	}
	env := map[string]int64{"g": g, "W": w}
	f, s, r, l, err := form.eval(env)
	if err != nil {
		panic("costbound: " + err.Error())
	}
	return Counts{f, s, r, l}
}

// intLog returns log_b(v) for exact powers, -1 otherwise.
func intLog(v, b int) int {
	if v < 1 || b < 2 {
		return -1
	}
	l := 0
	for v > 1 {
		if v%b != 0 {
			return -1
		}
		v /= b
		l++
	}
	return l
}

func ipow(base, exp int) int {
	out := 1
	for i := 0; i < exp; i++ {
		out *= base
	}
	return out
}
