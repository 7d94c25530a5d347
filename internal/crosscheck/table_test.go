package crosscheck

import "testing"

// table_test.go is the paper side of the cost crosscheck: the closed forms
// of Table 1 (collectives) and the cost recurrences behind Tables 1/2 and
// Theorems 5.1-5.3 (multiplication tiers), written down independently of
// the runtime. costcert_test.go compares the machine's runtime accounting
// against them.

// Counts is an exact four-counter tally: F word operations, S sent words,
// R received words, L messages — per-processor maxima, mirroring
// machine.Report.
type Counts struct {
	F, S, R, L int64
}

func (c Counts) add(d Counts) Counts {
	return Counts{c.F + d.F, c.S + d.S, c.R + d.R, c.L + d.L}
}

func maxCounts(a, b Counts) Counts {
	return Counts{max(a.F, b.F), max(a.S, b.S), max(a.R, b.R), max(a.L, b.L)}
}

// ceilLog2 returns ⌈log₂ p⌉, at least 1: the depth of a binomial tree over
// p members, and the message count of the machine's tree barrier.
func ceilLog2(p int64) int64 {
	l := int64(0)
	for v := int64(1); v < p; v <<= 1 {
		l++
	}
	return max(l, 1)
}

// ---------------------------------------------------------------------------
// Table 1: binomial-tree collectives over g members with W payload words.

// expectedBroadcast is the Table 1 Broadcast form: the root relays down the
// binomial tree, ⌈log₂ g⌉ sends of W words; every non-root receives the
// payload once.
func expectedBroadcast(g, w int64) Counts {
	lg := ceilLog2(g)
	return Counts{F: 0, S: w * lg, R: w, L: lg}
}

// expectedReduce is the Table 1 Reduce form: the root combines ⌈log₂ g⌉
// child contributions (W word-ops each); every non-root sends its partial
// once.
func expectedReduce(g, w int64) Counts {
	lg := ceilLog2(g)
	return Counts{F: w * lg, S: w, R: w * lg, L: 1}
}

// ---------------------------------------------------------------------------
// Tables 1/2 recurrences for finite worlds. These evaluate the paper's
// per-level cost sums exactly (unit-word model, worst-case F: no
// structural-zero or zero-entry skips), so S/R/L match the runtime Stats
// exactly and F dominates them.

// World is one multiplication world: a tier (ftparallel.Multiply when FT,
// else parallel.Multiply) on a finite grid, with the paper's expected cost
// maxima at zero faults.
type World struct {
	Name     string
	FT       bool
	P        int // worker processors
	K        int // Toom-Cook parameter
	Faults   int // FT redundancy F
	DFSSteps int
	Digits   int // total digit count the plan derives
	Expected Counts
}

// Worlds returns the crosschecked worlds: both tiers, with and without a
// DFS level, on the smallest legal grid.
func Worlds() []World {
	ws := []World{
		{Name: "parallel/P3k2", P: 3, K: 2},
		{Name: "parallel/P3k2+dfs", P: 3, K: 2, DFSSteps: 1},
		{Name: "ftparallel/P3k2F1", FT: true, P: 3, K: 2, Faults: 1},
		{Name: "ftparallel/P3k2F1+dfs", FT: true, P: 3, K: 2, Faults: 1, DFSSteps: 1},
	}
	for i := range ws {
		w := &ws[i]
		cols := 2*w.K - 1
		levels := w.DFSSteps + intLog(w.P, cols)
		w.Digits = ipow(w.K, levels) * w.P
		if w.FT {
			w.Expected = ftCounts(w.P, w.K, w.Faults, w.DFSSteps, w.Digits)
		} else {
			w.Expected = parallelCounts(w.P, w.K, w.DFSSteps, w.Digits)
		}
	}
	return ws
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
	logT := ceilLog2(int64(total))

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
	// these worlds; larger grids would recurse parallelNode here).
	sub := per * int64(cols)
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

// TestTableCounts pins the recurrence evaluations to hand-derived values, so
// a table-side regression cannot silently track a runtime-side one.
func TestTableCounts(t *testing.T) {
	want := map[string]Counts{
		"parallel/P3k2":         {F: 75, S: 8, R: 8, L: 6},
		"parallel/P3k2+dfs":     {F: 345, S: 24, R: 24, L: 18},
		"ftparallel/P3k2F1":     {F: 97, S: 29, R: 10, L: 16},
		"ftparallel/P3k2F1+dfs": {F: 407, S: 77, R: 26, L: 40},
	}
	ws := Worlds()
	if len(ws) != len(want) {
		t.Fatalf("got %d worlds, want %d", len(ws), len(want))
	}
	for _, w := range ws {
		exp, ok := want[w.Name]
		if !ok {
			t.Errorf("unexpected world %s", w.Name)
			continue
		}
		if w.Expected != exp {
			t.Errorf("world %s: table gives %+v, hand derivation gives %+v", w.Name, w.Expected, exp)
		}
	}
	// Collective closed forms at spot points: ⌈log₂4⌉ = 2, ⌈log₂5⌉ = 3.
	if got := expectedBroadcast(4, 3); got != (Counts{F: 0, S: 6, R: 3, L: 2}) {
		t.Errorf("expectedBroadcast(4,3) = %+v", got)
	}
	if got := expectedBroadcast(5, 2); got != (Counts{F: 0, S: 6, R: 2, L: 3}) {
		t.Errorf("expectedBroadcast(5,2) = %+v", got)
	}
	if got := expectedReduce(4, 3); got != (Counts{F: 6, S: 3, R: 6, L: 1}) {
		t.Errorf("expectedReduce(4,3) = %+v", got)
	}
}
