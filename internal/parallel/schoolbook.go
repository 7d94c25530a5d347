package parallel

import (
	"fmt"

	"repro/internal/bigint"
	"repro/internal/collective"
	"repro/internal/machine"
	"repro/internal/toom"
)

// SchoolbookOptions configures a parallel schoolbook multiplication.
type SchoolbookOptions struct {
	// P is the processor count; it must be a perfect square s² (the
	// processors form an s×s grid).
	P       int
	Machine machine.Config
}

// SchoolbookResult reports a parallel schoolbook run.
type SchoolbookResult struct {
	Product bigint.Int
	Report  *machine.Report
	Shift   int // block width in bits
}

// MultiplySchoolbook runs the parallel standard (schoolbook) multiplication
// on an s×s processor grid — the classical baseline whose communication-
// optimal parallelization De Stefani analyzed alongside Karatsuba's (the
// comparison point of the paper's related work and of our crossover
// experiments).
//
// The operands split into s blocks each; processor (i, j) receives block
// a_i (broadcast along its row) and block b_j (broadcast along its column),
// multiplies them locally (Θ((n/s)²) word operations — the Θ(n²/P) total of
// the schoolbook algorithm), and the partial products reduce along the
// anti-diagonals i+j, which carry a common positional weight. Per-processor
// bandwidth is Θ(n/√P), the 2D-grid shape.
func MultiplySchoolbook(a, b bigint.Int, opts SchoolbookOptions) (*SchoolbookResult, error) {
	s := intSqrt(opts.P)
	if s < 1 || s*s != opts.P {
		return nil, fmt.Errorf("parallel: schoolbook grid needs P to be a perfect square, got %d", opts.P)
	}
	neg := a.Sign()*b.Sign() < 0
	aAbs, bAbs := a.Abs(), b.Abs()
	if aAbs.IsZero() || bAbs.IsZero() {
		return &SchoolbookResult{Product: bigint.Zero(), Report: &machine.Report{}}, nil
	}
	maxBits := aAbs.BitLen()
	if bAbs.BitLen() > maxBits {
		maxBits = bAbs.BitLen()
	}
	shift := (maxBits + s - 1) / s

	// Pre-distributed inputs: the diagonal processor (i, i) holds blocks
	// a_i and b_i (unmetered starting state, as in the Toom-Cook engines).
	aBlocks := toom.SplitDigits(aAbs, s, shift)
	bBlocks := toom.SplitDigits(bAbs, s, shift)

	cfg := opts.Machine
	cfg.P = opts.P
	m, err := machine.New(cfg, nil)
	if err != nil {
		return nil, err
	}
	rep, err := m.Run(func(p *machine.Proc) error {
		i, j := p.ID()/s, p.ID()%s

		// Row broadcast of a_i from the diagonal member; column broadcast
		// of b_j likewise.
		rowGroup := make(collective.Group, s)
		colGroup := make(collective.Group, s)
		for t := 0; t < s; t++ {
			rowGroup[t] = i*s + t
			colGroup[t] = t*s + j
		}
		var mineA, mineB machine.Ints
		if j == i {
			mineA = machine.Ints{aBlocks[i]}
		}
		if i == j {
			mineB = machine.Ints{bBlocks[j]}
		}
		gotA, err := collective.Broadcast(p, rowGroup, i, "sb/a", mineA)
		if err != nil {
			return err
		}
		gotB, err := collective.Broadcast(p, colGroup, j, "sb/b", mineB)
		if err != nil {
			return err
		}

		// Local schoolbook block product.
		x, y := gotA[0], gotB[0]
		p.Work(x.Words() * y.Words())
		part := x.Mul(y)

		// Anti-diagonal reduce: all (i, j) with the same d = i+j share the
		// positional weight 2^{d·shift}; sum them at the diagonal's first
		// member.
		d := i + j
		var diag collective.Group
		lo := d - (s - 1)
		if lo < 0 {
			lo = 0
		}
		for ii := lo; ii <= d && ii < s; ii++ {
			diag = append(diag, ii*s+(d-ii))
		}
		total, err := collective.Reduce(p, diag, 0, fmt.Sprintf("sb/diag%d", d), machine.Ints{part})
		if err != nil {
			return err
		}
		if diag.Index(p.ID()) == 0 {
			return p.Store("sb-part", total)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Unmetered read-out: sum the diagonal partials at their offsets.
	product := bigint.Zero()
	for d := 0; d <= 2*(s-1); d++ {
		i := d - (s - 1) // first member of the diagonal group
		if i < 0 {
			i = 0
		}
		root := i*s + (d - i)
		v, ok := m.StoreOf(root, "sb-part")
		if !ok {
			return nil, fmt.Errorf("parallel: diagonal %d root has no partial", d)
		}
		part := v[0]
		product = product.Add(part.Shl(uint(d * shift)))
	}
	if neg {
		product = product.Neg()
	}
	return &SchoolbookResult{Product: product, Report: rep, Shift: shift}, nil
}

func intSqrt(p int) int {
	s := 0
	for (s+1)*(s+1) <= p {
		s++
	}
	return s
}
