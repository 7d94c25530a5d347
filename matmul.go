package ftmul

// matmul.go is the public face of the fault-tolerant matrix multiplication
// tier (internal/ftmatmul): the two-distinct-algorithms scheme — 8 standard
// 2×2-block products plus Strassen's 7 on 15 processors — running on the
// same generic fault-tolerant engine as the integer multiplication, where
// any single fail-stop leaves one complete algorithm to decode the exact
// product from, with no replication and no recomputation.

import (
	"fmt"
	"math/big"

	"repro/internal/bigint"
	"repro/internal/ftmatmul"
	"repro/internal/mat"
)

// MatReport extends CostReport with the matrix scheme's fault bookkeeping.
type MatReport struct {
	CostReport
	// DeadRanks lists processors whose block products were lost to
	// compute-phase faults (distribution-phase victims recover in place
	// and do not appear).
	DeadRanks []int
	// Recovered counts fault events repaired during input distribution.
	Recovered int
}

// MulMatrixFaultTolerant multiplies two integer matrices with the
// fault-tolerant two-distinct-algorithms scheme on the backend cfg.Backend
// selects (the simulator by default), tolerating any single fail-stop fault
// injected per `faults`. The scheme always runs on 15 processors, so
// cfg.P is ignored, as are the integer tier's DFS settings (MemoryWords,
// DFSSteps); α/β/γ, SpeedFactors and WallTimeDilation apply. Inputs of any
// conformable shape are accepted (rows of a must be non-ragged, likewise
// b; a's column count must equal b's row count). The product is exact, or
// the run fails with an error — never a silently wrong matrix.
func MulMatrixFaultTolerant(a, b [][]*big.Int, cfg ClusterConfig, faults []Fault) ([][]*big.Int, *MatReport, error) {
	ma, err := toIntMat(a)
	if err != nil {
		return nil, nil, err
	}
	mb, err := toIntMat(b)
	if err != nil {
		return nil, nil, err
	}
	res, err := ftmatmul.Multiply(ma, mb, ftmatmul.Options{
		Machine: cfg.machineConfig(),
		Faults:  toMachineFaults(faults),
	})
	if err != nil {
		return nil, nil, err
	}
	rep := &MatReport{
		CostReport: *newCostReport(res.Report, len(res.Report.PerProc)),
		DeadRanks:  res.Dead,
		Recovered:  res.Recovered,
	}
	return fromIntMat(res.C), rep, nil
}

// toIntMat converts a math/big matrix through one limb slab.
func toIntMat(rows [][]*big.Int) (*mat.IntMat, error) {
	if len(rows) == 0 || len(rows[0]) == 0 {
		return nil, fmt.Errorf("ftmul: empty matrix")
	}
	cols := len(rows[0])
	words := 0
	for i, row := range rows {
		if len(row) != cols {
			return nil, fmt.Errorf("ftmul: ragged matrix: row %d has %d entries, want %d", i, len(row), cols)
		}
		for j, v := range row {
			if v == nil {
				return nil, fmt.Errorf("ftmul: nil entry at (%d,%d)", i, j)
			}
			words += (len(v.Bits()) + bigint.BigWordsPerLimb - 1) / bigint.BigWordsPerLimb
		}
	}
	m := mat.NewIntMat(len(rows), cols)
	slab := make([]uint64, 0, words)
	for i, row := range rows {
		for j, v := range row {
			var x bigint.Int
			x, slab = bigint.AppendBig(slab, v)
			m.Set(i, j, x)
		}
	}
	return m, nil
}

// fromIntMat builds the math/big result from one []big.Int slab, one
// []big.Word slab cut into capped per-entry slices (an entry the caller
// grows reallocates instead of overwriting its neighbour) and one backing
// array for the row slices.
func fromIntMat(m *mat.IntMat) [][]*big.Int {
	r, c := m.Rows(), m.Cols()
	words := 0
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			words += m.At(i, j).WordLen() * bigint.BigWordsPerLimb
		}
	}
	vals := make([]big.Int, r*c)
	ptrs := make([]*big.Int, r*c)
	slab := make([]big.Word, words)
	out := make([][]*big.Int, r)
	off := 0
	for i := range out {
		out[i] = ptrs[i*c : (i+1)*c : (i+1)*c]
		for j := range out[i] {
			x := m.At(i, j)
			n := off + x.WordLen()*bigint.BigWordsPerLimb
			out[i][j] = x.ToBigOn(&vals[i*c+j], slab[off:n:n])
			off = n
		}
	}
	return out
}
