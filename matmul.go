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

func toIntMat(rows [][]*big.Int) (*mat.IntMat, error) {
	if len(rows) == 0 || len(rows[0]) == 0 {
		return nil, fmt.Errorf("ftmul: empty matrix")
	}
	cols := len(rows[0])
	m := mat.NewIntMat(len(rows), cols)
	for i, row := range rows {
		if len(row) != cols {
			return nil, fmt.Errorf("ftmul: ragged matrix: row %d has %d entries, want %d", i, len(row), cols)
		}
		for j, v := range row {
			if v == nil {
				return nil, fmt.Errorf("ftmul: nil entry at (%d,%d)", i, j)
			}
			m.Set(i, j, bigint.FromBig(v))
		}
	}
	return m, nil
}

func fromIntMat(m *mat.IntMat) [][]*big.Int {
	out := make([][]*big.Int, m.Rows())
	for i := range out {
		out[i] = make([]*big.Int, m.Cols())
		for j := range out[i] {
			out[i][j] = m.At(i, j).ToBig()
		}
	}
	return out
}
