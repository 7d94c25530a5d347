package ftengine

import (
	"fmt"

	"repro/internal/bigint"
	"repro/internal/machine"
)

// Straggler is the per-row delay-fault decision protocol (the paper's third
// fault category): every grid column of a row reports completion to the
// row's decider (extended column 0); the decider accepts reports whose
// virtual arrival beats its deadline (own completion + Slack), picks the
// first 2k-1 on-time columns, and broadcasts the choice to the whole row.
// Slower columns are simply not waited for — the redundant evaluation-point
// columns stand in for them exactly as they do for dead columns.
type Straggler struct {
	Lay   Layout
	Slack float64
}

// DecideOnTime runs one row's decision round under the given message tag.
// Linear-code processors are not involved and return a nil choice.
func (s Straggler) DecideOnTime(p *machine.Proc, myRow int, inGrid bool, tag string) (chosen, late []int, err error) {
	if !inGrid {
		return nil, nil, nil
	}
	lay := s.Lay
	cols := lay.Cols()
	numCols := lay.NumColumns()
	decider := lay.ColumnRank(myRow, 0)
	if p.ID() != decider {
		// The report is one word; the decider reads only its arrival time.
		if err := p.Send(decider, tag+"/done", make(machine.Ints, 1)); err != nil {
			return nil, nil, err
		}
		dec, err := p.Recv(decider, tag+"/dec")
		if err != nil {
			return nil, nil, err
		}
		if len(dec) < cols {
			return nil, nil, fmt.Errorf("ftengine: row decider aborted (straggler slack exhausted)")
		}
		all := make([]int, len(dec))
		for i, v := range dec {
			c, _ := v.Int64()
			all[i] = int(c)
		}
		return all[:cols], all[cols:], nil
	}
	deadline := p.Clock() + s.Slack
	onTime := []int{0} // the decider's own column is on time by definition
	for c := 1; c < numCols; c++ {
		src := lay.ColumnRank(myRow, c)
		_, ok, err := p.RecvDeadline(src, tag+"/done", deadline)
		if err != nil {
			return nil, nil, err
		}
		if ok {
			onTime = append(onTime, c)
		} else {
			late = append(late, c)
		}
	}
	if len(onTime) < cols {
		// Abort fast: broadcast an empty decision so row-mates fail
		// immediately instead of timing out.
		for c := 1; c < numCols; c++ {
			if err := p.Send(lay.ColumnRank(myRow, c), tag+"/dec", machine.Ints{}); err != nil {
				return nil, nil, err
			}
		}
		return nil, nil, fmt.Errorf("ftengine: only %d of %d required columns reported within the straggler slack", len(onTime), cols)
	}
	chosen = onTime[:cols]
	enc := make(machine.Ints, 0, cols+len(late))
	for _, c := range chosen {
		enc = append(enc, bigint.FromInt64(int64(c)))
	}
	for _, c := range late {
		enc = append(enc, bigint.FromInt64(int64(c)))
	}
	for c := 1; c < numCols; c++ {
		if err := p.Send(lay.ColumnRank(myRow, c), tag+"/dec", enc); err != nil {
			return nil, nil, err
		}
	}
	return chosen, late, nil
}
