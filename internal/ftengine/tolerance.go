package ftengine

import (
	"fmt"
	"sort"

	"repro/internal/machine"
)

// ToleranceError reports a fault plan beyond what a run was built to
// tolerate: Dead lists the failed ranks behind the loss, ascending, and F
// is the number of faults the run tolerates. Every fault-tolerant tier
// wraps it where it gives up, so callers can tell an exceeded tolerance
// from any other failure with errors.As.
type ToleranceError struct {
	Dead []int
	F    int
}

func (e *ToleranceError) Error() string {
	return fmt.Sprintf("fault tolerance f=%d exceeded: dead ranks %v", e.F, e.Dead)
}

// Exceeded returns the ToleranceError for a run tolerating f faults that
// lost the ranks of the fault events ev.
func Exceeded(f int, ev []machine.FaultEvent) *ToleranceError {
	dead := make([]int, len(ev))
	for i, e := range ev {
		dead[i] = e.Proc
	}
	sort.Ints(dead)
	return &ToleranceError{Dead: dead, F: f}
}
