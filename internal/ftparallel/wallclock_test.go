package ftparallel

import (
	"math/big"
	"math/rand"
	"testing"
	"time"

	"repro/internal/bigint"
	"repro/internal/machine"
	"repro/internal/toom"
)

// TestStragglerDroppedInRealTime runs delay-fault mitigation on the
// wall-clock backend with time dilation, so the injected straggler is not
// a bookkeeping entry in a virtual clock but a goroutine that really is
// ~100× slower than its peers, and the decider's RecvDeadline is a real
// timer. The run must make the same drop decision as the simulator and
// its wall clock must land near the simulator's modeled time (the whole
// point of dilation: model units become real durations).
func TestStragglerDroppedInRealTime(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := bigint.Random(rng, 1<<12)
	b := bigint.Random(rng, 1<<12)
	want := new(big.Int).Mul(a.ToBig(), b.ToBig())
	alg := toom.MustNew(2)
	lay, err := NewLayout(9, 2, 1)
	if err != nil {
		t.Fatal(err)
	}

	const factor = 100.0
	slow := make([]float64, lay.Total())
	for i := range slow {
		slow[i] = 1
	}
	for r := 0; r < lay.GPrime; r++ {
		slow[lay.ColumnRank(r, 1)] = factor
	}
	slack := 10 * float64(a.BitLen())
	opts := func(cfg machine.Config) Options {
		return Options{
			Alg: alg, P: 9, F: 1,
			StragglerSlack: slack,
			Machine:        cfg,
		}
	}

	sim, err := Multiply(a, b, opts(machine.Config{SpeedFactors: slow}))
	if err != nil {
		t.Fatal(err)
	}
	if len(sim.DeadColumns) == 0 {
		t.Fatal("simulator did not drop the straggler column; the scenario is miscalibrated")
	}

	// One model unit = 1µs of real time: the straggler's ~2.5·10^5 charged
	// units become a real quarter-second laggard, while the decider's
	// slack deadline is a ~41ms timer.
	wall, err := Multiply(a, b, opts(machine.Config{
		Backend:          machine.BackendWall,
		WallTimeDilation: time.Microsecond,
		SpeedFactors:     slow,
	}))
	if err != nil {
		t.Fatal(err)
	}
	if wall.Product.ToBig().Cmp(want) != 0 {
		t.Fatal("wall-backend product differs from math/big")
	}
	if len(wall.DeadColumns) != len(sim.DeadColumns) || wall.DeadColumns[0] != sim.DeadColumns[0] {
		t.Errorf("drop decisions diverge: wall %v, sim %v", wall.DeadColumns, sim.DeadColumns)
	}
	if sim.Report.F != wall.Report.F {
		t.Errorf("critical-path F diverges: sim %d, wall %d", sim.Report.F, wall.Report.F)
	}

	// Dilated wall time tracks the model: real scheduling noise only adds,
	// and the modeled sleeps dominate it at 1µs/unit, so the wall clock
	// must land in a band just above the simulator's virtual clock.
	if wall.Report.Time < sim.Report.Time || wall.Report.Time > 3*sim.Report.Time {
		t.Errorf("dilated wall time %.0f outside [1,3]× modeled time %.0f",
			wall.Report.Time, sim.Report.Time)
	}
}
