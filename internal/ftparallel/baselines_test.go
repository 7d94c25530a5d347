package ftparallel

import (
	"math/big"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/parallel"
	"repro/internal/toom"
)

func TestReplicationNoFaults(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	alg := toom.MustNew(2)
	a, b := randOperand(rng, 1<<14), randOperand(rng, 1<<14)
	res, err := MultiplyReplicated(a, b, ReplicationOptions{Alg: alg, P: 9, F: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := new(big.Int).Mul(a.ToBig(), b.ToBig())
	if res.Product.ToBig().Cmp(want) != 0 {
		t.Fatal("replicated product mismatch")
	}
	if res.Fleets != 3 || res.ChosenFleet != 0 || len(res.DeadFleets) != 0 {
		t.Errorf("fleets=%d chosen=%d dead=%v", res.Fleets, res.ChosenFleet, res.DeadFleets)
	}
}

func TestReplicationSurvivesFleetLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	alg := toom.MustNew(2)
	a, b := randOperand(rng, 1<<14), randOperand(rng, 1<<14)
	// Kill a proc in fleet 0; fleet 1 must take over.
	res, err := MultiplyReplicated(a, b, ReplicationOptions{
		Alg: alg, P: 9, F: 1,
		Faults: []machine.Fault{{Proc: 4, Phase: PhaseMul}},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := new(big.Int).Mul(a.ToBig(), b.ToBig())
	if res.Product.ToBig().Cmp(want) != 0 {
		t.Fatal("replicated product mismatch after fleet loss")
	}
	if res.ChosenFleet != 1 || len(res.DeadFleets) != 1 || res.DeadFleets[0] != 0 {
		t.Errorf("chosen=%d dead=%v", res.ChosenFleet, res.DeadFleets)
	}
}

func TestReplicationToleranceExceeded(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	alg := toom.MustNew(2)
	a, b := randOperand(rng, 1<<13), randOperand(rng, 1<<13)
	_, err := MultiplyReplicated(a, b, ReplicationOptions{
		Alg: alg, P: 3, F: 1,
		Faults: []machine.Fault{
			{Proc: 0, Phase: PhaseMul},
			{Proc: 3, Phase: PhaseMul},
		},
	})
	if err == nil {
		t.Fatal("both fleets dead must fail")
	}
}

func TestReplicationUsesFTimesMoreProcessors(t *testing.T) {
	// The comparison behind the headline claim: replication's total F is
	// ~(f+1)× the plain run's; the coded algorithm's is ~1×.
	rng := rand.New(rand.NewSource(104))
	alg := toom.MustNew(2)
	a, b := randOperand(rng, 1<<15), randOperand(rng, 1<<15)
	plain, err := parallel.Multiply(a, b, parallel.Options{Alg: alg, P: 9})
	if err != nil {
		t.Fatal(err)
	}
	repl, err := MultiplyReplicated(a, b, ReplicationOptions{Alg: alg, P: 9, F: 2})
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(repl.Report.TotalF) / float64(plain.Report.TotalF)
	if ratio < 2.5 || ratio > 3.5 {
		t.Errorf("replication total work ratio = %.2f, want ≈ 3 (f+1)", ratio)
	}
	// Per-processor critical path is essentially unchanged (Theorem 5.3).
	cp := float64(repl.Report.F) / float64(plain.Report.F)
	if cp > 1.2 {
		t.Errorf("replication critical-path F ratio = %.2f, want ≈ 1", cp)
	}
}

func TestCheckpointRestartNoFaults(t *testing.T) {
	rng := rand.New(rand.NewSource(105))
	alg := toom.MustNew(2)
	a, b := randOperand(rng, 1<<14), randOperand(rng, 1<<14)
	res, err := MultiplyCheckpointRestart(a, b, CheckpointOptions{Alg: alg, P: 9})
	if err != nil {
		t.Fatal(err)
	}
	want := new(big.Int).Mul(a.ToBig(), b.ToBig())
	if res.Product.ToBig().Cmp(want) != 0 {
		t.Fatal("checkpoint-restart product mismatch")
	}
	if res.Restarts != 0 {
		t.Errorf("restarts = %d", res.Restarts)
	}
}

func TestCheckpointRestartRecomputes(t *testing.T) {
	rng := rand.New(rand.NewSource(106))
	alg := toom.MustNew(2)
	a, b := randOperand(rng, 1<<14), randOperand(rng, 1<<14)
	clean, err := MultiplyCheckpointRestart(a, b, CheckpointOptions{Alg: alg, P: 9})
	if err != nil {
		t.Fatal(err)
	}
	faulty, err := MultiplyCheckpointRestart(a, b, CheckpointOptions{
		Alg: alg, P: 9,
		Faults: []machine.Fault{{Proc: 5, Phase: PhaseMul}},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := new(big.Int).Mul(a.ToBig(), b.ToBig())
	if faulty.Product.ToBig().Cmp(want) != 0 {
		t.Fatal("checkpoint-restart product mismatch after fault")
	}
	if faulty.Restarts != 1 {
		t.Errorf("restarts = %d, want 1", faulty.Restarts)
	}
	// The whole point of the paper: checkpoint-restart pays a full
	// recomputation on fault — roughly doubling the arithmetic.
	ratio := float64(faulty.Report.F) / float64(clean.Report.F)
	if ratio < 1.6 {
		t.Errorf("recomputation cost ratio = %.2f, want ≈ 2", ratio)
	}
}

func TestCheckpointRestartTwoFaults(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	alg := toom.MustNew(2)
	a, b := randOperand(rng, 1<<13), randOperand(rng, 1<<13)
	res, err := MultiplyCheckpointRestart(a, b, CheckpointOptions{
		Alg: alg, P: 9,
		Faults: []machine.Fault{
			{Proc: 2, Phase: PhaseMul, Hit: 0},
			{Proc: 7, Phase: PhaseMul, Hit: 1},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := new(big.Int).Mul(a.ToBig(), b.ToBig())
	if res.Product.ToBig().Cmp(want) != 0 {
		t.Fatal("product mismatch after two sequential faults")
	}
	if res.Restarts != 2 {
		t.Errorf("restarts = %d, want 2", res.Restarts)
	}
}

func TestCheckpointBuddyPairLoss(t *testing.T) {
	// A fault pair hitting a buddy chain (victim and its checkpoint holder
	// at once) is beyond diskless buddy checkpointing; the run must fail
	// loudly rather than return a wrong product, and at once, naming the
	// buddy-pair loss rather than the timeout of the victim left waiting
	// for a restore that never comes.
	rng := rand.New(rand.NewSource(108))
	alg := toom.MustNew(2)
	a, b := randOperand(rng, 1<<13), randOperand(rng, 1<<13)
	_, err := MultiplyCheckpointRestart(a, b, CheckpointOptions{
		Alg: alg, P: 3,
		Faults: []machine.Fault{
			{Proc: 0, Phase: PhaseMul},
			{Proc: 1, Phase: PhaseMul},
		},
	})
	if err == nil || !strings.Contains(err.Error(), "buddy-pair fault") {
		t.Fatalf("err = %v, want the buddy-pair loss", err)
	}
}

func TestBaselineOptionValidation(t *testing.T) {
	if _, err := MultiplyReplicated(randOperand(rand.New(rand.NewSource(1)), 64), randOperand(rand.New(rand.NewSource(2)), 64), ReplicationOptions{P: 3}); err == nil {
		t.Error("missing Alg should fail")
	}
	if _, err := MultiplyCheckpointRestart(randOperand(rand.New(rand.NewSource(1)), 64), randOperand(rand.New(rand.NewSource(2)), 64), CheckpointOptions{P: 3}); err == nil {
		t.Error("missing Alg should fail")
	}
}
