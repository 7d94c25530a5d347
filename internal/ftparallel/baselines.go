package ftparallel

import (
	"fmt"

	"repro/internal/bigint"
	"repro/internal/collective"
	"repro/internal/ftengine"
	"repro/internal/machine"
	"repro/internal/parallel"
	"repro/internal/toom"
)

// ReplicationOptions configures the replication baseline of Theorem 5.3.
type ReplicationOptions struct {
	Alg      *toom.Algorithm
	P        int // processors per fleet; power of 2k-1
	F        int // tolerated faults; f extra fleets are allocated
	DFSSteps int
	Machine  machine.Config
	// Faults: phase PhaseMul addresses the single barrier after the fleets'
	// computation; a fault there invalidates the victim's entire fleet.
	Faults []machine.Fault
}

// ReplicationResult reports a replicated run.
type ReplicationResult struct {
	Product     bigint.Int
	Report      *machine.Report
	Fleets      int   // f+1
	DeadFleets  []int // fleets invalidated by faults
	ChosenFleet int   // fleet whose result was used
}

// MultiplyReplicated runs the general-purpose replication baseline: f+1
// independent fleets of P processors compute the same product; any fleet
// untouched by faults supplies the result (Section 5.3). Its costs equal
// Parallel Toom-Cook's per processor, but it occupies f·P additional
// processors — the overhead the paper's algorithm reduces by Θ(P/(2k-1)).
func MultiplyReplicated(a, b bigint.Int, opts ReplicationOptions) (*ReplicationResult, error) {
	if opts.Alg == nil {
		return nil, fmt.Errorf("ftparallel: ReplicationOptions.Alg is required")
	}
	if opts.F < 0 {
		return nil, fmt.Errorf("ftparallel: negative fault tolerance")
	}
	plan, err := parallel.NewPlan(a, b, parallel.Options{
		Alg:      opts.Alg,
		P:        opts.P,
		DFSSteps: opts.DFSSteps,
	})
	if err != nil {
		return nil, err
	}
	fleets := opts.F + 1
	cfg := opts.Machine
	cfg.P = fleets * opts.P
	m, err := machine.New(cfg, opts.Faults)
	if err != nil {
		return nil, err
	}
	results := make([][]bigint.Int, cfg.P)
	deadSeen := make([]map[int]bool, cfg.P)
	rep, err := m.Run(func(p *machine.Proc) error {
		fleet := p.ID() / opts.P
		rank := p.ID() % opts.P
		group := make(collective.Group, opts.P)
		for i := range group {
			group[i] = fleet*opts.P + i
		}
		myA, myB := plan.InputShares(rank)
		share, err := plan.Node(p, group, myA, myB, 0, fmt.Sprintf("rep%d", fleet))
		if err != nil {
			return err
		}
		// The single fault barrier: a fault here models a failure anywhere
		// in the victim's fleet during the computation (the fleet's output
		// can no longer be trusted/assembled).
		ev, err := p.Barrier(PhaseMul)
		if err != nil {
			return err
		}
		dead := map[int]bool{}
		for _, f := range ev {
			dead[f.Proc/opts.P] = true
		}
		deadSeen[p.ID()] = dead
		if !dead[fleet] {
			results[p.ID()] = share
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	dead := deadSeen[0]
	chosen := -1
	for fl := 0; fl < fleets; fl++ {
		if !dead[fl] {
			chosen = fl
			break
		}
	}
	if chosen < 0 {
		return nil, fmt.Errorf("ftparallel: all %d fleets failed: %w", fleets, ftengine.Exceeded(opts.F, rep.Faults))
	}
	_, wDen := opts.Alg.WScaled()
	product, err := plan.AssembleFrom(wDen, func(q int) ([]bigint.Int, error) {
		s := results[chosen*opts.P+q]
		if s == nil {
			return nil, fmt.Errorf("ftparallel: fleet %d processor %d has no result", chosen, q)
		}
		return s, nil
	})
	if err != nil {
		return nil, err
	}
	var deadList []int
	for fl := 0; fl < fleets; fl++ {
		if dead[fl] {
			deadList = append(deadList, fl)
		}
	}
	return &ReplicationResult{
		Product:     product,
		Report:      rep,
		Fleets:      fleets,
		DeadFleets:  deadList,
		ChosenFleet: chosen,
	}, nil
}

// CheckpointOptions configures the checkpoint-restart baseline.
type CheckpointOptions struct {
	Alg      *toom.Algorithm
	P        int
	DFSSteps int
	Machine  machine.Config
	// Faults: phase PhaseMul with hit h injects a fault at the end of the
	// h-th computation attempt, forcing a rollback and full recomputation.
	Faults []machine.Fault
}

// CheckpointResult reports a checkpoint-restart run.
type CheckpointResult struct {
	Product  bigint.Int
	Report   *machine.Report
	Restarts int
}

// maxRestarts bounds the checkpoint-restart baseline's retry loop.
const maxRestarts = 8

// MultiplyCheckpointRestart runs the checkpoint-restart baseline: inputs are
// checkpointed to a buddy processor (diskless checkpointing), the whole
// multiplication runs, and any fault rolls every processor back to the
// checkpoint for a full recomputation. This is the recomputation cost the
// paper's coded approach avoids.
func MultiplyCheckpointRestart(a, b bigint.Int, opts CheckpointOptions) (*CheckpointResult, error) {
	if opts.Alg == nil {
		return nil, fmt.Errorf("ftparallel: CheckpointOptions.Alg is required")
	}
	plan, err := parallel.NewPlan(a, b, parallel.Options{
		Alg:      opts.Alg,
		P:        opts.P,
		DFSSteps: opts.DFSSteps,
	})
	if err != nil {
		return nil, err
	}
	cfg := opts.Machine
	cfg.P = opts.P
	m, err := machine.New(cfg, opts.Faults)
	if err != nil {
		return nil, err
	}
	results := make([][]bigint.Int, opts.P)
	restarts := make([]int, opts.P)
	rep, err := m.Run(func(p *machine.Proc) error {
		rank := p.ID()
		buddy := (rank + 1) % opts.P
		prev := (rank - 1 + opts.P) % opts.P
		group := make(collective.Group, opts.P)
		for i := range group {
			group[i] = i
		}
		myA, myB := plan.InputShares(rank)

		checkpoint := func(round int) error {
			// Diskless checkpoint: ship my input state to my buddy.
			tag := fmt.Sprintf("ckpt/%d", round)
			if err := p.Send(buddy, tag, machine.Ints(parallel.Concat(myA, myB))); err != nil {
				return err
			}
			got, err := p.Recv(prev, tag)
			if err != nil {
				return err
			}
			return p.Store("buddy-ckpt", got)
		}
		if err := checkpoint(0); err != nil {
			return err
		}

		var share []bigint.Int
		for attempt := 0; ; attempt++ {
			if attempt >= maxRestarts {
				return fmt.Errorf("ftparallel: checkpoint-restart exceeded %d attempts", maxRestarts)
			}
			s, err := plan.Node(p, group, myA, myB, 0, fmt.Sprintf("cr%d", attempt))
			if err != nil {
				return err
			}
			ev, err := p.Barrier(PhaseMul)
			if err != nil {
				return err
			}
			if len(ev) == 0 {
				share = s
				restarts[rank] = attempt
				break
			}
			// Rollback: victims lost their state (including the buddy
			// checkpoint they held); restore from buddies, then everyone
			// recomputes from the checkpoint.
			for _, f := range ev {
				victim := f.Proc
				vb := (victim + 1) % opts.P
				tag := fmt.Sprintf("restore/%d/%d", attempt, victim)
				if rank == vb {
					ck, ok := p.Load("buddy-ckpt")
					if !ok {
						return fmt.Errorf("ftparallel: proc %d lost the buddy checkpoint of proc %d too (buddy-pair fault)", rank, victim)
					}
					if err := p.Send(victim, tag, ck); err != nil {
						return err
					}
				}
				if rank == victim {
					got, err := p.Recv(vb, tag)
					if err != nil {
						return err
					}
					half := len(got) / 2
					myA, myB = got[:half], got[half:]
				}
			}
			// Re-establish buddy checkpoints (victims' copies were wiped).
			if err := checkpoint(attempt + 1); err != nil {
				return err
			}
		}
		results[rank] = share
		return nil
	})
	if err != nil {
		return nil, err
	}
	_, wDen := opts.Alg.WScaled()
	product, err := plan.AssembleFrom(wDen, func(q int) ([]bigint.Int, error) {
		if results[q] == nil {
			return nil, fmt.Errorf("ftparallel: processor %d has no result", q)
		}
		return results[q], nil
	})
	if err != nil {
		return nil, err
	}
	return &CheckpointResult{Product: product, Report: rep, Restarts: restarts[0]}, nil
}
