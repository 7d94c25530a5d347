package ftengine

import (
	"errors"
	"fmt"
	"math/big"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/bigint"
	"repro/internal/machine"
)

// stubWorkload is a minimal Workload: one-entry shards on the first p
// ranks, a test-supplied Step, Decode passing the slots through unless the
// test supplies one, and Recombine returning slot 0.
type stubWorkload struct {
	p      int
	step   func(p *machine.Proc, rk *Rank) (Slots, error)
	decode func(dead []int, slots map[int][]bigint.Int) (map[int][]bigint.Int, error)
}

func (w *stubWorkload) Shard(rank int) []bigint.Int {
	if rank >= w.p {
		return nil
	}
	return []bigint.Int{bigint.FromInt64(int64(rank + 1))}
}

func (w *stubWorkload) Step(p *machine.Proc, rk *Rank) (Slots, error) { return w.step(p, rk) }

func (w *stubWorkload) Decode(dead []int, slots map[int][]bigint.Int) (map[int][]bigint.Int, error) {
	if w.decode != nil {
		return w.decode(dead, slots)
	}
	return slots, nil
}

func (w *stubWorkload) Recombine(slots map[int][]bigint.Int) ([]bigint.Int, error) {
	return slots[0], nil
}

// runFlat runs wl on a p-rank flat layout with a nil erasure code.
func runFlat(t *testing.T, wl Workload, p int, faults []machine.Fault) (*RunResult, error) {
	t.Helper()
	lay := FlatLayout(p)
	return Run(wl, RunOptions{Layout: lay, Coder: NewCoder(lay, nil, 0, 0), Faults: faults})
}

func TestRunRejectsRaggedSlotShares(t *testing.T) {
	wl := &stubWorkload{p: 3, step: func(p *machine.Proc, rk *Rank) (Slots, error) {
		return Slots{0: make([]bigint.Int, 1+p.ID()%2)}, nil
	}}
	if _, err := runFlat(t, wl, 3, nil); err == nil || !strings.Contains(err.Error(), "ragged slot shares") {
		t.Fatalf("err = %v, want the ragged slot shares error", err)
	}
}

// TestNilCoderKeepsBarriers: with a nil erasure code Protect still crosses
// the evaluation barrier, so the fault plan fires there and every rank sees
// the event, but the Coder encodes and repairs nothing: no rank sends a
// message beyond the barrier's own ⌈log₂4⌉ = 2 or holds a codeword.
func TestNilCoderKeepsBarriers(t *testing.T) {
	const ranks = 4
	codes := make([][]bigint.Int, ranks)
	events := make([][]machine.FaultEvent, ranks)
	wl := &stubWorkload{p: ranks, step: func(p *machine.Proc, rk *Rank) (Slots, error) {
		codes[p.ID()] = rk.Ctx.Code
		events[p.ID()] = rk.EvalEvents
		return Slots{0: []bigint.Int{bigint.One()}}, nil
	}}
	res, err := runFlat(t, wl, ranks, []machine.Fault{{Proc: 2, Phase: PhaseEval}})
	if err != nil {
		t.Fatal(err)
	}
	for r, st := range res.Report.PerProc {
		if st.Barriers != 1 || st.Messages != 2 {
			t.Errorf("rank %d: %d barriers and %d messages, want 1 and 2", r, st.Barriers, st.Messages)
		}
		if codes[r] != nil {
			t.Errorf("rank %d holds a codeword under a nil code", r)
		}
		if want := []machine.FaultEvent{{Proc: 2, Phase: PhaseEval}}; !reflect.DeepEqual(events[r], want) {
			t.Errorf("rank %d saw eval events %v, want %v", r, events[r], want)
		}
	}
	if got := res.Output[0].ToBig().Int64(); got != ranks {
		t.Errorf("merged output = %d, want %d", got, ranks)
	}
}

// TestEveryRankRecordsTheSameDeadSet: fault events are global, so the dead
// units each rank records from the evaluation barrier and from its own
// barrier in Step agree, and Run reports that set.
func TestEveryRankRecordsTheSameDeadSet(t *testing.T) {
	const ranks = 5
	seen := make([][]int, ranks)
	wl := &stubWorkload{p: ranks, step: func(p *machine.Proc, rk *Rank) (Slots, error) {
		for _, ev := range rk.EvalEvents {
			rk.DeadSeen[ev.Proc] = true
		}
		ev, err := p.Barrier(PhaseMul)
		if err != nil {
			return nil, err
		}
		for _, e := range ev {
			rk.DeadSeen[e.Proc] = true
		}
		for u := range rk.DeadSeen {
			seen[p.ID()] = append(seen[p.ID()], u)
		}
		sort.Ints(seen[p.ID()])
		return Slots{0: []bigint.Int{bigint.One()}}, nil
	}}
	faults := []machine.Fault{{Proc: 3, Phase: PhaseEval}, {Proc: 1, Phase: PhaseMul}}
	res, err := runFlat(t, wl, ranks, faults)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{1, 3}; !reflect.DeepEqual(res.Dead, want) {
		t.Fatalf("Run reports dead %v, want %v", res.Dead, want)
	}
	for r, s := range seen {
		if !reflect.DeepEqual(s, res.Dead) {
			t.Errorf("rank %d recorded dead %v, rank 0 %v", r, s, res.Dead)
		}
	}
}

func TestDecodeErrorReachesCaller(t *testing.T) {
	errUndecodable := errors.New("too many dead units")
	wl := &stubWorkload{
		p: 2,
		step: func(p *machine.Proc, rk *Rank) (Slots, error) {
			return Slots{0: []bigint.Int{bigint.One()}}, nil
		},
		decode: func(dead []int, slots map[int][]bigint.Int) (map[int][]bigint.Int, error) {
			return nil, fmt.Errorf("stub decode: %w", errUndecodable)
		},
	}
	if _, err := runFlat(t, wl, 2, nil); !errors.Is(err, errUndecodable) {
		t.Fatalf("err = %v, want one wrapping the Decode error", err)
	}
}

// TestSlotMergeWithZeroShares: Run's additive merge sums the ranks' shares
// of each slot entry exactly when some shares are zero (the sum then
// shares the nonzero share's limbs), and leaves every rank's share as it
// was.
func TestSlotMergeWithZeroShares(t *testing.T) {
	x := bigint.FromInt64(1).Shl(200).Add(bigint.FromInt64(12345))
	y := bigint.FromInt64(-7).Shl(130)
	shares := [][]bigint.Int{
		{x, bigint.Zero(), y, bigint.Zero()},
		{bigint.Zero(), y, x, bigint.Zero()},
		{bigint.Zero(), bigint.Zero(), x.Neg(), bigint.Zero()},
	}
	before := fmt.Sprint(shares)
	wl := &stubWorkload{p: len(shares), step: func(p *machine.Proc, rk *Rank) (Slots, error) {
		return Slots{0: shares[p.ID()]}, nil
	}}
	res, err := runFlat(t, wl, len(shares), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range shares[0] {
		want := new(big.Int)
		for _, s := range shares {
			want.Add(want, s[i].ToBig())
		}
		if got := res.Output[i].ToBig(); got.Cmp(want) != 0 {
			t.Errorf("entry %d = %v, want %v", i, got, want)
		}
	}
	if after := fmt.Sprint(shares); after != before {
		t.Errorf("the merge changed the ranks' shares: %s, was %s", after, before)
	}
}
