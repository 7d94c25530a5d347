package collective

import (
	"fmt"
	"testing"

	"repro/internal/bigint"
	"repro/internal/machine"
)

func ints(vals ...int64) machine.Ints {
	out := make(machine.Ints, len(vals))
	for i, v := range vals {
		out[i] = bigint.FromInt64(v)
	}
	return out
}

func run(t *testing.T, p int, program func(*machine.Proc) error) *machine.Report {
	t.Helper()
	m, err := machine.New(machine.Config{P: p}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := m.Run(program)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestBroadcastAllSizesAndRoots(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8, 9} {
		for root := 0; root < n; root += 2 {
			n, root := n, root
			t.Run(fmt.Sprintf("n=%d root=%d", n, root), func(t *testing.T) {
				g := make(Group, n)
				for i := range g {
					g[i] = i
				}
				run(t, n, func(p *machine.Proc) error {
					var v machine.Ints
					if g.Index(p.ID()) == root {
						v = ints(7, -3)
					}
					got, err := Broadcast(p, g, root, "bc", v)
					if err != nil {
						return err
					}
					if len(got) != 2 || !got[0].Equal(bigint.FromInt64(7)) || !got[1].Equal(bigint.FromInt64(-3)) {
						return fmt.Errorf("proc %d got %v", p.ID(), got)
					}
					return nil
				})
			})
		}
	}
}

func TestBroadcastLatencyLogarithmic(t *testing.T) {
	// With α dominating, broadcast time should grow like log n, not n.
	depth := func(n int) float64 {
		g := make(Group, n)
		for i := range g {
			g[i] = i
		}
		m, _ := machine.New(machine.Config{P: n, Alpha: 1000, Beta: 0.001, Gamma: 0.001}, nil)
		rep, err := m.Run(func(p *machine.Proc) error {
			var v machine.Ints
			if p.ID() == 0 {
				v = ints(1)
			}
			_, err := Broadcast(p, g, 0, "bc", v)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep.Time
	}
	t16, t8 := depth(16), depth(8)
	// log2(16)/log2(8) = 4/3; star would give 15/7 ≈ 2.1.
	if ratio := t16 / t8; ratio > 1.8 {
		t.Errorf("broadcast latency ratio 16/8 procs = %.2f; not logarithmic", ratio)
	}
}

func TestReduceSum(t *testing.T) {
	g := Group{0, 1, 2, 3, 4}
	run(t, 5, func(p *machine.Proc) error {
		mine := ints(int64(p.ID()), 1)
		got, err := Reduce(p, g, 2, "rd", mine)
		if err != nil {
			return err
		}
		if g.Index(p.ID()) != 2 {
			if got != nil {
				return fmt.Errorf("non-root got %v", got)
			}
			return nil
		}
		if v, _ := got[0].Int64(); v != 0+1+2+3+4 {
			return fmt.Errorf("sum = %d", v)
		}
		if v, _ := got[1].Int64(); v != 5 {
			return fmt.Errorf("count = %d", v)
		}
		return nil
	})
}

func TestReduceChargesWork(t *testing.T) {
	g := Group{0, 1}
	rep := run(t, 2, func(p *machine.Proc) error {
		_, err := Reduce(p, g, 0, "rd", ints(int64(p.ID())))
		return err
	})
	if rep.PerProc[0].Flops == 0 {
		t.Error("root did no combining work")
	}
}

func TestExchange(t *testing.T) {
	g := Group{0, 1, 2}
	run(t, 3, func(p *machine.Proc) error {
		out := make([]machine.Ints, 3)
		for i := range out {
			out[i] = ints(int64(p.ID()*100 + i)) // tagged: sender*100 + dest
		}
		in, err := Exchange(p, g, "xc", out)
		if err != nil {
			return err
		}
		for src := 0; src < 3; src++ {
			want := int64(src*100 + p.ID())
			if v, _ := in[src][0].Int64(); v != want {
				return fmt.Errorf("proc %d from %d: %d, want %d", p.ID(), src, v, want)
			}
		}
		return nil
	})
}

func TestWeightedReduce(t *testing.T) {
	// Code creation: Σ η^i · data_i with η=2: 1·d0 + 2·d1 + 4·d2.
	g := Group{0, 1, 2}
	run(t, 3, func(p *machine.Proc) error {
		weight := int64(1)
		for i := 0; i < g.Index(p.ID()); i++ {
			weight *= 2
		}
		got, err := WeightedReduce(p, g, 0, "wr", ints(10), weight)
		if err != nil {
			return err
		}
		if p.ID() == 0 {
			if v, _ := got[0].Int64(); v != 10*1+10*2+10*4 {
				return fmt.Errorf("weighted sum = %d", v)
			}
		}
		return nil
	})
}

func TestGroupErrors(t *testing.T) {
	g := Group{0, 1}
	run(t, 3, func(p *machine.Proc) error {
		if p.ID() != 2 {
			_, err := Broadcast(p, g, 0, "x", ints(1))
			return err
		}
		if _, err := Broadcast(p, g, 0, "x", nil); err == nil {
			return fmt.Errorf("non-member broadcast should fail")
		}
		if _, err := Reduce(p, g, 0, "y", nil); err == nil {
			return fmt.Errorf("non-member reduce should fail")
		}
		if _, err := Exchange(p, g, "z", make([]machine.Ints, 2)); err == nil {
			return fmt.Errorf("non-member exchange should fail")
		}
		return nil
	})
}

func TestBadRootIndex(t *testing.T) {
	g := Group{0}
	run(t, 1, func(p *machine.Proc) error {
		if _, err := Broadcast(p, g, 5, "x", ints(1)); err == nil {
			return fmt.Errorf("bad root should fail")
		}
		if _, err := Reduce(p, g, -1, "y", ints(1)); err == nil {
			return fmt.Errorf("bad root should fail")
		}
		return nil
	})
}

func TestExchangeWrongArity(t *testing.T) {
	g := Group{0, 1}
	run(t, 2, func(p *machine.Proc) error {
		if _, err := Exchange(p, g, "x", make([]machine.Ints, 3)); err == nil {
			return fmt.Errorf("wrong outgoing arity should fail")
		}
		// Clean up the protocol so both procs return: perform a matching
		// well-formed exchange.
		out := []machine.Ints{ints(0), ints(0)}
		_, err := Exchange(p, g, "ok", out)
		return err
	})
}
