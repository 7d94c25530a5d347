// Fixture for chanproto's constant-folded tag pairing, text-vs-value
// divergence, and branch-divergent barrier phases. The stand-in for Proc is
// matched by name, like the real machine package.
package machine

type Ints []float64

type Proc struct{}

func (p *Proc) Send(to int, tag string, payload Ints) error { return nil }
func (p *Proc) Recv(from int, tag string) (Ints, error)     { return nil, nil }
func (p *Proc) Barrier(phase string) ([]int, error)         { return nil, nil }

const (
	tagUp   = "coeff/up"
	tagGone = "coeff/retired" // no send produces this value
)

// paired: send and recv fold to the same value, no finding on either.
func paired(p *Proc) {
	_ = p.Send(1, tagUp, nil)
	_, _ = p.Recv(0, tagUp)
}

// orphan: the folded tag matches no send in the package.
func orphan(p *Proc) {
	_, _ = p.Recv(0, tagGone) // want "waits for tag .* but no Send in package"
}

// sendShare and recvShare write the tag identically — the constant is even
// named the same — but the two scopes bind different values, so textual
// pairing lies.
func sendShare(p *Proc) {
	const tag = "phase/1"
	_ = p.Send(1, tag, nil) // want "no matching Recv"
}

func recvShare(p *Proc) {
	const tag = "phase/2"
	_, _ = p.Recv(0, tag) // want "folds to .* text pairing matches, the values never will"
}

// balancedBarriers: both sides synchronize on the same phase — no finding.
func balancedBarriers(p *Proc, fast bool) error {
	if fast {
		if _, err := p.Barrier("phase/mul"); err != nil {
			return err
		}
	} else {
		if _, err := p.Barrier("phase/mul"); err != nil {
			return err
		}
	}
	return nil
}

// divergentBarriers: the two sides wait on different phases, so processes
// taking different branches deadlock.
func divergentBarriers(p *Proc, fast bool) error {
	if fast { // want "different barrier phases"
		if _, err := p.Barrier("phase/mul"); err != nil {
			return err
		}
	} else {
		if _, err := p.Barrier("phase/eval"); err != nil {
			return err
		}
	}
	return nil
}

// symbolicBarriers: a data-dependent phase makes no claim.
func symbolicBarriers(p *Proc, phase string, fast bool) error {
	if fast {
		if _, err := p.Barrier(phase); err != nil {
			return err
		}
	} else {
		if _, err := p.Barrier("phase/interp"); err != nil {
			return err
		}
	}
	return nil
}
