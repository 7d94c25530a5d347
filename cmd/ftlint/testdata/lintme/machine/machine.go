// Seeds one chanproto orphan-receive finding: every send tag folds, and the
// second receive waits for a value no send can produce. The paired round
// keeps the send-side pairing check quiet.
package machine

type Payload []float64

type Proc struct{}

func (p *Proc) Send(to int, tag string, payload Payload) error { return nil }
func (p *Proc) Recv(from int, tag string) (Payload, error)     { return nil, nil }

const tagUp = "up/0"

func roundUp(p *Proc) {
	_ = p.Send(1, tagUp, nil)
	_, _ = p.Recv(0, tagUp)
}

func waitRetired(p *Proc) {
	_, _ = p.Recv(0, "retired/0") // chanproto: no send can produce this tag
}
