package machine

import "time"

// clock is one rank's time: everything that differs between the sim and
// wall backends. Time is in model units; Proc charges costs into it, and
// the network consults it for what receives, barriers and full FIFOs do.
type clock interface {
	// now reads the rank's time.
	now() float64
	// charge advances the rank's time by a cost charge.
	charge(units float64)
	// sync moves the rank's time to at least t: a message's stamp, a
	// missed receive deadline or a barrier's latest arrival.
	sync(t float64)
	// patience is how long a receive with the given deadline waits, and
	// whether running out is a missed deadline (true) or a protocol
	// timeout (false).
	patience(deadline float64, timeout time.Duration) (time.Duration, bool)
	// backpressure reports whether a send into a full FIFO waits for the
	// receiver (true) or is a protocol error (false).
	backpressure() bool
}

// simClock is the deterministic virtual clock. It advances only by
// charges and syncs, so the maximum clock at the end of a run is the
// critical-path runtime under the cost model, independent of real
// scheduling. A deadline receive waits for the message however long it
// takes in real time (RecvTimeout guards against a dead protocol), then
// judges its virtual stamp.
type simClock struct {
	t float64
}

func (c *simClock) now() float64 { return c.t }

func (c *simClock) charge(units float64) { c.t += units }

func (c *simClock) sync(t float64) {
	if t > c.t {
		c.t = t
	}
}

func (c *simClock) patience(_ float64, timeout time.Duration) (time.Duration, bool) {
	return timeout, false
}

func (c *simClock) backpressure() bool { return false }

// wallClock is real time since the machine was made. Free-running
// (dilation zero), charges are not slept (real computation already costs
// real time) and one model unit is one second, so deadlines like
// Clock()+slack read as seconds of slack. With dilation set, every charge
// is slept off at that real duration per unit and now converts back into
// model units, so virtual-machine experiments (straggler slack in cost
// units, speed-factor delays) transfer to the wall clock with their ratios
// intact. A sleep that overruns (timers can fire a millisecond late) is
// made up on the rank's next charge, so the lateness does not accumulate.
// Receives and barriers never move it, and a deadline receive waits until
// the real deadline.
type wallClock struct {
	p        *Proc // whose timer and run context the dilated sleeps use
	start    time.Time
	dilation time.Duration
	// over is how far the dilated sleeps have run past their charges; the
	// next charge sleeps that much less.
	over time.Duration
}

// unit returns the real duration of one model unit.
func (c *wallClock) unit() time.Duration {
	if c.dilation > 0 {
		return c.dilation
	}
	return time.Second
}

func (c *wallClock) now() float64 {
	return float64(time.Since(c.start)) / float64(c.unit())
}

func (c *wallClock) charge(units float64) {
	if c.dilation <= 0 || units <= 0 {
		return
	}
	d := time.Duration(units*float64(c.dilation)) - c.over
	if d <= 0 {
		c.over = -d
		return
	}
	start := time.Now()
	select {
	case <-c.p.timer.arm(d):
	case <-c.p.ctx.Done():
	}
	c.p.timer.stop()
	c.over = max(time.Since(start)-d, 0)
}

func (c *wallClock) sync(float64) {}

func (c *wallClock) patience(deadline float64, _ time.Duration) (time.Duration, bool) {
	return time.Until(c.start.Add(time.Duration(deadline * float64(c.unit())))), true
}

func (c *wallClock) backpressure() bool { return true }
