package transport

import "time"

// WaitTimer is one endpoint's reusable timeout: every blocking wait of the
// endpoint (a receive, a deadline receive, a barrier, a dilated sleep)
// re-arms the same timer instead of allocating a new one. Only the
// endpoint's own goroutine may use it. The zero value is ready to use.
type WaitTimer struct {
	t *time.Timer
}

// Arm starts the timer to fire after d and returns its channel. Every Arm
// must be followed by Stop once the wait is over, whichever case won.
func (w *WaitTimer) Arm(d time.Duration) <-chan time.Time {
	if w.t == nil {
		w.t = time.NewTimer(d)
	} else {
		w.t.Reset(d)
	}
	return w.t.C
}

// Stop disarms the timer and drains a tick that fired but was not
// received, so the next Arm never reads a stale expiry as its own.
func (w *WaitTimer) Stop() {
	if w.t != nil && !w.t.Stop() {
		select {
		case <-w.t.C:
		default:
		}
	}
}
