// Fixture for the chanproto analyzer at import path "machine/net", governed
// through its "machine" segment like the machine's own network. The network
// moves messages over raw Go channels, so the rule that matters here is the
// host-send discipline: every send must be visibly non-blocking (select
// clause, buffered channel, or worker goroutine).
package net

type message struct{ words int64 }

// deliverBare is the bug the rule exists for: a bare send on a channel of
// unknown buffering can deadlock the whole machine if the peer is gone.
func deliverBare(ch chan message, m message) {
	ch <- m // want "unbuffered channel send"
}

// deliverSelect is how the real network sends: a select clause can carry a
// default (sim clock: protocol error on full buffer) or a ctx.Done case
// (wall clock: backpressure with cancellation), and never wedges the host.
func deliverSelect(ch chan message, m message, done chan struct{}) bool {
	select {
	case ch <- m:
		return true
	case <-done:
		return false
	}
}

// deliverBuffered: a visibly buffered channel cannot block the first send.
func deliverBuffered(m message) chan message {
	ch := make(chan message, 128)
	ch <- m
	return ch
}
