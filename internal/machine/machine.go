// Package machine realizes the paper's parallel machine model
// (Section 2.1): P identical processors, each with a local memory of M
// words, connected by a peer-to-peer network. The three cost measures —
// F (arithmetic operations), BW (words communicated), and L (messages) —
// are counted along the critical path, and the total runtime is modeled as
// C = α·L + β·BW + γ·F.
//
// The machine is one layer. Algorithms program against Proc, which owns a
// rank's local store, charges F/BW/L and α/β/γ time itself, and applies the
// fault plan at its barriers; every Proc talks over one network of lazily
// made, recycled per-pair FIFOs. All that differs between the two backends
// is the clock each Proc reads and charges:
//
//   - BackendSim (the default): a deterministic virtual clock. It advances
//     with local work and message transfers, and receives and barriers move
//     it to the message's stamp or the barrier's latest arrival, so the
//     maximum clock at the end of a run is the critical-path runtime under
//     the α/β/γ model, independent of real scheduling.
//   - BackendWall: real time, for wall-clock benchmarking and real-time
//     straggler experiments. Deadlines are real deadlines, and with
//     WallTimeDilation set, charges are slept off so that model-unit
//     ratios carry over to the wall clock.
//
// Because the counters live in Proc, F/BW/L counts are identical on both
// backends; only Time changes meaning (virtual cost units versus real
// seconds or dilated units).
//
// Hard faults (Section 2.1) are injected at named barriers: a processor
// scheduled to fail "at phase X" loses its entire local store when it
// reaches the barrier named X, modeling fail-stop death with immediate
// replacement — the same rank continues with empty memory, exactly the
// paper's "the affected processor ceases operation, loses its data, and is
// subsequently replaced by an alternative processor". All processors
// observe the same list of failures at each barrier (a perfect failure
// detector, standard in this model).
package machine

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/bigint"
)

// Backend selects the clock under the machine API.
type Backend string

const (
	// BackendSim is the deterministic virtual-clock simulator (the default).
	BackendSim Backend = "sim"
	// BackendWall is the in-process wall-clock backend: real deadlines,
	// context cancellation, Time in seconds (or dilated model units).
	BackendWall Backend = "wall"
)

// Config describes the machine.
type Config struct {
	P int // number of processors (excluding none; code processors included by caller)

	// Backend selects the clock; empty means BackendSim.
	// Algorithm code never branches on this — the choice is invisible
	// above the Proc API.
	Backend Backend

	// MemoryWords is the per-processor memory capacity M in 64-bit words;
	// 0 means unlimited. Exceeding it makes Store return an error, so
	// algorithms can verify the Lemma 3.1 scheduling actually fits.
	MemoryWords int64

	// Runtime model coefficients: latency per message, time per word, time
	// per arithmetic word-operation. Zero values default to α=1000, β=10,
	// γ=1 — a conventional HPC-ish ratio.
	Alpha, Beta, Gamma float64

	// RecvTimeout bounds how long a receive or a barrier waits before
	// declaring the protocol dead; zero means 30 seconds. On the sim backend
	// it is a real-time guard on a virtual-time machine: a correct protocol
	// never hits it.
	RecvTimeout time.Duration

	// SpeedFactors optionally slows processors down: processor i's
	// arithmetic takes γ·SpeedFactors[i] per word-operation (1.0 when nil
	// or zero). This models *delay faults* — the paper's third fault
	// category. On the sim backend the delay exists in virtual time only;
	// on the wall backend with WallTimeDilation set, slow ranks really do
	// finish later.
	SpeedFactors []float64

	// WallTimeDilation applies to BackendWall only: the real duration of
	// one model unit. When set, cost charges are slept off at that rate
	// and clocks read in model units, so virtual-machine experiments
	// (straggler slack, speed factors) transfer to the wall clock with
	// their ratios intact. Zero means free-running with clocks in seconds.
	WallTimeDilation time.Duration
}

func (c Config) withDefaults() Config {
	if c.Backend == "" {
		c.Backend = BackendSim
	}
	if c.Alpha == 0 {
		c.Alpha = 1000
	}
	if c.Beta == 0 {
		c.Beta = 10
	}
	if c.Gamma == 0 {
		c.Gamma = 1
	}
	if c.RecvTimeout == 0 {
		c.RecvTimeout = 30 * time.Second
	}
	return c
}

// Fault schedules a hard fault: processor Proc dies when it reaches the
// barrier named Phase for the Hit-th time (0 = first).
type Fault struct {
	Proc  int
	Phase string
	Hit   int
}

// FaultEvent reports an injected fail-stop fault to the surviving
// processors: rank Proc died (and was replaced in place) at the barrier
// named Phase.
type FaultEvent struct {
	Proc  int
	Phase string
}

// Ints is what a message or a local-store entry carries: a vector of big
// integers, as every message the paper's algorithms send is.
type Ints []bigint.Int

// Words is v's size in the model's word units, what the BW accounting and
// the memory capacity charge: the total limb count, at least one word per
// integer, so zeros still occupy a word on the wire.
func (v Ints) Words() int64 {
	var w int64
	for _, x := range v {
		w += x.Words()
	}
	return w
}

// Stats are one processor's accumulated costs.
type Stats struct {
	Flops     int64   // F: word-level arithmetic operations
	SentWords int64   // words sent
	RecvWords int64   // words received
	Messages  int64   // L: messages sent
	Barriers  int64   // barrier crossings
	PeakWords int64   // peak local-store occupancy
	Clock     float64 // completion time (virtual units on sim, model units/seconds on wall)
	Faults    int     // times this rank was killed and replaced
}

// MarkRecord is a named snapshot of a processor's counters, for per-phase
// cost attribution (the anatomy of the paper's evaluation/multiplication/
// interpolation stages).
type MarkRecord struct {
	Label     string
	Clock     float64
	Flops     int64
	SentWords int64
	Messages  int64
}

// Report aggregates a finished run. Following the paper, F, BW and L are
// critical-path figures: the maximum over processors (the processors
// operate bulk-synchronously between barriers). Totals are also kept for
// the overhead comparisons of Section 5.
type Report struct {
	PerProc []Stats
	F       int64   // max flops over processors
	BW      int64   // max words sent over processors
	BWIn    int64   // max words received over processors (inbound critical path)
	L       int64   // max messages over processors
	Time    float64 // max clock = modeled runtime C (sim) or elapsed wall time (wall)
	TotalF  int64
	TotalBW int64
	TotalL  int64
	Faults  []FaultEvent
	// Marks holds each processor's Mark snapshots, in call order.
	Marks [][]MarkRecord
}

// Machine is a P-processor machine. Create with New, run one program with
// Run; a Machine is single-use.
type Machine struct {
	cfg   Config
	logP  int64 // messages a barrier charges: ⌈log₂P⌉, at least 1
	net   *network
	procs []*Proc
}

// New creates a machine with the given configuration and fault plan, on the
// backend cfg.Backend selects.
func New(cfg Config, plan []Fault) (*Machine, error) {
	cfg = cfg.withDefaults()
	if cfg.P < 1 {
		return nil, fmt.Errorf("machine: need P >= 1, got %d", cfg.P)
	}
	if cfg.Backend != BackendSim && cfg.Backend != BackendWall {
		return nil, fmt.Errorf("machine: unknown backend %q", cfg.Backend)
	}
	for _, f := range plan {
		if f.Proc < 0 || f.Proc >= cfg.P {
			return nil, fmt.Errorf("machine: fault for nonexistent processor %d", f.Proc)
		}
	}
	m := &Machine{
		cfg:   cfg,
		logP:  max(int64(math.Ceil(math.Log2(float64(cfg.P)))), 1),
		net:   newNetwork(cfg.P, &spare),
		procs: make([]*Proc, cfg.P),
	}
	start := time.Now() // the zero of the wall clock
	for i := range m.procs {
		p := &Proc{id: i, m: m, ctx: context.Background(), speed: 1, store: map[string]storedValue{}}
		if i < len(cfg.SpeedFactors) && cfg.SpeedFactors[i] > 0 {
			p.speed = cfg.SpeedFactors[i]
		}
		if cfg.Backend == BackendWall {
			p.clk = &wallClock{p: p, start: start, dilation: cfg.WallTimeDilation}
		} else {
			p.clk = &simClock{}
		}
		m.procs[i] = p
	}
	for _, f := range plan {
		p := m.procs[f.Proc]
		p.doom = append(p.doom, f)
	}
	return m, nil
}

// Run executes program on all P processors and returns the cost report.
// The first rank to fail aborts the run: a returned error, or a panic,
// which becomes an error naming the rank so that it does not take the
// caller down. The run's context is then canceled, so peers blocked on the
// failed rank unwind at once, and Run returns that first failure ahead of
// the cancellation errors it causes. A run whose ranks all returned nil
// still fails if a message was sent and never received: the error names
// its sender, receiver and tag. A message that a deadline receive gave up
// waiting for (on the wall clock, a straggler's late report) is exempt, one
// per receive that gave up. Once Run has returned, a Proc kept past the run
// gets an error from Send, Recv, RecvDeadline and Barrier.
func (m *Machine) Run(program func(*Proc) error) (*Report, error) {
	return m.RunContext(context.Background(), program)
}

// RunContext is Run under a context: canceling ctx aborts blocked sends,
// receives, barriers and dilated sleeps, so the run unwinds with an error
// instead of waiting out the protocol timeout.
func (m *Machine) RunContext(ctx context.Context, program func(*Proc) error) (*Report, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		mu    sync.Mutex
		first error
		wg    sync.WaitGroup
	)
	fail := func(err error) {
		mu.Lock()
		if first == nil {
			first = err
		}
		mu.Unlock()
		cancel()
	}
	for _, p := range m.procs {
		p.ctx = ctx
		wg.Add(1)
		//ftlint:allow poolspawn the machine runtime IS the pool: one goroutine per simulated processor, bounded by cfg.P, not algorithm fan-out
		go func(p *Proc) {
			growRankStack()
			defer wg.Done()
			defer func() {
				p.st.Clock = p.clk.now()
				m.net.retire()
			}()
			defer func() {
				if r := recover(); r != nil {
					fail(fmt.Errorf("machine: rank %d panicked: %v\n%s", p.id, r, debug.Stack()))
				}
			}()
			if err := program(p); err != nil {
				fail(err)
			}
		}(p)
	}
	wg.Wait()
	if err := m.net.close(); first == nil {
		first = err
	}

	rep := &Report{
		PerProc: make([]Stats, m.cfg.P),
		Faults:  append([]FaultEvent{}, m.net.faults...),
		Marks:   make([][]MarkRecord, m.cfg.P),
	}
	for i, p := range m.procs {
		s := p.st
		rep.PerProc[i] = s
		rep.Marks[i] = p.marks
		rep.TotalF += s.Flops
		rep.TotalBW += s.SentWords
		rep.TotalL += s.Messages
		rep.F = max(rep.F, s.Flops)
		rep.BW = max(rep.BW, s.SentWords)
		rep.BWIn = max(rep.BWIn, s.RecvWords)
		rep.L = max(rep.L, s.Messages)
		rep.Time = max(rep.Time, s.Clock)
	}
	return rep, first
}

// rankStackFrame is the frame growRankStack puts at the bottom of every
// rank goroutine. A goroutine starts on a small stack (the runtime's start
// size follows the average of all goroutines, which the many shallow ones
// keep small) and doubles it on overflow, copying every frame each time.
// The deepest frames a rank reaches are the Toom leaf's: its count walk and
// the ladder's Karatsuba recursion, under the engine and the protocol
// layers. 12 KiB makes the runtime grow the stack once, to 16 KiB, while it
// holds a single frame, and 16 KiB holds that depth on both Toom workloads.
const rankStackFrame = 12 << 10

// growRankStack grows the calling goroutine's stack to fit rankStackFrame
// in one step; call it first thing on a new goroutine.
//
//go:noinline
func growRankStack() {
	var frame [rankStackFrame]byte
	// KeepAlive takes the frame's address without letting it escape, so the
	// compiler must reserve it.
	runtime.KeepAlive(&frame)
}

// StoreOf reads processor id's local store. It is intended for harness use
// after Run has returned (e.g. assembling a distributed result without
// charging communication); calling it during a run races with the programs.
func (m *Machine) StoreOf(id int, key string) (Ints, bool) {
	if id < 0 || id >= m.cfg.P {
		return nil, false
	}
	sv, ok := m.procs[id].store[key]
	if !ok {
		return nil, false
	}
	return sv.v, true
}

// storedValue tracks a stored vector and its size for memory accounting.
type storedValue struct {
	v     Ints
	words int64
}

// Proc is one processor of the machine; its methods must only be called
// from its own program goroutine. It owns the local store (the part of the
// model faults erase), charges its own costs, applies its part of the fault
// plan, and communicates over the machine's network.
type Proc struct {
	id    int
	m     *Machine
	clk   clock
	ctx   context.Context // the run's; canceling it aborts every wait
	timer waitTimer       // re-armed by every wait of this rank

	st    Stats
	speed float64 // delay-fault factor on computation time
	// doom is this rank's part of the fault plan. Each crossing of a
	// fault's phase counts its Hit down; the rank dies at the crossing
	// where a Hit is 0.
	doom []Fault

	memWords int64
	store    map[string]storedValue
	marks    []MarkRecord
}

// Mark records a named snapshot of the processor's counters; the run report
// exposes all snapshots for per-phase cost attribution.
func (p *Proc) Mark(label string) {
	p.marks = append(p.marks, MarkRecord{
		Label:     label,
		Clock:     p.clk.now(),
		Flops:     p.st.Flops,
		SentWords: p.st.SentWords,
		Messages:  p.st.Messages,
	})
}

// ID returns the processor's rank in [0, P).
func (p *Proc) ID() int { return p.id }

// P returns the machine's processor count.
func (p *Proc) P() int { return p.m.cfg.P }

// Clock returns the processor's current time in model units.
func (p *Proc) Clock() float64 { return p.clk.now() }

// FaultCount returns how many times this rank has been killed and replaced.
func (p *Proc) FaultCount() int { return p.st.Faults }

// Work charges n word-level arithmetic operations (F) and advances the
// clock by γ·n, stretched by the rank's speed factor.
func (p *Proc) Work(n int64) {
	if n < 0 {
		panic("machine: negative work")
	}
	p.st.Flops += n
	p.clk.charge(p.m.cfg.Gamma * float64(n) * p.speed)
}

// Send transmits payload to processor `to` with a protocol tag. It charges
// one message (L) and the payload's word count (BW) to the sender and
// advances the sender's clock by α + β·words before stamping the message,
// so the receiver's clock is advanced on Recv to at least the arrival time.
func (p *Proc) Send(to int, tag string, payload Ints) error {
	if to < 0 || to >= p.m.cfg.P {
		return fmt.Errorf("machine: proc %d sending to nonexistent proc %d", p.id, to)
	}
	w := payload.Words()
	p.st.Messages++
	p.st.SentWords += w
	p.clk.charge(p.m.cfg.Alpha + p.m.cfg.Beta*float64(w))
	return p.m.net.send(p, to, message{tag: tag, payload: payload, stamp: p.clk.now()})
}

// Recv receives the next message from processor `from`, asserting the
// protocol tag. It blocks until the message arrives and advances the clock
// to at least the message's arrival time.
func (p *Proc) Recv(from int, tag string) (Ints, error) {
	if from < 0 || from >= p.m.cfg.P {
		return nil, fmt.Errorf("machine: proc %d receiving from nonexistent proc %d", p.id, from)
	}
	msg, _, err := p.m.net.recv(p, from, tag, p.m.cfg.RecvTimeout, false)
	if err != nil {
		return nil, err
	}
	p.clk.sync(msg.stamp)
	p.st.RecvWords += msg.payload.Words()
	return msg.payload, nil
}

// RecvDeadline receives the next message from `from` but accepts it only if
// it was sent at or before the deadline (in the clock's model units); a
// late message is dropped and the clock advances to the deadline instead.
// This is the timeout primitive behind straggler (delay-fault) mitigation:
// proceed at the deadline with whoever reported in time. On the wall clock
// the receive waits until the real deadline; if nothing came, ok is false
// and a message sent later stays queued until the run ends.
func (p *Proc) RecvDeadline(from int, tag string, deadline float64) (Ints, bool, error) {
	if from < 0 || from >= p.m.cfg.P {
		return nil, false, fmt.Errorf("machine: proc %d receiving from nonexistent proc %d", p.id, from)
	}
	wait, missOK := p.clk.patience(deadline, p.m.cfg.RecvTimeout)
	msg, ok, err := p.m.net.recv(p, from, tag, wait, missOK)
	if err != nil {
		return nil, false, err
	}
	if !ok || msg.stamp > deadline {
		p.clk.sync(deadline)
		return nil, false, nil
	}
	p.clk.sync(msg.stamp)
	p.st.RecvWords += msg.payload.Words()
	return msg.payload, true, nil
}

// Store saves a vector in local memory under key, enforcing the memory
// capacity M when configured. Overwriting a key releases the old value.
func (p *Proc) Store(key string, v Ints) error {
	w := v.Words()
	old := p.store[key].words
	next := p.memWords - old + w
	if p.m.cfg.MemoryWords > 0 && next > p.m.cfg.MemoryWords {
		return fmt.Errorf("machine: proc %d out of memory: need %d words, capacity %d", p.id, next, p.m.cfg.MemoryWords)
	}
	p.store[key] = storedValue{v: v, words: w}
	p.memWords = next
	p.st.PeakWords = max(p.st.PeakWords, p.memWords)
	return nil
}

// Load retrieves a stored vector; ok is false when the key is absent, for
// example because a fault wiped the store.
func (p *Proc) Load(key string) (Ints, bool) {
	sv, ok := p.store[key]
	if !ok {
		return nil, false
	}
	return sv.v, true
}

// Free releases a stored vector.
func (p *Proc) Free(key string) {
	if sv, ok := p.store[key]; ok {
		p.memWords -= sv.words
		delete(p.store, key)
	}
}

// MemoryWords returns the current local-store occupancy.
func (p *Proc) MemoryWords() int64 { return p.memWords }

// Barrier synchronizes all still-active processors at the named phase
// boundary and injects any faults scheduled for it. Every participant
// returns the same list of fault events (the perfect failure detector);
// a processor that appears in the list is the *replacement* of the failed
// rank: its store has been wiped and it continues with empty memory.
//
// Every rank crosses a barrier at the same phase: a rank that arrives at a
// phase other than the one the barrier's first arrival crossed gets an
// error naming both, which aborts the run like any rank error, since a
// fault planned at one of the phases would miss the ranks at the other.
//
// The barrier charges ⌈log₂P⌉ messages of one word (a tree barrier) and
// synchronizes clocks to the barrier's completion time. Besides a phase
// mismatch, it fails when the run is canceled, when RecvTimeout passes
// first, or when Run has already returned.
func (p *Proc) Barrier(phase string) ([]FaultEvent, error) {
	p.st.Barriers++
	p.st.Messages += p.m.logP
	p.st.SentWords += p.m.logP
	p.clk.charge(float64(p.m.logP) * (p.m.cfg.Alpha + p.m.cfg.Beta))
	died := false
	for i := range p.doom {
		if p.doom[i].Phase == phase {
			died = died || p.doom[i].Hit == 0
			p.doom[i].Hit--
		}
	}
	if died {
		// Fail-stop: all local data is lost; the replacement starts empty
		// at the same rank.
		clear(p.store)
		p.memWords = 0
		p.st.Faults++
	}
	return p.m.net.barrier(p, phase, died)
}
