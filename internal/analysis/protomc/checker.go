package protomc

// checker.go is the explicit-state model checker. Each model processor runs
// the interpreted SPMD body on its own goroutine; transport verbs park the
// goroutine and hand an op to the scheduler. The scheduler executes a
// run-to-block schedule: message queues are keyed (src, dst, tag), so
// execution is a Kahn network and one deterministic schedule per
// nondeterminism vector is sound for deadlock and matching properties. The
// remaining nondeterminism — receive-deadline timing and (for
// cross-validation) scheduling order — is explored exhaustively by DFS over
// explicit choice vectors, and fail-stop faults are injected at barrier
// crossings exactly as machine.Proc.Barrier does: the victim's store is
// wiped and its replacement continues at the same rank.

import (
	"fmt"
	"go/token"
	"sort"
	"sync"

	"repro/internal/analysis/framework"
)

// Finding is one protocol property violation with its counterexample.
type Finding struct {
	Pos   token.Pos // anchor: the offending comm site, or the world's entry
	World string    // world description including the fault plan
	Msg   string
	Trace []string // the interleaving that exhibits the violation
}

// faultSpec schedules one fail-stop fault: proc dies the hit-th time it
// crosses the named barrier phase (mirroring machine.Fault).
type faultSpec struct {
	Proc  int
	Phase string
	Hit   int
}

func (f faultSpec) String() string {
	return fmt.Sprintf("p%d fails at barrier %q crossing %d", f.Proc, f.Phase, f.Hit)
}

// world is one concrete model instantiation.
type world struct {
	name string // human description, e.g. `collective.Broadcast n=3 root=1`
	n    int    // processor count
	pos  token.Pos
	plan []faultSpec
	// run executes the SPMD body for one processor and returns its error
	// result (framework.Nil for clean exit).
	run func(ev *framework.Eval, mp *modelProc) Value
	// faultTolerant worlds must complete cleanly under their fault plan:
	// an error exit is itself a finding. Worlds whose protocol has a
	// legitimate abort-fast path (straggler decisions) leave this false.
	faultTolerant bool
	// exhaustive additionally explores scheduling order (cross-validation
	// of the run-to-block confluence argument; exponential, fixtures only).
	exhaustive bool
	fuel       int64 // interpreter step budget per run
	maxRuns    int   // cap on explored choice vectors (0 = default)
}

// killSignal tears down a parked proc goroutine at end of run.
type killSignal struct{}

type procState int

const (
	stReady procState = iota
	stBlockedRecv
	stBlockedDeadline
	stAtBarrier
	stExited  // clean exit (nil error)
	stErrored // exited with a non-nil error value
	stFailed  // interpretation failed (framework.EvalError)
)

// modelProc is one model processor. The interpreter (running on the proc's
// own goroutine) calls the op* verbs; everything else belongs to the
// scheduler and is only touched while the goroutine is parked.
type modelProc struct {
	id         int
	ck         *checker
	store      map[string]Value
	faultCount int
	epoch      int // bumped on each fail-stop replacement
	hits       map[string]int

	resC   chan opResult
	state  procState
	resume opResult // delivered on next step
	// park context (for quiescence diagnostics):
	waitSrc   int
	waitTag   string
	waitPos   token.Pos
	barPhase  string
	barPos    token.Pos
	exitErr   string
	failedMsg string
	failedPos token.Pos
}

type opKind int

const (
	kSend opKind = iota
	kRecv
	kRecvDeadline
	kBarrier
	kExit
	kFail
)

type op struct {
	proc    int
	kind    opKind
	peer    int
	tag     string
	payload Value
	pos     token.Pos
	errMsg  string
	isErr   bool // kExit: error result was non-nil
}

type opResult struct {
	kill    bool
	payload Value
	onTime  bool
}

type qkey struct {
	src, dst int
	tag      string
}

type message struct {
	payload  Value
	dstEpoch int
	pos      token.Pos
}

// checker explores one world.
type checker struct {
	sums  *framework.Summaries
	skels *framework.SkeletonSet
	w     *world

	procs     []*modelProc
	queues    map[qkey][]message
	abandoned map[qkey]bool // late-resolved deadline queues: orphans exempt
	opC       chan op
	wg        sync.WaitGroup
	fuel      int64 // shared by the procs, which run one at a time

	choices   []int
	arities   []int
	choiceIdx int

	trace     []string
	truncated bool
	findings  []Finding
	seen      map[string]bool
	aborted   bool

	// crossings records (proc, phase, hit) barrier crossings of the first
	// run — the fault-plan enumeration domain for this world.
	crossings []faultSpec
}

const (
	defaultFuel  = 4_000_000
	defaultRuns  = 4096
	maxTraceLen  = 400
	maxWorldRuns = 1 << 16
)

// explore runs the DFS over choice vectors and returns all distinct
// findings plus the barrier-crossing census of the world's first run.
func explore(sums *framework.Summaries, skels *framework.SkeletonSet, w *world) ([]Finding, []faultSpec) {
	ck := &checker{sums: sums, skels: skels, w: w, seen: map[string]bool{}}
	maxRuns := w.maxRuns
	if maxRuns <= 0 {
		maxRuns = defaultRuns
	}
	if maxRuns > maxWorldRuns {
		maxRuns = maxWorldRuns
	}
	var crossings []faultSpec
	choices := []int{}
	for run := 0; ; run++ {
		if run >= maxRuns {
			ck.report(w.pos, fmt.Sprintf("exploration budget exhausted after %d runs (nondeterminism too deep to enumerate)", run), nil)
			break
		}
		arities := ck.runOnce(choices)
		if run == 0 {
			crossings = ck.crossings
		}
		// Advance the choice vector: increment the deepest choice that
		// still has untried alternatives, truncating everything after it.
		i := len(arities) - 1
		for i >= 0 && choices2(choices, i)+1 >= arities[i] {
			i--
		}
		if i < 0 {
			break
		}
		next := make([]int, i+1)
		copy(next, choices)
		next[i] = choices2(choices, i) + 1
		choices = next
	}
	return ck.findings, crossings
}

func choices2(choices []int, i int) int {
	if i < len(choices) {
		return choices[i]
	}
	return 0
}

// runOnce executes one complete schedule for the given choice prefix and
// returns the arity of every choice point consumed.
func (ck *checker) runOnce(choices []int) []int {
	w := ck.w
	ck.procs = make([]*modelProc, w.n)
	ck.queues = map[qkey][]message{}
	ck.abandoned = map[qkey]bool{}
	ck.opC = make(chan op)
	ck.choices = choices
	ck.arities = nil
	ck.choiceIdx = 0
	ck.trace = nil
	ck.truncated = false
	ck.aborted = false
	ck.crossings = nil
	fuel := w.fuel
	if fuel <= 0 {
		fuel = defaultFuel
	}
	ck.fuel = fuel

	for i := 0; i < w.n; i++ {
		mp := &modelProc{
			id:    i,
			ck:    ck,
			store: map[string]Value{},
			hits:  map[string]int{},
			resC:  make(chan opResult),
		}
		ck.procs[i] = mp
		ck.wg.Add(1)
		go ck.procMain(mp)
	}

	for !ck.aborted {
		pid := ck.pickReady()
		if pid >= 0 {
			ck.stepProc(pid)
			continue
		}
		if ck.tryBarrier() {
			continue
		}
		if ck.resolveLateWaiter() {
			continue
		}
		break
	}
	if !ck.aborted {
		ck.terminalChecks()
	}
	ck.teardown()
	return ck.arities
}

// choose consumes one nondeterministic choice of the given arity.
func (ck *checker) choose(n int) int {
	ck.arities = append(ck.arities, n)
	v := 0
	if ck.choiceIdx < len(ck.choices) {
		v = ck.choices[ck.choiceIdx]
	}
	ck.choiceIdx++
	if v >= n {
		v = n - 1
	}
	return v
}

func (ck *checker) pickReady() int {
	var ready []int
	for _, mp := range ck.procs {
		if mp.state == stReady {
			ready = append(ready, mp.id)
		}
	}
	if len(ready) == 0 {
		return -1
	}
	if ck.w.exhaustive && len(ready) > 1 {
		return ready[ck.choose(len(ready))]
	}
	return ready[0]
}

// stepProc resumes a parked processor and consumes its next op.
func (ck *checker) stepProc(pid int) {
	mp := ck.procs[pid]
	res := mp.resume
	mp.resume = opResult{}
	mp.resC <- res
	ck.handleOp(<-ck.opC)
}

func (ck *checker) handleOp(o op) {
	mp := ck.procs[o.proc]
	switch o.kind {
	case kSend:
		ck.handleSend(mp, o)
	case kRecv:
		ck.handleRecv(mp, o)
	case kRecvDeadline:
		ck.handleRecvDeadline(mp, o)
	case kBarrier:
		mp.state = stAtBarrier
		mp.barPhase = o.tag
		mp.barPos = o.pos
		ck.event("p%d at barrier %q", mp.id, o.tag)
	case kExit:
		if o.isErr {
			mp.state = stErrored
			mp.exitErr = o.errMsg
			ck.event("p%d exits with error: %s", mp.id, o.errMsg)
		} else {
			mp.state = stExited
			ck.event("p%d exits cleanly", mp.id)
		}
	case kFail:
		mp.state = stFailed
		mp.failedMsg = o.errMsg
		mp.failedPos = o.pos
		ck.event("p%d: interpretation failed: %s", mp.id, o.errMsg)
		ck.report(o.pos, fmt.Sprintf("p%d: cannot soundly model this execution: %s", mp.id, o.errMsg), ck.snapshotTrace())
		ck.aborted = true
	}
}

func (ck *checker) handleSend(mp *modelProc, o op) {
	if o.peer < 0 || o.peer >= len(ck.procs) {
		ck.event("p%d sends tag %q to out-of-world rank %d", mp.id, o.tag, o.peer)
		ck.report(o.pos, fmt.Sprintf("p%d sends tag %q to rank %d, outside the world [0,%d)", mp.id, o.tag, o.peer, len(ck.procs)), ck.snapshotTrace())
		ck.aborted = true
		return
	}
	// Sends are fire-and-forget, exactly like the machine transport: a send
	// to a rank that has already terminated enqueues normally (late
	// straggler reports legitimately land in abandoned queues). If nothing
	// ever legitimizes the message, the terminal orphan check reports it.
	dst := ck.procs[o.peer]
	k := qkey{src: mp.id, dst: o.peer, tag: o.tag}
	ck.queues[k] = append(ck.queues[k], message{payload: o.payload, dstEpoch: dst.epoch, pos: o.pos})
	ck.event("p%d sends tag %q to p%d", mp.id, o.tag, o.peer)
	mp.state = stReady
	mp.resume = opResult{payload: framework.Nil{}}
	// A parked matching receiver becomes deliverable.
	ck.wakeMatching(k)
}

func (ck *checker) wakeMatching(k qkey) {
	dst := ck.procs[k.dst]
	if (dst.state == stBlockedRecv || dst.state == stBlockedDeadline) &&
		dst.waitSrc == k.src && dst.waitTag == k.tag {
		ck.deliver(dst)
	}
}

// deliver pops the head message for a parked receiver and readies it.
func (ck *checker) deliver(dst *modelProc) {
	k := qkey{src: dst.waitSrc, dst: dst.id, tag: dst.waitTag}
	q := ck.queues[k]
	m := q[0]
	if len(q) == 1 {
		delete(ck.queues, k)
	} else {
		ck.queues[k] = q[1:]
	}
	if m.dstEpoch != dst.epoch {
		ck.event("p%d receives stale tag %q from p%d (sent before p%d's replacement)", dst.id, k.tag, k.src, dst.id)
		ck.report(m.pos, fmt.Sprintf("replacement of failed rank %d consumes tag %q sent to its predecessor by p%d (stale cross-fault delivery)", dst.id, k.tag, k.src), ck.snapshotTrace())
		ck.aborted = true
		return
	}
	onTime := dst.state == stBlockedDeadline
	ck.event("p%d receives tag %q from p%d", dst.id, k.tag, k.src)
	dst.state = stReady
	dst.resume = opResult{payload: m.payload, onTime: onTime}
}

func (ck *checker) handleRecv(mp *modelProc, o op) {
	if o.peer < 0 || o.peer >= len(ck.procs) {
		ck.report(o.pos, fmt.Sprintf("p%d receives tag %q from rank %d, outside the world [0,%d)", mp.id, o.tag, o.peer, len(ck.procs)), ck.snapshotTrace())
		ck.aborted = true
		return
	}
	mp.state = stBlockedRecv
	mp.waitSrc = o.peer
	mp.waitTag = o.tag
	mp.waitPos = o.pos
	k := qkey{src: o.peer, dst: mp.id, tag: o.tag}
	if len(ck.queues[k]) > 0 {
		ck.deliver(mp)
		return
	}
	ck.event("p%d waits for tag %q from p%d", mp.id, o.tag, o.peer)
}

// handleRecvDeadline resolves the timing nondeterminism of a deadline
// receive with an explicit binary choice: on-time (wait for the message,
// consume it) or late (return immediately; the message, present or future,
// is abandoned in its queue).
func (ck *checker) handleRecvDeadline(mp *modelProc, o op) {
	if o.peer < 0 || o.peer >= len(ck.procs) {
		ck.report(o.pos, fmt.Sprintf("p%d deadline-receives tag %q from rank %d, outside the world [0,%d)", mp.id, o.tag, o.peer, len(ck.procs)), ck.snapshotTrace())
		ck.aborted = true
		return
	}
	k := qkey{src: o.peer, dst: mp.id, tag: o.tag}
	if ck.choose(2) == 1 {
		ck.event("p%d deadline-receive of tag %q from p%d times out", mp.id, o.tag, o.peer)
		ck.abandoned[k] = true
		mp.state = stReady
		mp.resume = opResult{payload: framework.Nil{}, onTime: false}
		return
	}
	mp.state = stBlockedDeadline
	mp.waitSrc = o.peer
	mp.waitTag = o.tag
	mp.waitPos = o.pos
	if len(ck.queues[k]) > 0 {
		ck.deliver(mp)
		return
	}
	ck.event("p%d waits (with deadline) for tag %q from p%d", mp.id, o.tag, o.peer)
}

// tryBarrier completes a barrier rendezvous when every still-active
// processor has arrived, injecting any scheduled fail-stop faults.
func (ck *checker) tryBarrier() bool {
	var waiting []*modelProc
	for _, mp := range ck.procs {
		switch mp.state {
		case stAtBarrier:
			waiting = append(waiting, mp)
		case stExited, stErrored, stFailed:
		default:
			return false // someone active is not at the barrier
		}
	}
	if len(waiting) == 0 {
		return false
	}
	phase := waiting[0].barPhase
	for _, mp := range waiting[1:] {
		if mp.barPhase != phase {
			ck.report(mp.barPos, fmt.Sprintf("barrier phase mismatch: p%d at %q while p%d is at %q", waiting[0].id, phase, mp.id, mp.barPhase), ck.snapshotTrace())
			ck.aborted = true
			return true
		}
	}

	// Per-rank, phase-keyed hit counting, exactly as machine.Proc does.
	var events []Value
	var victims []int
	for _, mp := range waiting {
		hit := mp.hits[phase]
		mp.hits[phase] = hit + 1
		ck.crossings = append(ck.crossings, faultSpec{Proc: mp.id, Phase: phase, Hit: hit})
		for _, f := range ck.w.plan {
			if f.Proc == mp.id && f.Phase == phase && f.Hit == hit {
				victims = append(victims, mp.id)
			}
		}
	}
	sort.Ints(victims)
	for _, v := range victims {
		mp := ck.procs[v]
		mp.store = map[string]Value{}
		mp.faultCount++
		mp.epoch++
		events = append(events, &framework.Struct{Type: "FaultEvent", Fields: map[string]Value{
			"Proc":  framework.KnownInt(int64(v)),
			"Phase": framework.KnownStr(phase),
		}})
		ck.event("barrier %q: p%d fail-stops; its replacement continues with wiped state", phase, v)
		// Fail-stop wipes the rank's state; anything already in flight to
		// it will be consumed by the unsuspecting replacement (flagged at
		// delivery as stale cross-fault traffic).
	}
	ck.event("barrier %q completes (%d participants)", phase, len(waiting))
	for _, mp := range waiting {
		mp.state = stReady
		mp.resume = opResult{payload: copyPayload(framework.NewSlice(events))}
	}
	return true
}

// resolveLateWaiter force-resolves one parked deadline receive as late:
// once the system is otherwise quiescent no message can arrive in time.
func (ck *checker) resolveLateWaiter() bool {
	for _, mp := range ck.procs {
		if mp.state == stBlockedDeadline {
			k := qkey{src: mp.waitSrc, dst: mp.id, tag: mp.waitTag}
			ck.abandoned[k] = true
			ck.event("p%d deadline-receive of tag %q from p%d can never complete; times out", mp.id, mp.waitTag, mp.waitSrc)
			mp.state = stReady
			mp.resume = opResult{payload: framework.Nil{}, onTime: false}
			return true
		}
	}
	return false
}

// terminalChecks classifies the quiescent state: clean termination with
// empty queues, collective abort, or deadlock.
func (ck *checker) terminalChecks() {
	var blocked, errored []*modelProc
	for _, mp := range ck.procs {
		switch mp.state {
		case stBlockedRecv, stAtBarrier, stReady, stBlockedDeadline:
			blocked = append(blocked, mp)
		case stErrored, stFailed:
			errored = append(errored, mp)
		}
	}

	if len(blocked) > 0 {
		if len(errored) == 0 {
			// True deadlock: no processor errored, yet the world cannot
			// make progress.
			desc := make([]string, len(blocked))
			pos := ck.w.pos
			for i, mp := range blocked {
				switch mp.state {
				case stBlockedRecv:
					desc[i] = fmt.Sprintf("p%d waits for tag %q from p%d", mp.id, mp.waitTag, mp.waitSrc)
					pos = mp.waitPos
				case stAtBarrier:
					desc[i] = fmt.Sprintf("p%d waits at barrier %q", mp.id, mp.barPhase)
					pos = mp.barPos
				default:
					desc[i] = fmt.Sprintf("p%d blocked", mp.id)
				}
			}
			ck.report(pos, "deadlock: "+joinAnd(desc)+", and no processor can make progress", ck.snapshotTrace())
		}
		// With an error exit the real machine cancels the run (collective
		// abort): blocked survivors are not a deadlock. The error exit
		// itself is judged below.
		return
	}

	if ck.w.faultTolerant {
		for _, mp := range errored {
			if mp.state == stErrored {
				ck.report(ck.w.pos, fmt.Sprintf("p%d aborts with %q under a fault plan the layout tolerates", mp.id, mp.exitErr), ck.snapshotTrace())
			}
		}
	}

	// Orphan messages: every queue must drain, except those a deadline
	// receive deliberately abandoned.
	keys := make([]qkey, 0, len(ck.queues))
	for k := range ck.queues {
		if !ck.abandoned[k] && len(ck.queues[k]) > 0 {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.src != b.src {
			return a.src < b.src
		}
		if a.dst != b.dst {
			return a.dst < b.dst
		}
		return a.tag < b.tag
	})
	for _, k := range keys {
		m := ck.queues[k][0]
		ck.report(m.pos, fmt.Sprintf("message tag %q from p%d to p%d is never received (%d left queued at termination)", k.tag, k.src, k.dst, len(ck.queues[k])), ck.snapshotTrace())
	}
}

// teardown kills every parked goroutine and waits for all of them.
func (ck *checker) teardown() {
	for _, mp := range ck.procs {
		switch mp.state {
		case stExited, stErrored, stFailed:
		default:
			mp.resC <- opResult{kill: true}
		}
	}
	ck.wg.Wait()
}

// procMain is a model processor's goroutine: run the interpreted body,
// reporting exit or interpretation failure as a final op.
func (ck *checker) procMain(mp *modelProc) {
	defer ck.wg.Done()
	defer func() {
		switch e := recover().(type) {
		case nil:
		case killSignal:
		case *framework.EvalError:
			ck.opC <- op{proc: mp.id, kind: kFail, pos: e.Pos, errMsg: e.Msg}
		case framework.Missing:
			ck.opC <- op{proc: mp.id, kind: kFail, errMsg: e.Error()}
		default:
			panic(e)
		}
	}()
	mp.await() // parked until the scheduler starts this processor
	errv := ck.w.run(newEval(ck.sums, ck.skels, &ck.fuel), mp)
	o := op{proc: mp.id, kind: kExit}
	if e, ok := errv.(framework.Err); ok {
		o.isErr = true
		o.errMsg = e.Msg
	}
	ck.opC <- o
}

// await parks the proc goroutine until the scheduler resumes (or kills) it.
func (mp *modelProc) await() opResult {
	res := <-mp.resC
	if res.kill {
		panic(killSignal{})
	}
	return res
}

// --- transport verbs (called from the proc goroutine via the interpreter) ---

func (mp *modelProc) opSend(to int, tag string, payload Value, pos token.Pos) Value {
	mp.ck.opC <- op{proc: mp.id, kind: kSend, peer: to, tag: tag, payload: payload, pos: pos}
	return mp.await().payload
}

func (mp *modelProc) opRecv(from int, tag string, pos token.Pos) Value {
	mp.ck.opC <- op{proc: mp.id, kind: kRecv, peer: from, tag: tag, pos: pos}
	return mp.await().payload
}

func (mp *modelProc) opRecvDeadline(from int, tag string, pos token.Pos) (Value, bool) {
	mp.ck.opC <- op{proc: mp.id, kind: kRecvDeadline, peer: from, tag: tag, pos: pos}
	res := mp.await()
	return res.payload, res.onTime
}

func (mp *modelProc) opBarrier(phase string, pos token.Pos) Value {
	mp.ck.opC <- op{proc: mp.id, kind: kBarrier, tag: phase, pos: pos}
	return mp.await().payload
}

// --- trace and findings ---

func (ck *checker) event(format string, args ...any) {
	if len(ck.trace) >= maxTraceLen {
		ck.trace = ck.trace[1:]
		ck.truncated = true
	}
	ck.trace = append(ck.trace, fmt.Sprintf(format, args...))
}

func (ck *checker) snapshotTrace() []string {
	out := make([]string, 0, len(ck.trace)+1)
	if ck.truncated {
		out = append(out, fmt.Sprintf("... (earlier events truncated, last %d shown)", maxTraceLen))
	}
	return append(out, ck.trace...)
}

// report records a finding, deduplicated by message across choice vectors
// (the same violation typically recurs under many interleavings; the first
// counterexample trace is kept).
func (ck *checker) report(pos token.Pos, msg string, trace []string) {
	if ck.seen[msg] {
		return
	}
	ck.seen[msg] = true
	ck.findings = append(ck.findings, Finding{Pos: pos, World: ck.w.name, Msg: msg, Trace: trace})
}

func joinAnd(parts []string) string {
	switch len(parts) {
	case 0:
		return ""
	case 1:
		return parts[0]
	}
	out := ""
	for i, p := range parts {
		if i > 0 {
			if i == len(parts)-1 {
				out += " and "
			} else {
				out += ", "
			}
		}
		out += p
	}
	return out
}
