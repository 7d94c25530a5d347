// Package modbound machine-proves the NTT kernel's lazy-arithmetic
// contracts with the framework's interval engine (framework/interval.go):
//
//   - every store into a lazy transform buffer stays in the Harvey domain
//     [0, 2p): butterfly exits, REDC pointwise products, nttLoad's
//     conditional-subtract reduction;
//   - every shoupMul/shoupOf call satisfies the Shoup precondition w < p,
//     and every redc call feeds operands below 2p;
//   - every twiddle stored into a twiddle table (fillTwiddles' w and iw) is
//     below p, and a kernel that reads a table passes only its twiddles, not
//     their Shoup constants, where a twiddle belongs;
//   - no unsigned add/sub/mul in a kernel can wrap around 2^64;
//   - reductions are present before CRT recombination: the residues
//     nttCRTCombine consumes are strictly below their primes, which is
//     enforced producer-side (the final store to nttProductInto's dst must
//     prove < p) and assumed consumer-side (the strict element contracts on
//     res1/res2/res3);
//   - package init establishes the nttCRT constants within the bounds the
//     combine step assumes (inv12 < p2, p1mod3 < p3, inv123 < p3, and
//     p12hi/p12lo exactly p1·p2).
//
// Any site the engine cannot prove is reported; there is no "probably fine".
//
// The analysis is concrete per prime: symbolic bounds like 2p do not fit a
// non-relational interval domain, so each kernel with an nttPrime receiver
// or parameter is solved once per modulus collected from the package's
// prime-table literal, with pr.p and pr.twoP pinned to that modulus.
// Helper kernels are axiomatized by name rather than inlined — shoupMul,
// redc, mulMod, powMod, invMod, shoupOf carry the pre/postconditions their
// doc comments state — and everything else flows through the
// interprocedural summary return bounds. Four assumptions are trusted
// rather than proved here, each pinned elsewhere:
//
//   - pr.root/pr.iroot elements and pr.r are below p (precompute reduces
//     them mod p; TestNTTPrimeProperties pins them);
//   - a twiddle table a kernel reads (its w/iw parameters) holds values
//     below p: fillTwiddles' stores are proved, but the table reaches the
//     transforms through nttTwiddles and an atomic pointer, which the
//     engine does not follow (TestNTTTwiddleTable pins every entry);
//   - a lazy buffer is filled (nttLoad) before it is read — the element
//     contract is flow-insensitive;
//   - prime-table p fields are never reassigned after their literal.
//
// precompute itself is deliberately not in the checked set: its
// `(0 - p) % p` computes 2^64 mod p by intentional wraparound, which is
// exactly what the overflow check exists to flag elsewhere.
//
// Like every ftlint analyzer, matching is by name (type nttPrime, the
// kernel function names, math/bits primitives), so import-free fixtures
// exercise the same proofs as the real tree.
package modbound

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"math/bits"

	"repro/internal/analysis/framework"
)

var Analyzer = &framework.Analyzer{
	Name: "modbound",
	Doc:  "prove NTT lazy-domain bounds: [0,2p) stores, Shoup/REDC preconditions, no uint64 wraparound, strict reduction before CRT",
	Run:  run,
}

// bufKind classifies a kernel's slice parameters.
type bufKind int

const (
	bufRaw     bufKind = iota // arbitrary limbs: loads are unconstrained, stores unchecked
	bufLazy                   // lazy domain: loads assume [0, 2p), stores must prove < 2p
	bufStrict                 // CRT residues: loads assume [0, p_k), stores must prove < p_k
	bufTwiddle                // twiddle table: loads assume [0, p), stores must prove < p
)

type bufSpec struct {
	kind  bufKind
	prime int // prime index for bufStrict
}

// kernelSpec describes one checked function: its buffer contracts, the
// parameters assumed < p (call sites owe the matching proof), and whether
// the final store to a buffer must be strictly reduced.
type kernelSpec struct {
	bufs map[string]bufSpec
	ltP  map[string]bool
	// strictFinal names the buffer whose last store (in source order) must
	// prove < p — the "reduced before CRT" producer obligation.
	strictFinal string
	// perPrime runs the proof once per table modulus with the nttPrime
	// receiver/parameter pinned; otherwise one run sees the whole table.
	perPrime bool
}

var kernels = map[string]*kernelSpec{
	"forward": {bufs: map[string]bufSpec{"a": {kind: bufLazy}, "w": {kind: bufTwiddle}, "ws": {kind: bufRaw}}, perPrime: true},
	"inverse": {bufs: map[string]bufSpec{"a": {kind: bufLazy}, "iw": {kind: bufTwiddle}, "iws": {kind: bufRaw}}, perPrime: true},
	"fillTwiddles": {
		bufs:     map[string]bufSpec{"w": {kind: bufTwiddle}, "ws": {kind: bufRaw}, "iw": {kind: bufTwiddle}, "iws": {kind: bufRaw}},
		perPrime: true,
	},
	"forwardRange": {bufs: map[string]bufSpec{"a": {kind: bufLazy}}, ltP: map[string]bool{"rot": true}, perPrime: true},
	"inverseRange": {bufs: map[string]bufSpec{"a": {kind: bufLazy}}, ltP: map[string]bool{"irot": true}, perPrime: true},
	"splitBlock":   {bufs: map[string]bufSpec{"a": {kind: bufLazy}}, ltP: map[string]bool{"rot": true}, perPrime: true},
	"runChunk":     {perPrime: true},
	"nttLoad":      {bufs: map[string]bufSpec{"dst": {kind: bufLazy}, "x": {kind: bufRaw}}, perPrime: true},
	"nttProductInto": {
		bufs:        map[string]bufSpec{"dst": {kind: bufLazy}, "work": {kind: bufLazy}, "x": {kind: bufRaw}, "y": {kind: bufRaw}},
		strictFinal: "dst",
		perPrime:    true,
	},
	"nttCRTCombine": {
		bufs: map[string]bufSpec{
			"z":    {kind: bufRaw},
			"res1": {kind: bufStrict, prime: 0},
			"res2": {kind: bufStrict, prime: 1},
			"res3": {kind: bufStrict, prime: 2},
		},
	},
}

// recordLtP lists record fields held below p: a checked kernel's store into
// one must prove it, and a kernel reading one through a record parameter
// may assume it. A split block's pooled chunk records carry its twiddle
// from splitBlock to runChunk this way.
var recordLtP = map[string]map[string]bool{"nttChunk": {"rot": true}}

// recordName is the type name of obj, through one pointer.
func recordName(obj types.Object) string {
	t := obj.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// kernelCallPre maps checked-kernel callee names to the argument index that
// must be proved < p at the call site (the twiddle handed to a range/block
// worker).
var kernelCallPre = map[string]int{
	"forwardRange": 4,
	"inverseRange": 4,
	"splitBlock":   3,
}

func run(pass *framework.Pass) error {
	if !framework.PathHasSegment(pass.Path, "bigint") {
		return nil
	}
	primes, tableObj := collectPrimes(pass)
	if len(primes) == 0 {
		return nil // no NTT prime table in this package
	}
	m := &checker{
		pass:     pass,
		primes:   primes,
		tableObj: tableObj,
		crtObj:   findCRTVar(pass),
		seen:     map[string]bool{},
	}
	for i, p := range primes {
		// redc's postcondition [0, 2p) needs 4p² < 2^64·p; the lazy domain
		// needs 4p < 2^64. Both are p < 2^62.
		if p >= 1<<62 {
			m.reportOnce(primePos(pass, i), "prime-size", fmt.Sprintf("NTT prime %d is not below 2^62: the lazy domain [0, 2p) and REDC are unsound for it", p))
		}
	}
	framework.FuncDecls(pass.Files, func(fd *ast.FuncDecl) {
		switch {
		case fd.Recv == nil && fd.Name.Name == "init":
			m.checkInit(fd)
		case kernels[fd.Name.Name] != nil:
			m.checkKernel(fd, kernels[fd.Name.Name])
		}
	})
	return nil
}

// collectPrimes finds the package-level array/slice literal of nttPrime
// values and returns the constant p fields in element order, plus the
// table variable's object (for seeding nttPrimes[i].p facts).
func collectPrimes(pass *framework.Pass) ([]uint64, types.Object) {
	var primes []uint64
	var tableObj types.Object
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Names) != 1 || len(vs.Values) != 1 {
					continue
				}
				lit, ok := vs.Values[0].(*ast.CompositeLit)
				if !ok || !isPrimeTable(pass.Info, lit) {
					continue
				}
				tableObj = pass.Info.Defs[vs.Names[0]]
				for _, elt := range lit.Elts {
					el, ok := elt.(*ast.CompositeLit)
					if !ok {
						continue
					}
					for _, field := range el.Elts {
						kv, ok := field.(*ast.KeyValueExpr)
						if !ok {
							continue
						}
						if key, ok := kv.Key.(*ast.Ident); ok && key.Name == "p" {
							if tv, ok := pass.Info.Types[kv.Value]; ok && tv.Value != nil {
								if iv, ok := constUint(tv); ok {
									primes = append(primes, iv)
								}
							}
						}
					}
				}
				if len(primes) > 0 {
					return primes, tableObj
				}
			}
		}
	}
	return primes, tableObj
}

func constUint(tv types.TypeAndValue) (uint64, bool) {
	return framework.ConstUint(tv.Value)
}

func isPrimeTable(info *types.Info, lit *ast.CompositeLit) bool {
	tv, ok := info.Types[lit]
	if !ok {
		return false
	}
	var elem types.Type
	switch t := tv.Type.Underlying().(type) {
	case *types.Array:
		elem = t.Elem()
	case *types.Slice:
		elem = t.Elem()
	default:
		return false
	}
	return framework.NamedTypeName(elem) == "nttPrime"
}

// primePos locates the i-th prime element literal for diagnostics, falling
// back to the file start.
func primePos(pass *framework.Pass, i int) token.Pos {
	for _, f := range pass.Files {
		var pos token.Pos
		ast.Inspect(f, func(node ast.Node) bool {
			lit, ok := node.(*ast.CompositeLit)
			if !ok || !isPrimeTable(pass.Info, lit) {
				return true
			}
			if i < len(lit.Elts) {
				pos = lit.Elts[i].Pos()
			}
			return false
		})
		if pos != token.NoPos {
			return pos
		}
	}
	return pass.Files[0].Pos()
}

// findCRTVar returns the object of the package-level nttCRT constant block.
func findCRTVar(pass *framework.Pass) types.Object {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, name := range vs.Names {
						if name.Name == "nttCRT" {
							return pass.Info.Defs[name]
						}
					}
				}
			}
		}
	}
	return nil
}

type checker struct {
	pass     *framework.Pass
	primes   []uint64
	tableObj types.Object
	crtObj   types.Object
	seen     map[string]bool // pos/kind dedup across per-prime runs
}

// reportOnce dedups by position and defect kind, not by message: the same
// unprovable site would otherwise be reported once per prime run with only
// the modulus differing. The first failing prime's message wins.
func (m *checker) reportOnce(pos token.Pos, kind, msg string) {
	key := fmt.Sprintf("%d:%s", pos, kind)
	if m.seen[key] {
		return
	}
	m.seen[key] = true
	m.pass.Reportf(pos, "%s", msg)
}

// crtBounds is the contract table for the Garner constants: what init must
// establish and what nttCRTCombine may assume. Shoup companions carry no
// bound (shoupOf of a reduced value is any 64-bit word).
func (m *checker) crtBounds() map[string]framework.Interval {
	if len(m.primes) < 3 {
		return nil
	}
	p1, p2, p3 := m.primes[0], m.primes[1], m.primes[2]
	hi, lo := bits.Mul64(p1, p2)
	return map[string]framework.Interval{
		"inv12":  framework.NewInterval(0, p2-1),
		"p1mod3": framework.NewInterval(0, p3-1),
		"inv123": framework.NewInterval(0, p3-1),
		"p12hi":  framework.PointInterval(hi),
		"p12lo":  framework.PointInterval(lo),
	}
}

// primeParam finds the nttPrime-typed receiver or parameter object of fd.
func (m *checker) primeParam(fd *ast.FuncDecl) types.Object {
	check := func(fl *ast.FieldList) types.Object {
		if fl == nil {
			return nil
		}
		for _, field := range fl.List {
			for _, name := range field.Names {
				obj := m.pass.Info.Defs[name]
				if obj != nil && framework.NamedTypeName(obj.Type()) == "nttPrime" {
					return obj
				}
			}
		}
		return nil
	}
	if obj := check(fd.Recv); obj != nil {
		return obj
	}
	return check(fd.Type.Params)
}

// paramObjs maps fd's parameter names to objects (for buffer contracts).
func (m *checker) paramObjs(fd *ast.FuncDecl) map[string]types.Object {
	out := map[string]types.Object{}
	collect := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			for _, name := range field.Names {
				if obj := m.pass.Info.Defs[name]; obj != nil {
					out[name.Name] = obj
				}
			}
		}
	}
	collect(fd.Recv)
	collect(fd.Type.Params)
	return out
}

func (m *checker) checkKernel(fd *ast.FuncDecl, spec *kernelSpec) {
	if spec.perPrime {
		prObj := m.primeParam(fd)
		if prObj == nil {
			return // not the kernel shape the contract describes
		}
		for i := range m.primes {
			m.runProof(fd, spec, prObj, i)
		}
		return
	}
	m.runProof(fd, spec, nil, -1)
}

// checkInit verifies that package init establishes the nttCRT contract.
func (m *checker) checkInit(fd *ast.FuncDecl) {
	if m.crtObj == nil {
		return
	}
	bounds := m.crtBounds()
	if bounds == nil {
		return
	}
	m.runInitProof(fd, bounds)
}

// seedCommon pins the prime-table facts every run may rely on.
func (m *checker) seedCommon(env *framework.IntervalEnv) {
	if m.tableObj == nil {
		return
	}
	for i, p := range m.primes {
		key := framework.KeyOf(m.tableObj).AtIndex(i)
		env.Set(key.WithField("p"), framework.PointInterval(p))
		if 2*p > p { // p < 2^63: twoP representable
			env.Set(key.WithField("twoP"), framework.PointInterval(2*p))
		}
	}
}

// seedCRT pins the Garner constants for consumers (init itself is the
// producer and gets no seed — it must prove them).
func (m *checker) seedCRT(env *framework.IntervalEnv) {
	bounds := m.crtBounds()
	if m.crtObj == nil || bounds == nil {
		return
	}
	for field, iv := range bounds {
		env.Set(framework.KeyOf(m.crtObj).WithField(field), iv)
	}
}

// proofCtx carries one solve's contract closures.
type proofCtx struct {
	m      *checker
	spec   *kernelSpec
	params map[string]types.Object
	prime  uint64 // 0 when the run is not prime-pinned
	// dstStores records stores into the strictFinal buffer, source order.
	dstStores []struct {
		pos token.Pos
		iv  framework.Interval
	}
}

func (c *proofCtx) primeNote() string {
	if c.prime == 0 {
		return ""
	}
	return fmt.Sprintf(" (prime %d)", c.prime)
}

// bufOf resolves an indexed/ranged base expression to its buffer contract.
func (c *proofCtx) bufOf(base ast.Expr) (bufSpec, string, bool) {
	id, ok := ast.Unparen(base).(*ast.Ident)
	if !ok {
		return bufSpec{}, "", false
	}
	obj := c.m.pass.Info.ObjectOf(id)
	if obj == nil {
		return bufSpec{}, "", false
	}
	for name, spec := range c.spec.bufs {
		if c.params[name] == obj {
			return spec, name, true
		}
	}
	return bufSpec{}, "", false
}

func (c *proofCtx) elemContract(base ast.Expr, site *ast.IndexExpr) (framework.Interval, bool) {
	// Root tables: pr.root[i]/pr.iroot[i] are below p (established by
	// precompute, pinned by the prime-property tests).
	if sel, ok := ast.Unparen(base).(*ast.SelectorExpr); ok && c.prime != 0 {
		if sel.Sel.Name == "root" || sel.Sel.Name == "iroot" {
			return framework.NewInterval(0, c.prime-1), true
		}
	}
	spec, _, ok := c.bufOf(base)
	if !ok {
		return framework.Interval{}, false
	}
	switch spec.kind {
	case bufLazy:
		if c.prime != 0 {
			return framework.NewInterval(0, 2*c.prime-1), true
		}
	case bufTwiddle:
		if c.prime != 0 {
			return framework.NewInterval(0, c.prime-1), true
		}
	case bufStrict:
		if spec.prime < len(c.m.primes) {
			return framework.NewInterval(0, c.m.primes[spec.prime]-1), true
		}
	}
	return framework.FullInterval(), true // bufRaw
}

func (c *proofCtx) storeElem(site *ast.IndexExpr, v framework.Interval, env *framework.IntervalEnv) {
	spec, name, ok := c.bufOf(site.X)
	if !ok {
		return
	}
	switch spec.kind {
	case bufLazy:
		if c.prime == 0 {
			return
		}
		if name == c.spec.strictFinal {
			c.dstStores = append(c.dstStores, struct {
				pos token.Pos
				iv  framework.Interval
			}{site.Pos(), v})
		}
		if v.Hi >= 2*c.prime {
			c.m.reportOnce(site.Pos(), "store:"+name, fmt.Sprintf("store into lazy buffer %s not provably below 2p: proved %v, need [0, %d)%s", name, v, 2*c.prime, c.primeNote()))
		}
	case bufTwiddle:
		if c.prime != 0 && (v.IsEmpty() || v.Hi >= c.prime) {
			c.m.reportOnce(site.Pos(), "store:"+name, fmt.Sprintf("store into twiddle table %s not provably below p: proved %v, need [0, %d)%s", name, v, c.prime, c.primeNote()))
		}
	case bufStrict:
		if spec.prime >= len(c.m.primes) {
			return
		}
		p := c.m.primes[spec.prime]
		if v.Hi >= p {
			c.m.reportOnce(site.Pos(), "store:"+name, fmt.Sprintf("store into CRT residue buffer %s not provably below its prime: proved %v, need [0, %d)", name, v, p))
		}
	}
}

// callContract is the axiom table plus kernel call-site preconditions.
func (c *proofCtx) callContract(ev *framework.IntervalEval, call *ast.CallExpr, args []framework.Interval) ([]framework.Interval, bool) {
	id := framework.CalleeIdent(call)
	if id == nil {
		return nil, false
	}
	report := ev.Reporting()
	full := []framework.Interval{framework.FullInterval()}
	lazyPost := func(p framework.Interval) []framework.Interval {
		if p.Hi >= 1<<62 {
			return full
		}
		return []framework.Interval{framework.NewInterval(0, 2*p.Hi-1)}
	}
	modPost := func(p framework.Interval) []framework.Interval {
		if p.Hi == 0 {
			return full
		}
		return []framework.Interval{framework.NewInterval(0, p.Hi-1)}
	}
	requireLt := func(what string, w, p framework.Interval) {
		if !report {
			return
		}
		if p.IsEmpty() || w.IsEmpty() || w.Hi >= p.Lo {
			c.m.reportOnce(call.Pos(), "pre:"+id.Name+":"+what, fmt.Sprintf("%s: %s not provably below p (proved %v, p ≥ %v)%s", id.Name, what, w, p.Lo, c.primeNote()))
		}
	}

	switch id.Name {
	case "shoupMul":
		if len(args) != 4 {
			return nil, false
		}
		requireLt("Shoup multiplier w", args[1], args[3])
		return lazyPost(args[3]), true
	case "shoupOf":
		if len(args) != 2 {
			return nil, false
		}
		requireLt("Shoup precomputation input w", args[0], args[1])
		return full, true
	case "redc":
		if len(args) != 4 {
			return nil, false
		}
		if report {
			p := args[2]
			twoP := uint64(0)
			if !p.IsEmpty() && p.Lo < 1<<62 {
				twoP = 2 * p.Lo
			}
			for i, name := range []string{"a", "b"} {
				if twoP == 0 || args[i].Hi >= twoP {
					c.m.reportOnce(call.Pos(), "pre:redc:"+name, fmt.Sprintf("redc operand %s not provably below 2p (proved %v, need [0, %d))%s", name, args[i], twoP, c.primeNote()))
				}
			}
		}
		return lazyPost(args[2]), true
	case "mulMod", "powMod":
		if len(args) != 3 {
			return nil, false
		}
		return modPost(args[2]), true
	case "invMod":
		if len(args) != 2 {
			return nil, false
		}
		return modPost(args[1]), true
	}

	if _, isKernel := kernels[id.Name]; isKernel {
		if argIdx, owesPre := kernelCallPre[id.Name]; owesPre && report {
			if argIdx < len(args) {
				requireLt("twiddle argument", args[argIdx], framework.PointInterval(c.prime))
			}
		}
		return nil, true // void, and touches only its buffers — no havoc
	}
	return nil, false
}

// newEval builds the hooked evaluator for one run.
func (c *proofCtx) newEval(storeKey func(ast.Expr, framework.ValKey, framework.Interval, *framework.IntervalEnv)) *framework.IntervalEval {
	ev := &framework.IntervalEval{
		Info:      c.m.pass.Info,
		Summaries: c.m.pass.Summaries,
		Elem:      c.elemContract,
		StoreElem: c.storeElem,
		StoreKey:  storeKey,
	}
	ev.Call = func(call *ast.CallExpr, args []framework.Interval, env *framework.IntervalEnv) ([]framework.Interval, bool) {
		return c.callContract(ev, call, args)
	}
	ev.OnWrap = func(site ast.Expr, op token.Token, definite bool) {
		kind := "possible"
		if definite {
			kind = "definite"
		}
		c.m.reportOnce(site.Pos(), "wrap", fmt.Sprintf("%s uint64 wraparound in lazy-domain arithmetic: the bounds cannot rule out overflow%s", kind, c.primeNote()))
	}
	return ev
}

// solveBody runs the engine over body (a function body or a closure inside
// it) and reports.
func solveBody(ev *framework.IntervalEval, body *ast.BlockStmt, seed *framework.IntervalEnv) {
	ev.BindRanges(body)
	ia := &framework.IntervalAnalysis{Eval: ev}
	cfg := framework.NewCFG(body)
	res := ia.Solve(cfg, seed)
	ia.Report(cfg, res)
}

// runProof proves one kernel under one prime binding (or the whole-table
// binding when prObj is nil).
func (m *checker) runProof(fd *ast.FuncDecl, spec *kernelSpec, prObj types.Object, primeIdx int) {
	c := &proofCtx{m: m, spec: spec, params: m.paramObjs(fd)}
	seed := framework.NewIntervalEnv()
	m.seedCommon(seed)
	m.seedCRT(seed)

	if primeIdx >= 0 {
		p := m.primes[primeIdx]
		if p == 0 || p >= 1<<62 {
			return // already reported by the validity check
		}
		c.prime = p
		key := framework.KeyOf(prObj)
		seed.Set(key.WithField("p"), framework.PointInterval(p))
		seed.Set(key.WithField("twoP"), framework.PointInterval(2*p))
		seed.Set(key.WithField("r"), framework.NewInterval(0, p-1)) // 2^64 mod p
		for name := range spec.ltP {
			if obj := c.params[name]; obj != nil {
				seed.Set(framework.KeyOf(obj), framework.NewInterval(0, p-1))
			}
		}
		for _, obj := range c.params {
			for field := range recordLtP[recordName(obj)] {
				seed.Set(framework.KeyOf(obj).WithField(field), framework.NewInterval(0, p-1))
			}
		}
	}

	storeKey := func(site ast.Expr, key framework.ValKey, v framework.Interval, env *framework.IntervalEnv) {
		if c.prime == 0 || key.Obj == nil || !recordLtP[recordName(key.Obj)][key.Field] {
			return
		}
		if v.IsEmpty() || v.Hi >= c.prime {
			m.reportOnce(site.Pos(), "record:"+key.Field, fmt.Sprintf("store into %s.%s not provably below p (proved %v)%s", recordName(key.Obj), key.Field, v, c.primeNote()))
		}
	}
	ev := c.newEval(storeKey)
	solveBody(ev, fd.Body, seed)
	// Closures (the pool-fork blocks) run with the function-entry facts:
	// captured parameters keep their contracts, captured locals are
	// unconstrained.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			solveBody(ev, lit.Body, seed)
			return false
		}
		return true
	})

	if spec.strictFinal != "" && c.prime != 0 {
		if len(c.dstStores) == 0 {
			m.reportOnce(fd.Pos(), "final-missing", fmt.Sprintf("%s: no store into %s found, cannot verify the pre-CRT strict reduction", fd.Name.Name, spec.strictFinal))
			return
		}
		last := c.dstStores[0]
		for _, s := range c.dstStores[1:] {
			if s.pos > last.pos {
				last = s
			}
		}
		if last.iv.Hi >= c.prime {
			m.reportOnce(last.pos, "final", fmt.Sprintf("final store into %s before CRT recombination not provably below p: proved %v, need [0, %d)%s", spec.strictFinal, last.iv, c.prime, c.primeNote()))
		}
	}
}

// runInitProof checks init's nttCRT assignments against the contract table.
func (m *checker) runInitProof(fd *ast.FuncDecl, bounds map[string]framework.Interval) {
	c := &proofCtx{m: m, spec: &kernelSpec{bufs: map[string]bufSpec{}}, params: map[string]types.Object{}}
	seed := framework.NewIntervalEnv()
	m.seedCommon(seed)

	storeKey := func(site ast.Expr, key framework.ValKey, v framework.Interval, env *framework.IntervalEnv) {
		if key.Obj != m.crtObj {
			return
		}
		want, ok := bounds[key.Field]
		if !ok {
			return // Shoup companions: any word
		}
		if v.IsEmpty() || v.Lo < want.Lo || v.Hi > want.Hi {
			m.reportOnce(site.Pos(), "crt:"+key.Field, fmt.Sprintf("init assigns nttCRT.%s a value not provably within its contract %v (proved %v): the CRT recombination would be wrong", key.Field, want, v))
		}
	}
	ev := c.newEval(storeKey)
	solveBody(ev, fd.Body, seed)
}
