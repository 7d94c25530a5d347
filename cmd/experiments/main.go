// Command experiments regenerates the paper's tables and figures on the
// simulated machine:
//
//	experiments -exp table1    Table 1 (unlimited memory): F/BW/L and extra
//	                           processors for Parallel Toom-Cook, Toom-Cook
//	                           with Replication, and Fault-Tolerant Toom-Cook
//	experiments -exp table2    Table 2 (limited memory, DFS steps per Lemma 3.1)
//	experiments -exp figure1   Figure 1: linear-coding layout + code-invariant
//	                           demonstration (preserved by linear stages,
//	                           broken by multiplication)
//	experiments -exp figure2   Figure 2: polynomial-coding layout + a live
//	                           multiplication-phase fault survived
//	experiments -exp figure3   Figure 3: multi-step traversal layout + erasure
//	                           tolerance with f redundant multivariate points
//	experiments -exp headline  The Θ(P/(2k-1)) overhead-reduction sweep
//	experiments -exp memory    Lemma 3.1: DFS steps vs memory budget, with
//	                           measured peak footprints
//	experiments -exp ablation  Toom-Graph, Lazy-Interpolation and
//	                           evaluation-reuse ablations
//	experiments -exp softfault Section 7: miscalculation detection and
//	                           Berlekamp-Welch correction
//	experiments -exp scaling   the (1+o(1)) overheads vs n and P
//	experiments -exp stragglers delay-fault mitigation via redundant columns
//	experiments -exp phases    per-stage cost anatomy (mark traces)
//	experiments -exp crossover parallel schoolbook vs Toom-Cook
//	experiments -exp all       everything above
//
// Absolute numbers are model counts on the simulator; the claims under test
// are the *shapes*: overhead factors → 1, extra processors f·(2k-1) (or f)
// vs f·P, and recomputation-free recovery.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"text/tabwriter"
	"time"

	"repro/internal/bigint"
	"repro/internal/erasure"
	"repro/internal/ftparallel"
	"repro/internal/machine"
	"repro/internal/multistep"
	"repro/internal/parallel"
	"repro/internal/softfault"
	"repro/internal/toom"
	"repro/internal/toomgraph"
)

// expBackend is the -backend flag: every machine the experiments build gets
// it stamped into its config via mcfg. F/BW/L columns are identical on both
// backends (machine.Proc charges them whatever the clock); time columns change
// meaning from modeled units to real seconds, except in stragglers, which
// dilates the wall clock to model units.
var expBackend machine.Backend

// mcfg stamps the selected backend into a machine config.
func mcfg(c machine.Config) machine.Config {
	c.Backend = expBackend
	return c
}

func main() {
	exp := flag.String("exp", "all", "experiment: table1, table2, figure1, figure2, figure3, headline, memory, ablation, softfault, scaling, stragglers, phases, crossover, all")
	algo := flag.String("algo", "toom", "algorithm family: toom (the integer experiments above) or matmul (the matrix F/BW/L table)")
	bits := flag.Int("bits", 1<<16, "operand size in bits")
	seed := flag.Int64("seed", 1, "PRNG seed")
	backend := flag.String("backend", "sim", "machine backend: sim (virtual clock, modeled time) or wall (wall clock, real time)")
	flag.Parse()
	expBackend = machine.Backend(*backend)

	if *algo == "matmul" {
		if err := matmulTable(*seed); err != nil {
			fmt.Fprintf(os.Stderr, "matmul: %v\n", err)
			os.Exit(1)
		}
		return
	} else if *algo != "toom" {
		fmt.Fprintf(os.Stderr, "unknown -algo %q (want toom or matmul)\n", *algo)
		os.Exit(1)
	}

	rng := rand.New(rand.NewSource(*seed))
	a := bigint.Random(rng, *bits)
	b := bigint.Random(rng, *bits)

	run := func(name string, fn func(a, b bigint.Int) error) {
		if *exp != "all" && *exp != name {
			return
		}
		fmt.Printf("==================== %s ====================\n", name)
		if err := fn(a, b); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println()
	}

	run("table1", table1)
	run("table2", table2)
	run("figure1", figure1)
	run("figure2", figure2)
	run("figure3", figure3)
	run("headline", headline)
	run("memory", memoryExp)
	run("ablation", ablation)
	run("softfault", softFault)
	run("scaling", scaling)
	run("stragglers", stragglers)
	run("phases", phases)
	run("crossover", crossover)
}

// crossover compares parallel schoolbook (Θ(n²/P) arithmetic, the other
// algorithm of De Stefani's analysis) against Parallel Toom-Cook across
// operand sizes: the fast algorithm's advantage must grow like n^{2-ω}.
func crossover(_, _ bigint.Int) error {
	rng := rand.New(rand.NewSource(13))
	alg := toom.MustNew(2)
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "n(bits)\tschoolbook F\tToom-2 F\tratio\tschoolbook BW\tToom-2 BW")
	for _, bits := range []int{1 << 12, 1 << 14, 1 << 16} {
		a := bigint.Random(rng, bits)
		b := bigint.Random(rng, bits)
		sb, err := parallel.MultiplySchoolbook(a, b, parallel.SchoolbookOptions{P: 9, Machine: mcfg(machine.Config{})})
		if err != nil {
			return err
		}
		tc, err := parallel.Multiply(a, b, parallel.Options{Alg: alg, P: 9, Machine: mcfg(machine.Config{})})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%d\t%d\t%d\t%.2f\t%d\t%d\n", bits,
			sb.Report.F, tc.Report.F,
			float64(sb.Report.F)/float64(tc.Report.F),
			sb.Report.BW, tc.Report.BW)
	}
	w.Flush()
	fmt.Println("expected: the F ratio grows ≈ n^{2-log2(3)} = n^0.415 — why Toom-Cook wins at scale")
	return nil
}

// phases prints the per-stage cost anatomy of one Parallel Toom-Cook run:
// each BFS level's evaluation (local work + downward exchange),
// multiplication (the nested sub-tree) and interpolation (upward exchange +
// fold), from processor 0's mark trace.
func phases(a, b bigint.Int) error {
	alg := toom.MustNew(2)
	res, err := parallel.Multiply(a, b, parallel.Options{Alg: alg, P: 27, Machine: mcfg(machine.Config{})})
	if err != nil {
		return err
	}
	marks := res.Report.Marks[0]
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "stage\tΔF\tΔBW(sent)\tΔL\tΔtime")
	var prev machine.MarkRecord
	for _, mk := range marks {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%.0f\n", mk.Label,
			mk.Flops-prev.Flops, mk.SentWords-prev.SentWords,
			mk.Messages-prev.Messages, mk.Clock-prev.Clock)
		prev = mk
	}
	w.Flush()
	fmt.Println("(mul@i spans the entire nested sub-tree below level i;")
	fmt.Println(" the geometric growth of eval/interp deltas toward deeper levels")
	fmt.Println(" is the Σ (n/P)((2k-1)/k)^i series of Theorem 5.1's proof)")
	return nil
}

// stragglers demonstrates delay-fault mitigation (the paper's third fault
// category): a 100× slower column is simply not waited for — the redundant
// evaluation-point column stands in, exactly as it does for a dead column.
func stragglers(a, b bigint.Int) error {
	alg := toom.MustNew(2)
	lay, err := ftparallel.NewLayout(9, 2, 1)
	if err != nil {
		return err
	}
	const factor = 100.0
	slow := make([]float64, lay.Total())
	for i := range slow {
		slow[i] = 1
	}
	slowPlain := make([]float64, 9)
	for i := range slowPlain {
		slowPlain[i] = 1
	}
	for r := 0; r < lay.GPrime; r++ {
		slow[lay.ColumnRank(r, 1)] = factor
		slowPlain[lay.Worker(r, 1)] = factor
	}
	want := alg.Mul(a, b)
	// The wall clock slows a rank in real time only when charges are slept
	// off, and its times then read in model units, as the sim clock's do
	// (the sim clock ignores the dilation).
	const dilation = 10 * time.Nanosecond

	plain, err := parallel.Multiply(a, b, parallel.Options{
		Alg: alg, P: 9, Machine: mcfg(machine.Config{SpeedFactors: slowPlain, WallTimeDilation: dilation}),
	})
	if err != nil {
		return err
	}
	// Slack scales with the operand size: columns evaluate at points of
	// different magnitude, so their (fault-free) completion times spread
	// proportionally to the work.
	slack := 10 * float64(a.BitLen())
	res, err := ftparallel.Multiply(a, b, ftparallel.Options{
		Alg: alg, P: 9, F: 1,
		StragglerSlack: slack,
		Machine:        mcfg(machine.Config{SpeedFactors: slow, WallTimeDilation: dilation}),
	})
	if err != nil {
		return err
	}
	var ready float64
	for rank, s := range res.Report.PerProc {
		if c, ok := res.Layout.ColumnOf(rank); ok && c == 1 {
			continue
		}
		if s.Clock > ready {
			ready = s.Clock
		}
	}
	fmt.Printf("column 1 runs %.0fx slower than the rest (delay fault)\n", factor)
	fmt.Printf("  plain parallel completion time (must wait): %.0f\n", plain.Report.Time)
	fmt.Printf("  coded run, result ready (straggler dropped): %.0f  (%.1fx faster)\n",
		ready, plain.Report.Time/ready)
	fmt.Printf("  dropped columns: %v; product exact: %v\n", res.DeadColumns, res.Product.Equal(want))
	return nil
}

// scaling sweeps operand size and machine size to evidence the (1+o(1))
// overhead claims of Theorem 5.2: the fault-tolerance overheads must not
// grow with n and must shrink with P.
func scaling(_, _ bigint.Int) error {
	rng := rand.New(rand.NewSource(11))
	alg := toom.MustNew(2)
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "n(bits)\tP\tF-ovh\tBW-ovh\tL-ovh")
	for _, cfg := range []struct {
		bits, p int
	}{
		{1 << 14, 9}, {1 << 16, 9}, {1 << 18, 9},
		{1 << 16, 3}, {1 << 16, 27},
	} {
		a := bigint.Random(rng, cfg.bits)
		b := bigint.Random(rng, cfg.bits)
		plain, err := parallel.Multiply(a, b, parallel.Options{Alg: alg, P: cfg.p, Machine: mcfg(machine.Config{})})
		if err != nil {
			return err
		}
		ft, err := ftparallel.Multiply(a, b, ftparallel.Options{Alg: alg, P: cfg.p, F: 1, Machine: mcfg(machine.Config{})})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%d\t%d\t%.4f\t%.3f\t%.3f\n", cfg.bits, cfg.p,
			float64(ft.Report.F)/float64(plain.Report.F),
			float64(ft.Report.BW)/float64(plain.Report.BW),
			float64(ft.Report.L)/float64(plain.Report.L))
	}
	w.Flush()
	fmt.Println("expected shape: F-ovh stays at 1+ε for all n; BW-ovh and L-ovh shrink as P grows")
	return nil
}

// softFault demonstrates the Section 7 adaptation: the redundant evaluation
// points form a Reed-Solomon codeword of the product coefficients, so
// miscalculations (soft faults) are detected (up to f) and corrected with
// localization (up to ⌊f/2⌋) via Berlekamp-Welch.
func softFault(a, b bigint.Int) error {
	c, err := softfault.New(3, 2) // Toom-3 with 2 redundant products
	if err != nil {
		return err
	}
	want := toom.MustNew(3).Mul(a, b)
	corrupt := map[int]bigint.Int{4: bigint.FromInt64(123456789)}
	got, bad, err := c.MulWithSoftFaults(a, b, corrupt)
	if err != nil {
		return err
	}
	fmt.Printf("Toom-3 with f=2 redundant products; product 4 silently corrupted by a miscalculating processor\n")
	fmt.Printf("  Berlekamp-Welch localized the corruption at products %v\n", bad)
	fmt.Printf("  corrected product exact: %v\n", got.Equal(want))

	c1, err := softfault.New(3, 1)
	if err != nil {
		return err
	}
	vals := make([]bigint.Int, 2*3-1+1)
	shift := (a.BitLen() + 2) / 3
	da := []bigint.Int{a.Extract(0, shift), a.Extract(shift, shift), a.Extract(2*shift, shift)}
	db := []bigint.Int{b.Extract(0, shift), b.Extract(shift, shift), b.Extract(2*shift, shift)}
	copy(vals, c1.Products(da, db))
	vals[0] = vals[0].Add(bigint.One())
	ok, err := c1.Verify(vals)
	if err != nil {
		return err
	}
	fmt.Printf("with f=1 (detection only): single corrupted product detected: %v\n", !ok)
	return nil
}

type row struct {
	name            string
	f, bw, l        int64
	time            float64
	extraProcs      int
	faultsTolerated int
	fRatio, bwRatio float64
	lRatio          float64
	correct         bool
}

func printRows(rows []row) {
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "algorithm\tF\tBW\tL\ttime\tF-ovh\tBW-ovh\tL-ovh\textra-procs\tf\tok")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%.0f\t%.3f\t%.3f\t%.3f\t%d\t%d\t%v\n",
			r.name, r.f, r.bw, r.l, r.time, r.fRatio, r.bwRatio, r.lRatio,
			r.extraProcs, r.faultsTolerated, r.correct)
	}
	w.Flush()
}

// tableRows runs the three algorithms of Tables 1/2 for one configuration.
func tableRows(a, b bigint.Int, k, p, f, dfs int) ([]row, error) {
	alg, err := toom.New(k)
	if err != nil {
		return nil, err
	}
	want := alg.Mul(a, b)

	plain, err := parallel.Multiply(a, b, parallel.Options{Alg: alg, P: p, DFSSteps: dfs, Machine: mcfg(machine.Config{})})
	if err != nil {
		return nil, err
	}
	repl, err := ftparallel.MultiplyReplicated(a, b, ftparallel.ReplicationOptions{Alg: alg, P: p, F: f, DFSSteps: dfs, Machine: mcfg(machine.Config{})})
	if err != nil {
		return nil, err
	}
	ft, err := ftparallel.Multiply(a, b, ftparallel.Options{Alg: alg, P: p, F: f, DFSSteps: dfs, Machine: mcfg(machine.Config{})})
	if err != nil {
		return nil, err
	}

	base := plain.Report
	mk := func(name string, rep *machine.Report, extra, fTol int, ok bool) row {
		return row{
			name: name, f: rep.F, bw: rep.BW, l: rep.L, time: rep.Time,
			fRatio:     float64(rep.F) / float64(base.F),
			bwRatio:    float64(rep.BW) / float64(base.BW),
			lRatio:     float64(rep.L) / float64(base.L),
			extraProcs: extra, faultsTolerated: fTol, correct: ok,
		}
	}
	return []row{
		mk("Parallel Toom-Cook", plain.Report, 0, 0, plain.Product.Equal(want)),
		mk("Toom-Cook w/ Replication", repl.Report, f*p, f, repl.Product.Equal(want)),
		mk("Fault-Tolerant Toom-Cook", ft.Report, ft.Layout.ExtraProcessors(), f, ft.Product.Equal(want)),
	}, nil
}

func table1(a, b bigint.Int) error {
	fmt.Println("Table 1: unlimited memory (M = Ω(n/P^{log_{2k-1}k})); overheads relative to Parallel Toom-Cook")
	for _, cfg := range []struct{ k, p, f int }{
		{2, 9, 1}, {2, 9, 2}, {2, 27, 1}, {3, 25, 1},
	} {
		fmt.Printf("\n-- k=%d (Toom-Cook-%d), P=%d, f=%d, paper predicts: repl extra=f·P=%d, FT extra≈f·(2k-1)=%d\n",
			cfg.k, cfg.k, cfg.p, cfg.f, cfg.f*cfg.p, cfg.f*(2*cfg.k-1))
		rows, err := tableRows(a, b, cfg.k, cfg.p, cfg.f, 0)
		if err != nil {
			return err
		}
		printRows(rows)
	}
	return nil
}

func table2(a, b bigint.Int) error {
	fmt.Println("Table 2: limited memory — DFS steps inserted per Lemma 3.1")
	for _, cfg := range []struct{ k, p, f, dfs int }{
		{2, 9, 1, 1}, {2, 9, 1, 2}, {2, 27, 1, 1},
	} {
		fmt.Printf("\n-- k=%d, P=%d, f=%d, l_DFS=%d\n", cfg.k, cfg.p, cfg.f, cfg.dfs)
		rows, err := tableRows(a, b, cfg.k, cfg.p, cfg.f, cfg.dfs)
		if err != nil {
			return err
		}
		printRows(rows)
	}
	return nil
}

func figure1(a, b bigint.Int) error {
	lay, err := ftparallel.NewLayout(9, 2, 2)
	if err != nil {
		return err
	}
	fmt.Print(lay.RenderLinear())

	// Code-invariant demonstration (Section 4.1, Correctness): encode a
	// column, apply the same linear evaluation to data and codewords — the
	// code is preserved; multiply pointwise — it is not.
	fmt.Println("\ncode-invariant check (η-weighted column sums):")
	rng := rand.New(rand.NewSource(7))
	code, err := erasure.New(3, 1)
	if err != nil {
		return err
	}
	column := make([][]bigint.Int, 3)
	for r := range column {
		column[r] = []bigint.Int{bigint.Random(rng, 128), bigint.Random(rng, 128)}
	}
	cw, err := code.Encode(column)
	if err != nil {
		return err
	}
	alg := toom.MustNew(2)
	evalRow := alg.U()[1] // evaluation at x=1: digit0 + digit1
	lin := func(v []bigint.Int) []bigint.Int {
		out := bigint.Zero()
		for m, c := range evalRow {
			out = out.Add(v[m].MulInt64(c))
		}
		return []bigint.Int{out}
	}
	evd := make([][]bigint.Int, 3)
	for r := range column {
		evd[r] = lin(column[r])
	}
	wantCw, err := code.Encode(evd)
	if err != nil {
		return err
	}
	gotCw := lin(cw[0])
	fmt.Printf("  after evaluation: code processor value == encode(evaluated column)? %v\n",
		gotCw[0].Equal(wantCw[0][0]))
	// Multiplication breaks it: square each value.
	sq := make([][]bigint.Int, 3)
	for r := range evd {
		sq[r] = []bigint.Int{evd[r][0].Mul(evd[r][0])}
	}
	wantSq, err := code.Encode(sq)
	if err != nil {
		return err
	}
	gotSq := gotCw[0].Mul(gotCw[0])
	fmt.Printf("  after multiplication: code processor value == encode(squared column)? %v (recomputation would be needed — the cost the polynomial code avoids)\n",
		gotSq.Equal(wantSq[0][0]))
	return nil
}

func figure2(a, b bigint.Int) error {
	lay, err := ftparallel.NewLayout(9, 2, 1)
	if err != nil {
		return err
	}
	fmt.Print(lay.RenderPoly())

	alg := toom.MustNew(2)
	want := alg.Mul(a, b)
	res, err := ftparallel.Multiply(a, b, ftparallel.Options{
		Alg: alg, P: 9, F: 1,
		Faults: []machine.Fault{{Proc: lay.Worker(1, 1), Phase: ftparallel.PhaseMul}},
	})
	if err != nil {
		return err
	}
	fmt.Printf("\nlive run: fault injected in column 1 during multiplication\n")
	fmt.Printf("  dead columns: %v (redundant point column took over)\n", res.DeadColumns)
	fmt.Printf("  product correct: %v; no recomputation performed\n", res.Product.Equal(want))
	return nil
}

func figure3(a, b bigint.Int) error {
	fig, err := ftparallel.RenderMultiStep(27, 2, 2, 1)
	if err != nil {
		return err
	}
	fmt.Print(fig)

	alg, err := multistep.New(2, 2, 2)
	if err != nil {
		return err
	}
	fmt.Printf("\nmulti-step Toom-Cook-2 with l=2, f=2: %d evaluation points (%d needed), in (3,2)-general position: %v\n",
		alg.NumProducts(), alg.Need(), alg.GeneralPosition())
	want := toom.MustNew(2).Mul(a, b)
	ok := true
	for d := 0; d < alg.NumProducts() && ok; d += 2 {
		z, err := alg.MulWithErasures(a, b, []int{d})
		if err != nil {
			return err
		}
		ok = z.Equal(want)
	}
	fmt.Printf("single-product erasures all recovered: %v\n", ok)
	fmt.Printf("processors per fault: l=1: %d, l=2: %d, l=3: %d (P=27, k=2) — the paper's f·P/(2k-1)^l\n",
		multistep.ProcessorsPerFault(27, 2, 1), multistep.ProcessorsPerFault(27, 2, 2), multistep.ProcessorsPerFault(27, 2, 3))
	return nil
}

func headline(a, b bigint.Int) error {
	fmt.Println("Headline: overhead reduction Θ(P/(2k-1)) vs replication (k=2, f=1)")
	fmt.Println("extra-processor accountings: measured = both code sets materialized;")
	fmt.Println("Table-1 = f·(2k-1) (the paper's row, code processors reused across phases);")
	fmt.Println("multi-step = f (Figure 3, l = log_{2k-1}P merged steps)")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "P\trepl-extra\tFT-extra(measured)\tFT-extra(Table-1)\tFT-extra(multi-step)\treduction P/(2k-1)\trepl-totalF/plain\tFT-totalF/plain")
	alg := toom.MustNew(2)
	k, f := 2, 1
	for _, p := range []int{3, 9, 27} {
		plain, err := parallel.Multiply(a, b, parallel.Options{Alg: alg, P: p, Machine: mcfg(machine.Config{})})
		if err != nil {
			return err
		}
		repl, err := ftparallel.MultiplyReplicated(a, b, ftparallel.ReplicationOptions{Alg: alg, P: p, F: f, Machine: mcfg(machine.Config{})})
		if err != nil {
			return err
		}
		ft, err := ftparallel.Multiply(a, b, ftparallel.Options{Alg: alg, P: p, F: f, Machine: mcfg(machine.Config{})})
		if err != nil {
			return err
		}
		// The paper's extra-processor columns (Tables 1–2): replication
		// adds f·P processors, FT Toom-Cook f·(2k−1) (Table 1), or only f
		// with full multi-step traversal (Section 5.2); the headline
		// reduction is their ratio, P/(2k−1).
		fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%d\t%.2f\t%.2f\t%.2f\n",
			p, f*p, ft.Layout.ExtraProcessors(), f*(2*k-1), f,
			float64(p)/float64(2*k-1),
			float64(repl.Report.TotalF)/float64(plain.Report.TotalF),
			float64(ft.Report.TotalF)/float64(plain.Report.TotalF))
	}
	w.Flush()
	return nil
}

func memoryExp(a, b bigint.Int) error {
	fmt.Println("Lemma 3.1: DFS steps required by a memory budget, and measured peak footprint")
	alg := toom.MustNew(2)
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "M(words)\tl_DFS(Lemma 3.1)\tmeasured peak(words)\tBW\tL")
	nWords := int64(a.BitLen()/64 + 1)
	for _, m := range []int64{0, 256, 64, 16} {
		l := parallel.DFSStepsFor(nWords, 2, 9, m)
		res, err := parallel.Multiply(a, b, parallel.Options{Alg: alg, P: 9, DFSSteps: l, TrackMemory: true, Machine: mcfg(machine.Config{})})
		if err != nil {
			return err
		}
		var peak int64
		for _, s := range res.Report.PerProc {
			if s.PeakWords > peak {
				peak = s.PeakWords
			}
		}
		label := fmt.Sprint(m)
		if m == 0 {
			label = "unlimited"
		}
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\n", label, l, peak, res.Report.BW, res.Report.L)
	}
	w.Flush()
	return nil
}

func ablation(a, b bigint.Int) error {
	fmt.Println("Ablations (sequential, word-operation counts)")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "variant\tWordOps\tBaseMuls\tcorrect")
	want := a.Mul(b)

	for _, k := range []int{2, 3, 4} {
		dense := toom.MustNew(k)
		var sd toom.Stats
		rd := dense.MulWithStats(a, b, &sd)
		fmt.Fprintf(w, "Toom-%d dense W^T\t%d\t%d\t%v\n", k, sd.WordOps, sd.BaseMuls, rd.Equal(want))

		if k >= 3 {
			noReuse := dense.WithoutEvalReuse()
			var sn toom.Stats
			rn := noReuse.MulWithStats(a, b, &sn)
			fmt.Fprintf(w, "Toom-%d no eval reuse (Zanoni off)\t%d\t%d\t%v\n", k, sn.WordOps, sn.BaseMuls, rn.Equal(want))
		}

		if seq := toomgraph.ForK(k); seq != nil {
			sched := dense.WithInterpolationSequence(seq)
			var ss toom.Stats
			rs := sched.MulWithStats(a, b, &ss)
			fmt.Fprintf(w, "Toom-%d Toom-Graph schedule\t%d\t%d\t%v\n", k, ss.WordOps, ss.BaseMuls, rs.Equal(want))
		}

		var sl toom.Stats
		rl, err := dense.MulLazyWithStats(a, b, 3, &sl)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "Toom-%d lazy interpolation (l=3)\t%d\t%d\t%v\n", k, sl.WordOps, sl.BaseMuls, rl.Equal(want))
	}
	w.Flush()

	fmt.Println("\nToom-Graph search (Definition 2.3) on Karatsuba's evaluation matrix:")
	e := [][]int64{{1, 0, 0}, {1, 1, 1}, {0, 0, 1}}
	seq, err := toomgraph.Find(e, toomgraph.DefaultOptions())
	if err != nil {
		return err
	}
	fmt.Printf("found schedule (cost %.2f):\n%s\n", seq.Cost(), seq)
	return nil
}
