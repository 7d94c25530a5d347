// Quickstart: multiply two long integers three ways — sequentially,
// on a simulated 9-processor cluster, and fault-tolerantly with a processor
// dying mid-multiplication.
package main

import (
	"fmt"
	"log"
	"math/big"
	"math/rand"

	"repro"
)

func main() {
	rng := rand.New(rand.NewSource(42))
	lim := new(big.Int).Lsh(big.NewInt(1), 1<<14) // 16384-bit operands
	a := new(big.Int).Rand(rng, lim)
	b := new(big.Int).Rand(rng, lim)

	// 1. Sequential, on the kernel ladder — a drop-in multiplier.
	product := ftmul.Mul(a, b)
	fmt.Printf("sequential ladder:  %d-bit product\n", product.BitLen())

	// 2. Parallel Toom-Cook on a simulated 9-processor machine (Karatsuba
	//    grid: P must be a power of 2k-1).
	cluster := ftmul.ClusterConfig{P: 9}
	par, report, err := ftmul.MulParallel(a, b, 2, cluster)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("parallel (P=9):     correct=%v  F=%d  BW=%d words  L=%d messages\n",
		par.Cmp(product) == 0, report.F, report.BW, report.L)

	// 3. Fault-tolerant: processor 4 dies during the multiplication phase
	//    and loses all its data. The redundant evaluation point column
	//    takes over — no recomputation, answer still exact.
	ft, ftReport, err := ftmul.MulFaultTolerant(a, b, 2, 1, cluster,
		[]ftmul.Fault{{Proc: 4, Phase: ftmul.PhaseMul}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fault-tolerant:     correct=%v  dead columns=%v  code processors=%d\n",
		ft.Cmp(product) == 0, ftReport.DeadColumns, ftReport.CodeProcessors)
	fmt.Printf("FT overhead vs plain: F ×%.3f, BW ×%.3f\n",
		float64(ftReport.F)/float64(report.F), float64(ftReport.BW)/float64(report.BW))
}
