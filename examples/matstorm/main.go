// Matstorm subjects the fault-tolerant matrix multiplication to a storm of
// random fail-stop faults: in every round a random processor among the 15
// (8 standard block products + Strassen's 7) dies at a random phase, and
// the exact product must still come out — decoded from whichever of the two
// algorithms survived, with no replication and no recomputation. Every
// result is verified element-wise against the naive O(n³) product computed
// directly with math/big.
package main

import (
	"fmt"
	"log"
	"math/big"
	"math/rand"
	"os"
	"text/tabwriter"

	"repro"
)

const (
	n      = 12 // matrix dimension
	bits   = 96 // entry size
	rounds = 10 // fault rounds
	procs  = 15 // ranks of the two-algorithms scheme
)

func randMatrix(rng *rand.Rand, n int, lim *big.Int) [][]*big.Int {
	m := make([][]*big.Int, n)
	for i := range m {
		m[i] = make([]*big.Int, n)
		for j := range m[i] {
			v := new(big.Int).Rand(rng, lim)
			if rng.Intn(2) == 0 {
				v.Neg(v)
			}
			m[i][j] = v
		}
	}
	return m
}

// naiveMul is the O(n³) oracle, straight math/big.
func naiveMul(a, b [][]*big.Int) [][]*big.Int {
	out := make([][]*big.Int, len(a))
	for i := range out {
		out[i] = make([]*big.Int, len(b[0]))
		for j := range out[i] {
			acc := new(big.Int)
			for k := range b {
				acc.Add(acc, new(big.Int).Mul(a[i][k], b[k][j]))
			}
			out[i][j] = acc
		}
	}
	return out
}

func equalMatrix(a, b [][]*big.Int) bool {
	for i := range a {
		for j := range a[i] {
			if a[i][j].Cmp(b[i][j]) != 0 {
				return false
			}
		}
	}
	return true
}

func main() {
	rng := rand.New(rand.NewSource(2024))
	lim := new(big.Int).Lsh(big.NewInt(1), bits)
	a := randMatrix(rng, n, lim)
	b := randMatrix(rng, n, lim)
	want := naiveMul(a, b)

	fmt.Printf("%dx%d matrices, %d-bit entries; %d rounds of random single fail-stop faults\n",
		n, n, bits, rounds)
	fmt.Println("(ranks 0-7: standard block products; ranks 8-14: Strassen's M1-M7;")
	fmt.Println(" an eval-phase victim refetches its tiles from replica partners,")
	fmt.Println(" a mul-phase victim's product is decoded from the other algorithm)")
	fmt.Println()

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "round\tvictim\tphase\tdead ranks\trepaired\tF(crit path)\texact")
	allExact := true
	for round := 0; round < rounds; round++ {
		victim := rng.Intn(procs)
		phase := ftmul.PhaseEval
		if rng.Intn(2) == 0 {
			phase = ftmul.PhaseMul
		}
		got, rep, err := ftmul.MulMatrixFaultTolerant(a, b, ftmul.ClusterConfig{P: procs},
			[]ftmul.Fault{{Proc: victim, Phase: phase}})
		if err != nil {
			log.Fatalf("round %d (victim %d, phase %s): %v", round, victim, phase, err)
		}
		exact := equalMatrix(got, want)
		allExact = allExact && exact
		fmt.Fprintf(w, "%d\t%d\t%s\t%v\t%d\t%d\t%v\n",
			round, victim, phase, rep.DeadRanks, rep.Recovered, rep.F, exact)
	}
	w.Flush()

	if !allExact {
		log.Fatal("a round produced an inexact product")
	}
	fmt.Println("\nevery round decoded the exact product — one processor is never enough to stop it")
}
