// RSA-style cryptographic workload: modular exponentiation built on the
// library's multiplier. Long integer multiplication is the kernel of
// public-key cryptography — the motivating application of the paper's
// introduction — and this example shows the library slotting in as the
// product primitive of square-and-multiply.
//
// The demo "encrypts" and "decrypts" a message with a fixed 2048-bit
// RSA key (textbook RSA, for demonstration only), then re-runs the heavy
// modular products on the simulated fault-tolerant cluster with a fault
// injected, showing identical ciphertext.
package main

import (
	crand "crypto/rand"
	"fmt"
	"log"
	"math/big"

	"repro"
)

// modExp computes base^exp mod m using square-and-multiply with the given
// multiplication kernel.
func modExp(base, exp, m *big.Int, mul func(x, y *big.Int) *big.Int) *big.Int {
	result := big.NewInt(1)
	b := new(big.Int).Mod(base, m)
	for i := exp.BitLen() - 1; i >= 0; i-- {
		result = new(big.Int).Mod(mul(result, result), m)
		if exp.Bit(i) == 1 {
			result = new(big.Int).Mod(mul(result, b), m)
		}
	}
	return result
}

func main() {
	// Generate a demonstration key (1024-bit primes → ~2048-bit modulus).
	e := big.NewInt(65537)
	var p, q, n, d *big.Int
	for {
		var err error
		p, err = crand.Prime(crand.Reader, 1024)
		if err != nil {
			log.Fatal(err)
		}
		q, err = crand.Prime(crand.Reader, 1024)
		if err != nil {
			log.Fatal(err)
		}
		n = new(big.Int).Mul(p, q)
		phi := new(big.Int).Mul(new(big.Int).Sub(p, big.NewInt(1)), new(big.Int).Sub(q, big.NewInt(1)))
		if d = new(big.Int).ModInverse(e, phi); d != nil {
			break
		}
	}

	message := new(big.Int).SetBytes([]byte("fault tolerance with negligible overhead"))
	fmt.Printf("modulus: %d bits\n", n.BitLen())

	// Encrypt with the sequential kernel ladder.
	cipher := modExp(message, e, n, ftmul.Mul)
	fmt.Printf("ciphertext (sequential ladder): …%x\n", cipher.Bytes()[len(cipher.Bytes())-8:])

	// Cross-check against math/big's own modular exponentiation.
	if want := new(big.Int).Exp(message, e, n); cipher.Cmp(want) != 0 {
		log.Fatal("ciphertext mismatch vs math/big")
	}
	plain := modExp(cipher, d, n, ftmul.Mul)
	if plain.Cmp(message) != 0 {
		log.Fatal("round-trip decryption failed")
	}
	fmt.Printf("decrypted: %q\n", plain.Bytes())

	// The same encryption with every big product computed on the simulated
	// fault-tolerant cluster, a processor dying during the very first
	// product's multiplication phase.
	cluster := ftmul.ClusterConfig{P: 9}
	faultsLeft := 1
	ftMul := func(x, y *big.Int) *big.Int {
		var faults []ftmul.Fault
		if faultsLeft > 0 {
			faults = []ftmul.Fault{{Proc: 2, Phase: ftmul.PhaseMul}}
			faultsLeft--
		}
		z, _, err := ftmul.MulFaultTolerant(x, y, 2, 1, cluster, faults)
		if err != nil {
			log.Fatal(err)
		}
		return z
	}
	// e = 65537 = 2^16 + 1 → 17 squarings + 1 multiply on 2048-bit values.
	cipherFT := modExp(message, e, n, ftMul)
	fmt.Printf("ciphertext (fault-tolerant cluster, 1 fault injected): identical=%v\n",
		cipherFT.Cmp(cipher) == 0)
}
