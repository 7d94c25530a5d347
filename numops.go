package ftmul

import (
	"fmt"
	"math/big"
)

// ModExp computes base^exp mod m (exp ≥ 0, m > 0) by square-and-multiply
// with this library's Mul and Square (the kernel ladder) as the product
// kernel — the cryptographic use the paper's introduction motivates. Reductions use
// math/big's division (division is not this library's subject).
func ModExp(base, exp, m *big.Int) (*big.Int, error) {
	if m.Sign() <= 0 {
		return nil, fmt.Errorf("ftmul: ModExp modulus must be positive")
	}
	if exp.Sign() < 0 {
		return nil, fmt.Errorf("ftmul: ModExp exponent must be non-negative")
	}
	result := big.NewInt(1)
	result.Mod(result, m) // handles m = 1
	b := new(big.Int).Mod(base, m)
	for i := exp.BitLen() - 1; i >= 0; i-- {
		result = new(big.Int).Mod(Square(result), m)
		if exp.Bit(i) == 1 {
			result = new(big.Int).Mod(Mul(result, b), m)
		}
	}
	return result, nil
}

// Sqrt returns ⌊√n⌋ for n ≥ 0, by Newton's integer iteration with this
// library's multiplier as the squaring kernel — one of the elementary
// functions the paper's introduction lists as built on fast multiplication.
func Sqrt(n *big.Int) (*big.Int, error) {
	if n.Sign() < 0 {
		return nil, fmt.Errorf("ftmul: Sqrt of negative number")
	}
	if n.Sign() == 0 {
		return new(big.Int), nil
	}
	// Initial guess: 2^⌈bits/2⌉ ≥ √n.
	x := new(big.Int).Lsh(big.NewInt(1), uint((n.BitLen()+1)/2))
	for {
		// x' = (x + n/x) / 2
		next := new(big.Int).Div(n, x)
		next.Add(next, x)
		next.Rsh(next, 1)
		if next.Cmp(x) >= 0 {
			break
		}
		x = next
	}
	// Verify with our squaring kernel: x² ≤ n < (x+1)².
	if Square(x).Cmp(n) > 0 {
		x.Sub(x, big.NewInt(1))
	}
	return x, nil
}
