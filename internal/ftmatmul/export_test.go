package ftmatmul

import "repro/internal/bigint"

// Test hooks for the external test package: the tile kernels and their
// Int-based reference versions (ref_test.go). Each returns its result and
// the work the cost model charges for it.

func TileMul(m int, a, b []bigint.Int) ([]bigint.Int, int64)    { return tileMul(m, a, b) }
func RefTileMul(m int, a, b []bigint.Int) ([]bigint.Int, int64) { return refTileMul(m, a, b) }

// ComboEval forms Σ signs[t]·tiles[t] (at most eight tiles, signs ±1) as a
// Strassen operand; RefComboEval is its reference.
func ComboEval(n int, tiles [][]bigint.Int, signs []int) ([]bigint.Int, int64) {
	terms, have := comboArgs(tiles, signs)
	return comboEval(n, terms, have)
}

func RefComboEval(n int, tiles [][]bigint.Int, signs []int) ([]bigint.Int, int64) {
	terms, have := comboArgs(tiles, signs)
	return refComboEval(n, terms, have)
}

func comboArgs(tiles [][]bigint.Int, signs []int) ([]term, *[numTiles][]bigint.Int) {
	var have [numTiles][]bigint.Int
	terms := make([]term, len(tiles))
	for t, vals := range tiles {
		have[t] = vals
		terms[t] = term{tile: t, sign: signs[t]}
	}
	return terms, &have
}
