//go:build !race

package ftmatmul_test

const raceEnabled = false
