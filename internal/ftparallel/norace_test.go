//go:build !race

package ftparallel

const raceEnabled = false
