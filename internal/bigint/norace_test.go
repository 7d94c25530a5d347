//go:build !race

package bigint

const raceEnabled = false
