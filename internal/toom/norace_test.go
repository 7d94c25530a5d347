//go:build !race

package toom_test

const raceEnabled = false
