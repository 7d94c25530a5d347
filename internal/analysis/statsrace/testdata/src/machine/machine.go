// Fixture named after the machine, whose per-rank counters are a struct
// named Stats, so this unscoped analyzer governs them by name. Each Proc
// owns its Stats and the machine merges after the join; sharing one across
// the per-processor goroutines is the race this fixture pins.
package machine

type Stats struct {
	Flops     int64
	SentWords int64
}

type Proc struct {
	st *Stats
}

// raceSharedProcStats: two processor goroutines charging one Stats.
func raceSharedProcStats(shared *Stats) {
	for rank := 0; rank < 2; rank++ {
		go func() {
			shared.Flops += 1 // want "non-atomic write to shared Stats counter"
		}()
	}
}

// okPerProc: each goroutine gets its own Proc and Stats; the host reads
// them only after the join.
func okPerProc(out []*Proc) {
	for rank := range out {
		rank := rank
		go func() {
			p := &Proc{st: &Stats{}}
			p.st.Flops += 1
			p.st.SentWords += 3
			out[rank] = p
		}()
	}
}
