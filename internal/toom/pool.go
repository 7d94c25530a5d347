package toom

import "repro/internal/workpool"

// PoolStats reports the shared worker pool's telemetry (MulConcurrent forks
// on workpool.Shared, as the bigint NTT kernels do): the slot capacity, the
// peak number of concurrently live workers, the total workers spawned, and
// how many tasks ran inline on their submitter. Exposed for tests and the
// benchmark harness.
func PoolStats() (capacity int, peak, spawned, inline int64) {
	p := workpool.Shared()
	peak, spawned, inline = p.Stats()
	return p.Capacity(), peak, spawned, inline
}
