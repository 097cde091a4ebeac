package core

// CPUPool is a process-wide CPU admission budget shared by every layer
// that fans work out: the Parallel drivers' per-block search goroutines
// (Config.Pool) and the DSE sweep driver's grid tasks (internal/dse)
// draw slots from one pot, so stacking sweep-level on search-level
// parallelism bounds total concurrency instead of multiplying it.
//
// Every holder takes exactly one slot and never blocks on the pool
// again while holding it (no hold-and-wait), which keeps the pool
// deadlock-free by construction.
type CPUPool struct {
	slots chan struct{} // one element per held slot
}

// NewCPUPool returns a pool of the given capacity (at least 1).
func NewCPUPool(slots int) *CPUPool {
	if slots < 1 {
		slots = 1
	}
	return &CPUPool{slots: make(chan struct{}, slots)}
}

// Acquire blocks until a slot is free and takes it.
func (p *CPUPool) Acquire() { p.slots <- struct{}{} }

// Release returns one slot to the pool.
func (p *CPUPool) Release() { <-p.slots }

// Leaked returns the number of slots still held. Only meaningful once
// every acquirer has finished (after the owner's wg.Wait): a positive
// value then means a release was lost — e.g. a panic path that skipped
// its deferred release — and the pool would have throttled forever in a
// long-lived service.
func (p *CPUPool) Leaked() int { return len(p.slots) }
