package obs

import (
	"sync"
	"time"
)

// Recorder is the flight recorder of one run: one fixed-capacity event
// buffer under a mutex. When full it drops the oldest events (a flight
// recorder keeps the end of the story, not the beginning) and counts
// what it dropped.
//
// Every event goes through the one buffer: the coordinator-side ones
// (block, stage and cell spans, rescues, collapses, panics) on lane 0,
// and each searcher's own (incumbents, stops, engine donations, and its
// closing lane_end) on the lane Probe.Attach handed it. None is per cut
// — the searchers count prunes and bound cutoffs in core.Stats and
// report the totals once, in lane_end — so a traced serial selection
// records tens of events (an engine run adds one per donation) and one
// lock for all of them is
// cheap. Timestamps are taken under the lock, so the buffer is in time
// order.
type Recorder struct {
	epoch time.Time

	mu   sync.Mutex
	buf  []Event
	mask uint64
	// n is the count of events ever emitted; buf[n&mask] is the next
	// write slot, so once n exceeds len(buf) the buffer holds the newest
	// len(buf) events and n-len(buf) have been dropped.
	n uint64
	// lanes is the last lane id handed out (lane 0 is the coordinator's).
	lanes int32
}

// DefaultRingCap is the event capacity used when NewRecorder is given a
// non-positive capacity: 64k events ≈ 4.5 MiB.
const DefaultRingCap = 1 << 16

// NewRecorder creates a recorder whose buffer holds capacity events
// (rounded up to a power of two; DefaultRingCap if <= 0).
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultRingCap
	}
	c := 1
	for c < capacity {
		c <<= 1
	}
	return &Recorder{epoch: time.Now(), buf: make([]Event, c), mask: uint64(c - 1)}
}

// newLane hands out the next searcher lane id (1, 2, ...).
func (rec *Recorder) newLane() int32 {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	rec.lanes++
	return rec.lanes
}

// emit appends an event, overwriting the oldest when the buffer is full.
// Safe from any goroutine.
func (rec *Recorder) emit(lane int32, span int64, k Kind, tag string, a, b, c int64) {
	rec.mu.Lock()
	rec.buf[rec.n&rec.mask] = Event{T: int64(time.Since(rec.epoch)), Lane: lane, Kind: k,
		Span: span, A: a, B: b, C: c, Tag: tag}
	rec.n++
	rec.mu.Unlock()
}

// Dropped returns how many events were overwritten before being read.
func (rec *Recorder) Dropped() uint64 {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if rec.n <= uint64(len(rec.buf)) {
		return 0
	}
	return rec.n - uint64(len(rec.buf))
}

// Merge returns the recorded events in emission (= time) order. Call
// after the searches being observed have completed.
func (rec *Recorder) Merge() []Event {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	n := min(rec.n, uint64(len(rec.buf)))
	out := make([]Event, 0, n)
	for i := rec.n - n; i < rec.n; i++ {
		out = append(out, rec.buf[i&rec.mask])
	}
	return out
}
