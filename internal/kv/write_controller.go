package kv

import (
	"errors"
	"time"
)

// ErrLogFull reports that the namespace's log region is out of space:
// the stop trigger fired, compaction could not free enough, and the
// write was refused outright.
var ErrLogFull = errors.New("kv: log region full")

// WriteControllerOptions tunes Batch's admission triggers, which
// throttle writers as the log's active half fills, in the classic LSM
// shape: past the slowdown trigger every batch is delayed, past the
// stop trigger writes are refused unless a compaction pass can make
// room. Zero values take the defaults noted on each field.
type WriteControllerOptions struct {
	// SlowdownFrac is the used/capacity fraction past which admissions
	// are delayed. Default 0.85.
	SlowdownFrac float64
	// StopFrac is the fraction past which admissions are refused with
	// ErrLogFull. Default 0.95.
	StopFrac float64
	// SlowdownDelay is the per-batch delay in the slowdown band.
	// Default 1ms; tests set it to a nanosecond to stay fast.
	SlowdownDelay time.Duration
}

// WriteControllerStats is a point-in-time view of admission: the
// triggers and the ladder's scoreboard. Stops stays the aggregate
// refusal count; the per-cause counters split it so "out of space" and
// "media read-only" and "queued behind compaction" are
// distinguishable. Everything variable is omitzero, so a namespace that
// never stalled marshals exactly as it always has.
type WriteControllerStats struct {
	Capacity          uint64 `json:"capacity"`
	SlowdownAt        uint64 `json:"slowdown_at"`
	StopAt            uint64 `json:"stop_at"`
	Slowdowns         uint64 `json:"slowdowns,omitzero"`
	Stops             uint64 `json:"stops,omitzero"`
	CapacityStops     uint64 `json:"capacity_stops,omitzero"`
	ReadOnlyStops     uint64 `json:"readonly_stops,omitzero"`
	BackpressureWaits uint64 `json:"backpressure_waits,omitzero"`
	StallNanos        int64  `json:"stall_nanos,omitzero"`
}
