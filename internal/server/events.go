package server

import (
	"context"
	"sync"
	"time"

	"fcdpm/internal/report"
	"fcdpm/internal/stream"
)

// Event is one NDJSON line of a job's progress stream: submission,
// run starts, replayed simulator audit events, per-cell sweep
// progress, and the final resolution. Seq is a dense 0-based index, so a
// client that reconnects can detect gaps; Ts is wall time.
type Event struct {
	Seq  int    `json:"seq"`
	Ts   string `json:"ts"`
	Kind string `json:"kind"`
	// Job is the owning job ID; Cell names the sweep cell, when any.
	Job  string `json:"job"`
	Cell string `json:"cell,omitempty"`
	// Status is the resolution for "cell" and "resolved" events.
	Status string `json:"status,omitempty"`
	// Cached marks results served from the content-addressed cache.
	Cached bool `json:"cached,omitempty"`
	// T is the simulated time of a replayed audit event, seconds.
	T float64 `json:"t,omitempty"`
	// Detail carries the human-readable remainder.
	Detail string `json:"detail,omitempty"`
}

// eventLog marshals Events onto a stream.Log: writers append, any number
// of readers tail concurrently until the log closes. The mutex keeps Seq
// dense under concurrent appends.
type eventLog struct {
	mu  sync.Mutex
	log *stream.Log
}

func newEventLog() *eventLog {
	return &eventLog{log: stream.NewLog()}
}

// append marshals e (stamping Seq and Ts) and wakes every tailing
// reader. Appends after close are dropped.
func (l *eventLog) append(e Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	e.Seq = l.log.Len()
	e.Ts = time.Now().UTC().Format(time.RFC3339Nano)
	line, err := report.StableJSON(e)
	if err != nil {
		// An Event is always encodable; guard anyway so a future field
		// cannot wedge the stream.
		return
	}
	l.log.Append(line)
}

// close ends the stream: tailing readers drain what is buffered and
// return.
func (l *eventLog) close() { l.log.Close() }

// next returns line i, blocking until it exists, the log closes, or ctx
// is done. The second result is false when no more lines will come.
func (l *eventLog) next(ctx context.Context, i int) ([]byte, bool) {
	return l.log.Next(ctx, i)
}

// snapshot returns the lines buffered so far, for non-blocking reads.
func (l *eventLog) snapshot() [][]byte { return l.log.Snapshot() }
