package dispatch

import "encoding/json"

// The dispatcher's write-ahead log is a vfs.Journal: an append-only
// JSONL file, one record per line, fsynced per append. Two record kinds
// exist:
//
//   - op=sweep: a whole accepted sweep — name, engine tag, and every
//     shard's durable identity (name, run ID, content address, canonical
//     spec). Written once, before any shard is dispatched.
//   - op=shard: one shard's terminal transition (completed or failed).
//     Non-terminal states (queued, leased, executing) are deliberately
//     not journaled: leases are ephemeral by design, so on restart every
//     non-terminal shard reverts to queued and is re-dispatched — the
//     idempotent re-dispatch path makes that safe.
//
// Replay tolerates a torn tail (a crash mid-append leaves at most one
// partial line, which is ignored), and startup compacts the log by
// folding terminal states into each sweep record and atomically
// rewriting the file.
//
// Compaction also bumps a generation counter (op=gen). Lease epochs of
// requeued shards start at the generation's base instead of zero, so a
// lease token granted before a crash can never collide with one granted
// after the restart — without it, a pre-crash holder's stale failure
// verdict could be mistaken for the new holder's and fail a shard that
// the new holder would have completed.

// walSweep is the op=sweep record.
type walSweep struct {
	Op     string     `json:"op"`
	ID     string     `json:"id"`
	Name   string     `json:"name"`
	Engine string     `json:"engine"`
	Shards []shardDoc `json:"shards"`
}

// walGen is the op=gen record: how many times this journal has been
// replayed. Written by compaction at every startup.
type walGen struct {
	Op  string `json:"op"`
	Gen int    `json:"gen"`
}

// shardDoc is one shard's durable identity. The State/Cached/Err fields
// are written only by compaction, folding the shard's terminal
// transition into the sweep record it belongs to.
type shardDoc struct {
	Name   string          `json:"name"`
	RunID  string          `json:"runId"`
	Key    string          `json:"key"`
	Spec   json.RawMessage `json:"spec"`
	State  string          `json:"state,omitempty"`
	Cached bool            `json:"cached,omitempty"`
	Err    string          `json:"error,omitempty"`
}

// walShard is the op=shard record: one terminal transition.
type walShard struct {
	Op     string `json:"op"`
	Sweep  string `json:"sweep"`
	Index  int    `json:"index"`
	State  string `json:"state"`
	Cached bool   `json:"cached,omitempty"`
	Err    string `json:"error,omitempty"`
}
