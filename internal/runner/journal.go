package runner

import (
	"encoding/json"
	"fmt"
	"strings"

	"fcdpm/internal/vfs"
)

// journalRecord is one completed run, keyed by its deterministic ID. The
// journal holds successes only: failures are worth re-attempting on the
// next invocation, so checkpointing them would turn a transient fault
// into a permanent skip.
type journalRecord struct {
	ID     string          `json:"id"`
	Result json.RawMessage `json:"result"`
}

// journal is the checkpoint of completed runs: an ID index over a
// vfs.Journal, which appends and fsyncs one line per run. A crash or
// kill loses at most the record in flight; replay keeps the records
// before the first torn or unparseable line, and those after it re-run.
type journal struct {
	f    *vfs.Journal
	byID map[string]json.RawMessage // result by run ID
}

// openJournal loads (or initializes) the journal at path. Records
// without an ID are skipped, and the first record per ID wins.
func openJournal(path string) (*journal, error) {
	f, records, err := vfs.OpenJournal(vfs.Default, path)
	if err != nil {
		return nil, fmt.Errorf("runner: open journal: %w", err)
	}
	j := &journal{f: f, byID: make(map[string]json.RawMessage, len(records))}
	for _, raw := range records {
		var rec journalRecord
		if json.Unmarshal(raw, &rec) != nil || rec.ID == "" {
			continue
		}
		if _, dup := j.byID[rec.ID]; !dup {
			j.byID[rec.ID] = rec.Result
		}
	}
	return j, nil
}

// lookup returns the checkpointed result for a run ID.
func (j *journal) lookup(id string) (json.RawMessage, bool) {
	res, ok := j.byID[id]
	return res, ok
}

// append checkpoints one completed run. After append returns nil, the
// record survives a crash at any instant. A write failure surfaces as a
// typed *vfs.WriteError (counted on fcdpm_io_write_failures_total) and
// leaves the run unrecorded, so it re-runs on resume.
func (j *journal) append(rec journalRecord) error {
	if _, dup := j.byID[rec.ID]; dup {
		return nil
	}
	if err := j.f.Append(rec); err != nil {
		return fmt.Errorf("runner: journal write: %w", err)
	}
	j.byID[rec.ID] = rec.Result
	return nil
}

// close releases the journal's append handle.
func (j *journal) close() error { return j.f.Close() }

// RunID builds a deterministic run identifier from key=value-style parts:
// the same logical run always maps to the same journal key across
// invocations, which is what makes resume-by-skip correct. Parts are
// joined with '/'; empty parts are dropped.
func RunID(parts ...string) string {
	kept := parts[:0:0]
	for _, p := range parts {
		if p != "" {
			kept = append(kept, p)
		}
	}
	return strings.Join(kept, "/")
}
