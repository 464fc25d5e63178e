package runner

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
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

// journal is a crash-safe JSONL checkpoint of completed runs. Every
// append rewrites the file through a write-fsync-rename cycle, so the
// journal on disk is always a complete, parseable prefix of the batch —
// a crash or kill between records loses at most the record in flight,
// never corrupts what was already checkpointed. Sweeps are tens to
// hundreds of records, so the O(n²) rewrite cost is noise next to a
// single simulation run.
type journal struct {
	path    string
	records []journalRecord
	byID    map[string]int // index into records
}

// openJournal loads (or initializes) the journal at path. A missing file
// is an empty journal; a torn trailing line — possible only if a crash
// beat the rename — is tolerated and dropped.
func openJournal(path string) (*journal, error) {
	j := &journal{path: path, byID: make(map[string]int)}
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return j, nil
		}
		return nil, fmt.Errorf("runner: open journal: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var rec journalRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil || rec.ID == "" {
			// Torn or foreign line: ignore it rather than abandoning the
			// valid prefix. The affected run simply re-executes.
			continue
		}
		if _, dup := j.byID[rec.ID]; dup {
			continue
		}
		j.byID[rec.ID] = len(j.records)
		j.records = append(j.records, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("runner: read journal: %w", err)
	}
	return j, nil
}

// lookup returns the checkpointed result for a run ID.
func (j *journal) lookup(id string) (journalRecord, bool) {
	if i, ok := j.byID[id]; ok {
		return j.records[i], true
	}
	return journalRecord{}, false
}

// len reports the number of checkpointed runs.
func (j *journal) len() int { return len(j.records) }

// append checkpoints one completed run: marshal, then publish the whole
// journal through vfs's write-fsync-rename cycle. After append returns
// nil, the record survives a crash at any instant. A write failure
// surfaces as a typed *vfs.WriteError (counted on
// fcdpm_io_write_failures_total) and leaves the record in memory, so
// the next successful append re-publishes it — a transient disk fault
// costs durability only until the next checkpoint lands.
func (j *journal) append(rec journalRecord) error {
	if _, dup := j.byID[rec.ID]; dup {
		return nil
	}
	j.byID[rec.ID] = len(j.records)
	j.records = append(j.records, rec)

	var buf bytes.Buffer
	for _, r := range j.records {
		b, err := json.Marshal(r)
		if err != nil {
			return fmt.Errorf("runner: journal marshal %s: %w", r.ID, err)
		}
		buf.Write(b)
		buf.WriteByte('\n')
	}
	if err := vfs.Default.WriteFileAtomic(j.path, buf.Bytes()); err != nil {
		return fmt.Errorf("runner: journal write: %w", err)
	}
	return nil
}

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
