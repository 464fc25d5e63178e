package vfs

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// rec stands in for a journal's record type.
type rec struct {
	Op string `json:"op"`
	N  int    `json:"n"`
}

func journalPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "journal.jsonl")
}

func TestWALAppendReopen(t *testing.T) {
	path := journalPath(t)
	j, recs, err := OpenJournal(Default, path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh journal replayed %d records", len(recs))
	}
	if err := j.Append(rec{Op: "sweep", N: 1}); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(rec{Op: "shard", N: 2}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, recs, err := OpenJournal(Default, path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(recs) != 2 {
		t.Fatalf("replayed %d records, want 2", len(recs))
	}
	for i, want := range []rec{{Op: "sweep", N: 1}, {Op: "shard", N: 2}} {
		var got rec
		if err := json.Unmarshal(recs[i], &got); err != nil || got != want {
			t.Fatalf("record %d = %s (err %v), want %+v", i, recs[i], err, want)
		}
	}
}

// A torn tail — the record being written when the process died — must
// not poison the journal: replay stops at the tear, and appends resume.
func TestWALTornTail(t *testing.T) {
	path := journalPath(t)
	j, _, err := OpenJournal(Default, path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(rec{Op: "sweep", N: 1}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"op":"shard","n":`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j2, recs, err := OpenJournal(Default, path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("replayed %d records past a torn tail, want 1", len(recs))
	}
	if err := j2.Append(rec{Op: "shard", N: 0}); err != nil {
		t.Fatal(err)
	}
	j2.Close()

	// The post-tear append first truncates the torn bytes (the repair
	// step), so it lands whole: replay sees both the original record and
	// the new one. Without the repair, the tear would fuse with the new
	// line into one unparseable record and take it down too.
	j3, recs, err := OpenJournal(Default, path)
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	if len(recs) != 2 {
		t.Fatalf("replayed %d records after repaired append, want 2", len(recs))
	}
	if err := j3.Compact([]any{rec{Op: "sweep", N: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := j3.Append(rec{Op: "shard", N: 0}); err != nil {
		t.Fatal(err)
	}
	j3.Close()
	_, recs, err = OpenJournal(Default, path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("after compaction replayed %d records, want 2", len(recs))
	}
}

func TestWALCompact(t *testing.T) {
	path := journalPath(t)
	j, _, err := OpenJournal(Default, path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := j.Append(rec{Op: "shard", N: i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Compact([]any{rec{Op: "sweep"}}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	_, recs, err := OpenJournal(Default, path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("compacted journal replayed %d records, want 1", len(recs))
	}
}

// fullDiskFS fails every atomic publication while full is set.
type fullDiskFS struct {
	FS
	full bool
}

func (f *fullDiskFS) WriteFileAtomic(path string, data []byte) error {
	if f.full {
		return &WriteError{Op: "write-atomic", Path: path, Err: ErrDiskFull}
	}
	return f.FS.WriteFileAtomic(path, data)
}

// TestWALCompactFailureKeepsJournal: when the compaction rewrite fails
// (disk full at startup), the original journal must stay intact and the
// handle must keep appending to it — compaction failure degrades to a
// bigger file, never a dead journal.
func TestWALCompactFailureKeepsJournal(t *testing.T) {
	path := journalPath(t)
	fs := &fullDiskFS{FS: Default}
	j, _, err := OpenJournal(fs, path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(rec{Op: "gen", N: 1}); err != nil {
		t.Fatal(err)
	}

	fs.full = true // the atomic rewrite will fail
	if err := j.Compact([]any{rec{Op: "gen", N: 2}}); err == nil {
		t.Fatal("compact succeeded with a full disk")
	}
	fs.full = false

	// The handle survived: append and reopen recover everything.
	if err := j.Append(rec{Op: "gen", N: 3}); err != nil {
		t.Fatalf("append after failed compact: %v", err)
	}
	j.Close()
	_, records, err := OpenJournal(fs, path)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 2 {
		t.Fatalf("replayed %d records, want 2 (original + post-compact append)", len(records))
	}
}
