package runner

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

func TestJournalRoundTrip(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "j.jsonl")
	j, err := openJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	recs := []journalRecord{
		{ID: "s/a", Result: json.RawMessage(`{"fuel":1.5}`)},
		{ID: "s/b", Result: json.RawMessage(`{"fuel":2.5}`)},
	}
	for _, r := range recs {
		if err := j.append(r); err != nil {
			t.Fatalf("append(%s): %v", r.ID, err)
		}
	}
	if err := j.close(); err != nil {
		t.Fatal(err)
	}
	// Reload from disk: both records and their payloads survive.
	j2, err := openJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.close()
	if len(j2.byID) != 2 {
		t.Fatalf("reloaded %d records, want 2", len(j2.byID))
	}
	got, ok := j2.lookup("s/b")
	if !ok || string(got) != `{"fuel":2.5}` {
		t.Fatalf("lookup(s/b) = %s ok=%v", got, ok)
	}
}

func TestJournalAppendIsIdempotent(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "j.jsonl")
	j, err := openJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	defer j.close()
	rec := journalRecord{ID: "dup", Result: json.RawMessage(`1`)}
	if err := j.append(rec); err != nil {
		t.Fatal(err)
	}
	if err := j.append(rec); err != nil {
		t.Fatal(err)
	}
	if len(j.byID) != 1 {
		t.Fatalf("%d records after duplicate append, want 1", len(j.byID))
	}
	data, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(data), "\"dup\""); n != 1 {
		t.Fatalf("journal file holds %d copies, want 1", n)
	}
}

func TestJournalMissingFileIsEmpty(t *testing.T) {
	j, err := openJournal(filepath.Join(t.TempDir(), "nope.jsonl"))
	if err != nil {
		t.Fatalf("missing journal should open empty, got %v", err)
	}
	defer j.close()
	if len(j.byID) != 0 {
		t.Fatalf("%d records, want 0", len(j.byID))
	}
}

// TestJournalSkipsForeignAndBlankLines: blank lines and records without
// an ID are skipped and the first record per ID wins, but an unparseable
// line ends the replay: it is a torn tail, nothing after it was
// acknowledged, and the runs it would have restored re-run.
func TestJournalSkipsForeignAndBlankLines(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "j.jsonl")
	content := strings.Join([]string{
		`{"id":"ok","scenario":"s","attempts":1,"result":3}`,
		``,
		`{"no_id_field":true}`,
		`{"id":"ok","attempts":9,"result":99}`, // duplicate: first wins
		`{"id":"ok2","attempts":1,"result":4}`,
		`not json at all`,
		`{"id":"after","result":5}`,
	}, "\n") + "\n"
	if err := os.WriteFile(jpath, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := openJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	defer j.close()
	if len(j.byID) != 2 {
		t.Fatalf("%d records, want 2 (ok, ok2)", len(j.byID))
	}
	// Lines written before records dropped their "attempts" and
	// "scenario" keys still load.
	if res, _ := j.lookup("ok"); string(res) != "3" {
		t.Errorf("duplicate ID resolved to result %s, want first record kept", res)
	}
	if _, ok := j.lookup("after"); ok {
		t.Error("a record past an unparseable line was restored")
	}
}

func TestJournalLeavesNoTempFiles(t *testing.T) {
	dir := t.TempDir()
	j, err := openJournal(filepath.Join(dir, "j.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer j.close()
	for i := 0; i < 5; i++ {
		if err := j.append(journalRecord{ID: RunID("t", string(rune('a'+i))), Result: json.RawMessage(`0`)}); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "j.jsonl" {
		names := make([]string, 0, len(entries))
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("directory holds %v, want only j.jsonl (temp files cleaned up)", names)
	}
}

// TestJournalAppendsInPlace: N checkpoints append N lines to the one
// file the pool opened; no checkpoint rewrites the journal into a new
// file.
func TestJournalAppendsInPlace(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "j.jsonl")
	const n = 5
	// The file each task found, holding the checkpoints of the tasks
	// before it (the first task may find none).
	var seen []os.FileInfo
	tasks := make([]Task[int], n)
	for i := range tasks {
		tasks[i] = Task[int]{ID: RunID("t", strconv.Itoa(i)), Run: func(context.Context) (int, error) {
			if fi, err := os.Stat(jpath); err == nil {
				seen = append(seen, fi)
			}
			return i, nil
		}}
	}
	rep, err := Run(context.Background(), Options{Workers: 1, Journal: jpath}, tasks)
	if err != nil || rep.Done != n || len(seen) < n-1 {
		t.Fatalf("report %+v err %v, %d tasks found the journal, want %d done", rep, err, len(seen), n)
	}
	final, err := os.Stat(jpath)
	if err != nil {
		t.Fatal(err)
	}
	for i, fi := range seen {
		if !os.SameFile(fi, final) {
			t.Fatalf("a later checkpoint replaced the journal file (view %d of %d)", i+1, len(seen))
		}
	}
	data, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if lines := bytes.Count(data, []byte("\n")); lines != n {
		t.Fatalf("journal holds %d lines after %d checkpoints, want %d", lines, n, n)
	}
}

// TestJournalConcurrentCheckpoints: workers checkpoint concurrently into
// one journal; every finished task lands as one whole line, and a second
// run resumes all of them.
func TestJournalConcurrentCheckpoints(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "j.jsonl")
	const n = 40
	tasks := make([]Task[int], n)
	for i := range tasks {
		tasks[i] = Task[int]{ID: RunID("c", strconv.Itoa(i)), Run: func(context.Context) (int, error) {
			return i * i, nil
		}}
	}
	opts := Options{Workers: 4, Journal: jpath}
	if rep, err := Run(context.Background(), opts, tasks); err != nil || rep.Done != n {
		t.Fatalf("first run: report %+v err %v, want %d done", rep, err, n)
	}
	rep, err := Run(context.Background(), opts, tasks)
	if err != nil || rep.Resumed != n {
		t.Fatalf("second run: report %+v err %v, want %d resumed", rep, err, n)
	}
	for i, o := range rep.Outcomes {
		if o.Result != i*i {
			t.Fatalf("outcome %d resumed as %d, want %d", i, o.Result, i*i)
		}
	}
	data, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if lines := bytes.Count(data, []byte("\n")); lines != n {
		t.Fatalf("journal holds %d lines, want %d", lines, n)
	}
}
