package runner

import (
	"encoding/json"
	"os"
	"path/filepath"
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
	// Reload from disk: both records and their payloads survive.
	j2, err := openJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if j2.len() != 2 {
		t.Fatalf("reloaded len = %d, want 2", j2.len())
	}
	got, ok := j2.lookup("s/b")
	if !ok || string(got.Result) != `{"fuel":2.5}` {
		t.Fatalf("lookup(s/b) = %+v ok=%v", got, ok)
	}
}

func TestJournalAppendIsIdempotent(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "j.jsonl")
	j, err := openJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	rec := journalRecord{ID: "dup", Result: json.RawMessage(`1`)}
	if err := j.append(rec); err != nil {
		t.Fatal(err)
	}
	if err := j.append(rec); err != nil {
		t.Fatal(err)
	}
	if j.len() != 1 {
		t.Fatalf("len = %d after duplicate append, want 1", j.len())
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
	if j.len() != 0 {
		t.Fatalf("len = %d, want 0", j.len())
	}
}

func TestJournalSkipsForeignAndBlankLines(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "j.jsonl")
	content := strings.Join([]string{
		`{"id":"ok","scenario":"s","attempts":1,"result":3}`,
		``,
		`not json at all`,
		`{"no_id_field":true}`,
		`{"id":"ok","attempts":9,"result":99}`, // duplicate: first wins
		`{"id":"ok2","attempts":1,"result":4}`,
	}, "\n")
	if err := os.WriteFile(jpath, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := openJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if j.len() != 2 {
		t.Fatalf("len = %d, want 2", j.len())
	}
	// Lines written before records dropped their "attempts" and
	// "scenario" keys still load.
	rec, _ := j.lookup("ok")
	if string(rec.Result) != "3" {
		t.Errorf("duplicate ID resolved to result %s, want first record kept", rec.Result)
	}
}

func TestJournalLeavesNoTempFiles(t *testing.T) {
	dir := t.TempDir()
	j, err := openJournal(filepath.Join(dir, "j.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
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
