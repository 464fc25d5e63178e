package dispatch

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"fcdpm/internal/version"
	"fcdpm/internal/vfs"
)

// FuzzWALReplay feeds arbitrary bytes to the journal reader and the
// full dispatcher replay path. The contract under any corruption —
// torn tails, interleaved garbage, binary noise — is: never panic,
// either start cleanly or reject with an error, and keep the journal
// appendable afterwards (the torn-tail repair must make the next
// append land on a parseable boundary).
func FuzzWALReplay(f *testing.F) {
	sweepLine := func() []byte {
		b, _ := json.Marshal(walSweep{Op: "sweep", ID: "swp-000001", Name: "s",
			Engine: version.Engine(), Shards: []shardDoc{{
				Name: "a", RunID: ShardRunID("k"), Key: "k",
				Spec: json.RawMessage(`{"name":"a"}`),
			}}})
		return append(b, '\n')
	}
	shardLine := []byte(`{"op":"shard","sweep":"swp-000001","index":0,"state":"failed","error":"x"}` + "\n")
	genLine := []byte(`{"op":"gen","gen":3}` + "\n")

	f.Add([]byte{})
	f.Add(sweepLine())
	f.Add(append(sweepLine(), shardLine...))
	f.Add(append(append(genLine, sweepLine()...), []byte(`{"op":"sh`)...)) // torn tail
	f.Add([]byte("\x00\xff\xfe garbage\n{not json}\n"))
	f.Add([]byte(`{"op":"sweep","id":"swp-000001","engine":"other-engine","shards":[]}` + "\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "dispatch.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}

		// Layer 1: the reader. Every record it accepts must be valid JSON,
		// and the handle must keep working: one append, one reopen, and
		// the appended record is the recovered tail.
		w, records, err := vfs.OpenJournal(vfs.Default, path)
		if err != nil {
			t.Skip("unreadable journal is a clean rejection")
		}
		for i, rec := range records {
			if !json.Valid(rec) {
				t.Fatalf("record %d replayed as invalid JSON: %q", i, rec)
			}
		}
		if err := w.Append(walGen{Op: "gen", Gen: 99}); err != nil {
			t.Fatalf("append after replay: %v", err)
		}
		w.Close()
		w2, records2, err := vfs.OpenJournal(vfs.Default, path)
		if err != nil {
			t.Fatalf("reopen after append: %v", err)
		}
		w2.Close()
		if len(records2) != len(records)+1 {
			t.Fatalf("reopen recovered %d records, want %d (append must land on a clean boundary)",
				len(records2), len(records)+1)
		}

		// Layer 2: the dispatcher. Reset to the fuzz bytes and replay for
		// real — either a working dispatcher or a clean error.
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		d, err := New(Options{StateDir: dir})
		if err == nil {
			d.Close()
		}
	})
}
