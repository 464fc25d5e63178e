package vfs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
)

// Journal is the repo's one append-only JSONL journal, one record per
// line: the dispatcher's write-ahead log, the runner's checkpoint
// journal and the chaos trial log all append through it. Its contract:
//
//   - Replay (OpenJournal) returns the records up to the first line that
//     is unterminated or not valid JSON. That line is a torn tail from a
//     crash mid-append, and nothing at or past it was ever acknowledged.
//   - Every Append is write + fsync; a nil error means the record is
//     durable.
//   - The next Append after a torn tail or a failed Append first
//     truncates the file back to the durable prefix, so a torn fragment
//     can never fuse with a later record into one unparseable line that
//     would take acknowledged records down with it at replay.
//   - Compact replaces the file atomically; when the rewrite fails the
//     old file stays in use and appends keep landing on it.
//
// A Journal is not safe for concurrent use: the caller serializes
// appends, which also makes journal order its own state order.
type Journal struct {
	fs   FS
	path string
	f    AppendFile
	// good is the byte length of the durable prefix: every record up to
	// good is whole and parseable. dirty marks bytes possibly present
	// beyond it (a torn tail, or part of a failed append's line).
	good  int64
	dirty bool
}

// OpenJournal reads the journal at path and returns its records and an
// open append handle. A missing file is an empty journal.
func OpenJournal(fs FS, path string) (*Journal, []json.RawMessage, error) {
	b, err := fs.ReadFile(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, nil, fmt.Errorf("vfs: journal read: %w", err)
	}
	var records []json.RawMessage
	off := 0
	for off < len(b) {
		nl := bytes.IndexByte(b[off:], '\n')
		if nl < 0 {
			break
		}
		line := bytes.TrimSpace(b[off : off+nl])
		if len(line) > 0 && !json.Valid(line) {
			break
		}
		if len(line) > 0 {
			records = append(records, json.RawMessage(bytes.Clone(line)))
		}
		off += nl + 1
	}
	f, err := fs.OpenAppend(path)
	if err != nil {
		return nil, nil, err
	}
	return &Journal{fs: fs, path: path, f: f, good: int64(off), dirty: off != len(b)}, records, nil
}

// Append journals one record durably: repair any torn tail, marshal,
// write the line, fsync. A non-nil error means the record must not be
// treated as durable; IsDiskFull classifies the cause.
func (j *Journal) Append(v any) error {
	line, err := jsonLine(v)
	if err != nil {
		return err
	}
	if j.dirty {
		if err := j.f.Truncate(j.good); err != nil {
			return err
		}
		j.dirty = false
	}
	if err := j.f.Append(line); err != nil {
		j.dirty = true // part of the line may be on disk
		return err
	}
	j.good += int64(len(line))
	return nil
}

// Compact atomically replaces the journal with records and reopens the
// append handle.
func (j *Journal) Compact(records []any) error {
	var buf []byte
	for _, v := range records {
		line, err := jsonLine(v)
		if err != nil {
			return err
		}
		buf = append(buf, line...)
	}
	if err := j.f.Close(); err != nil {
		return err
	}
	werr := j.fs.WriteFileAtomic(j.path, buf)
	f, err := j.fs.OpenAppend(j.path)
	if err != nil {
		return err
	}
	j.f = f
	if werr != nil {
		// The rewrite failed before its rename, so the original journal,
		// with its known durable prefix, is intact and the reopened
		// handle keeps appending to it: a failed compaction costs a
		// bigger file, not the journal.
		return werr
	}
	j.good, j.dirty = int64(len(buf)), false
	return nil
}

// Close releases the append handle.
func (j *Journal) Close() error { return j.f.Close() }

// jsonLine encodes one record as a newline-terminated JSON line.
func jsonLine(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("vfs: journal encode: %w", err)
	}
	return append(b, '\n'), nil
}
