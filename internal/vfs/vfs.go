// Package vfs is the filesystem seam under every durable writer in the
// repo — the one JSONL journal (Journal: the dispatcher WAL, the
// runner's checkpoints, the chaos trial log), the worker result spool,
// and the result cache's disk tier. Production code runs on OS, the
// real filesystem; the chaos harness substitutes a fault-injecting
// implementation to prove those writers degrade gracefully under
// ENOSPC, failed fsync, torn appends, and bit-rot.
//
// The interface is deliberately high-level: WriteFileAtomic is one
// crash-safe publication, OpenAppend/Append is one durable journal
// record. Faults inject at exactly the granularity the callers reason
// about, and the real implementation owns the temp-file/fsync/rename
// choreography in a single place.
package vfs

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"syscall"

	"fcdpm/internal/obs"
)

// ErrDiskFull marks a write failure caused by space exhaustion (ENOSPC
// or a quota). Callers branch on it with IsDiskFull to degrade
// gracefully — the cache drops to memory-only, the dispatcher fences
// admissions, workers shed leases — instead of retrying a write that
// cannot succeed.
var ErrDiskFull = errors.New("vfs: disk full")

// IsDiskFull reports whether err is a space-exhaustion failure: either
// the typed ErrDiskFull (chaos injection) or a real ENOSPC/EDQUOT from
// the operating system.
func IsDiskFull(err error) bool {
	return errors.Is(err, ErrDiskFull) ||
		errors.Is(err, syscall.ENOSPC) || errors.Is(err, syscall.EDQUOT)
}

// WriteError is the typed failure of a durable write: which operation,
// which path, and the underlying cause (which may be ErrDiskFull or an
// OS errno — IsDiskFull sees through the wrapper).
type WriteError struct {
	Op   string // "write-atomic" | "append" | "remove" | "mkdir"
	Path string
	Err  error
}

func (e *WriteError) Error() string {
	return fmt.Sprintf("vfs: %s %s: %v", e.Op, e.Path, e.Err)
}

func (e *WriteError) Unwrap() error { return e.Err }

// fail wraps a write failure and counts it on the process-global
// fcdpm_io_write_failures_total counter.
func fail(op, path string, err error) error {
	obs.IOWriteFailures().Inc()
	return &WriteError{Op: op, Path: path, Err: err}
}

// AppendFile is one open append-only journal handle. Append writes one
// record and makes it durable (write + fsync) before returning; a
// non-nil error means the record may be absent or torn on disk and the
// caller must not treat the transition as durable. Truncate cuts the
// file back to size — the repair step a journal runs after a failed
// Append, so a torn partial record can never fuse with the next
// successful one into a single unparseable line.
type AppendFile interface {
	Append(b []byte) error
	Truncate(size int64) error
	Close() error
}

// FS is the filesystem surface the durable writers run on.
type FS interface {
	// ReadFile returns the file's contents.
	ReadFile(path string) ([]byte, error)
	// WriteFileAtomic publishes data at path crash-safely: temp file,
	// fsync, rename, best-effort directory sync.
	WriteFileAtomic(path string, data []byte) error
	// OpenAppend opens (creating if needed) an append-only handle.
	OpenAppend(path string) (AppendFile, error)
	// Remove deletes path.
	Remove(path string) error
	// MkdirAll creates the directory and parents.
	MkdirAll(path string) error
	// ReadDir lists the names of path's regular entries, sorted.
	ReadDir(path string) ([]string, error)
}

// OS is the real filesystem.
type OS struct{}

// Default is the implementation production code runs on.
var Default FS = OS{}

func (OS) ReadFile(path string) ([]byte, error) { return os.ReadFile(path) }

// WriteFileAtomic writes data through a temp file, fsync, and rename,
// then best-effort syncs the directory — a crash at any instant leaves
// either the old file or the complete new one, never a torn mix.
func (OS) WriteFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".atomic-*")
	if err != nil {
		return fail("write-atomic", path, err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fail("write-atomic", path, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fail("write-atomic", path, err)
	}
	if err := tmp.Close(); err != nil {
		return fail("write-atomic", path, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fail("write-atomic", path, err)
	}
	if d, err := os.Open(dir); err == nil {
		d.Sync() // best-effort: persist the rename itself
		d.Close()
	}
	return nil
}

func (OS) OpenAppend(path string) (AppendFile, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fail("append", path, err)
	}
	return &osAppend{path: path, f: f}, nil
}

func (OS) Remove(path string) error {
	if err := os.Remove(path); err != nil {
		return fail("remove", path, err)
	}
	return nil
}

func (OS) MkdirAll(path string) error {
	if err := os.MkdirAll(path, 0o755); err != nil {
		return fail("mkdir", path, err)
	}
	return nil
}

func (OS) ReadDir(path string) ([]string, error) {
	entries, err := os.ReadDir(path)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	return names, nil
}

// osAppend is the real append handle: every Append is write + fsync.
type osAppend struct {
	path string
	f    *os.File
}

func (a *osAppend) Append(b []byte) error {
	if _, err := a.f.Write(b); err != nil {
		return fail("append", a.path, err)
	}
	if err := a.f.Sync(); err != nil {
		return fail("append", a.path, err)
	}
	return nil
}

func (a *osAppend) Truncate(size int64) error {
	if err := a.f.Truncate(size); err != nil {
		return fail("truncate", a.path, err)
	}
	if err := a.f.Sync(); err != nil {
		return fail("truncate", a.path, err)
	}
	return nil
}

func (a *osAppend) Close() error { return a.f.Close() }
