// Package version reports what build of fcdpm is running: the module
// version and the VCS revision baked in by the Go toolchain. The serving
// subsystem folds this into its result-cache keys, so a report computed
// by one engine build is never served as the answer for another.
package version

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"runtime/debug"
	"sync"
	"time"
)

// Info describes the running build.
type Info struct {
	// Module is the main module path ("fcdpm").
	Module string `json:"module"`
	// Version is the module version ("(devel)" for source builds).
	Version string `json:"version"`
	// Revision is the VCS commit hash, when the build carried one.
	Revision string `json:"revision,omitempty"`
	// Time is the VCS commit time (RFC 3339), when known.
	Time string `json:"time,omitempty"`
	// Modified reports a dirty worktree at build time.
	Modified bool `json:"modified,omitempty"`
	// Exe is the first 16 hex digits of the running executable's SHA-256,
	// set when the build carries no clean VCS stamp (no revision, or a
	// modified worktree), because the revision alone then does not name
	// the code.
	Exe string `json:"exe,omitempty"`
	// Go is the toolchain version that produced the binary.
	Go string `json:"go"`
}

// get reads the build info once; the result never changes in-process.
var get = sync.OnceValue(func() Info {
	bi, _ := debug.ReadBuildInfo()
	return readInfo(bi, exeDigest)
})

// readInfo describes the build bi records (nil when it records none),
// calling exe for the executable digest only when the build carries no
// clean VCS stamp.
func readInfo(bi *debug.BuildInfo, exe func() string) Info {
	info := Info{Module: "fcdpm", Version: "(devel)"}
	if bi != nil {
		if bi.Main.Path != "" {
			info.Module = bi.Main.Path
		}
		if bi.Main.Version != "" {
			info.Version = bi.Main.Version
		}
		info.Go = bi.GoVersion
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				info.Revision = s.Value
			case "vcs.time":
				info.Time = s.Value
			case "vcs.modified":
				info.Modified = s.Value == "true"
			}
		}
	}
	if info.Revision == "" || info.Modified {
		info.Exe = exe()
	}
	return info
}

// exeDigest returns the first 16 hex digits of the running executable's
// SHA-256, streaming the file. An executable that cannot be read gets a
// tag of this process alone instead, so the build never shares a tag
// with another.
func exeDigest() string {
	sum, err := hashExecutable()
	if err != nil {
		return fmt.Sprintf("unread-%d-%d", os.Getpid(), time.Now().UnixNano())
	}
	return hex.EncodeToString(sum[:8])
}

func hashExecutable() ([]byte, error) {
	path, err := os.Executable()
	if err != nil {
		return nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return nil, err
	}
	return h.Sum(nil), nil
}

// Get returns the build description of the running binary.
func Get() Info { return get() }

// String renders the build for humans: "fcdpm (devel) rev 1a2b3c4d+dirty
// exe 0123456789abcdef (go1.22)".
func (i Info) String() string {
	s := fmt.Sprintf("%s %s", i.Module, i.Version)
	if i.Revision != "" {
		rev := i.Revision
		if len(rev) > 12 {
			rev = rev[:12]
		}
		s += " rev " + rev
		if i.Modified {
			s += "+dirty"
		}
	}
	if i.Exe != "" {
		s += " exe " + i.Exe
	}
	if i.Go != "" {
		s += fmt.Sprintf(" (%s)", i.Go)
	}
	return s
}

// Engine is the compact build tag folded into content-addressed result
// cache keys: identical scenario specs evaluated by different engine
// builds must hash to different addresses.
func Engine() string { return Get().engine() }

// engine renders the tag: "(devel)+exe.0123456789abcdef" without a VCS
// stamp, "v1@rev+dirty+exe.…" for a dirty build, "v1@rev" for a clean one.
func (i Info) engine() string {
	tag := i.Version
	if i.Revision != "" {
		tag += "@" + i.Revision
		if i.Modified {
			tag += "+dirty"
		}
	}
	if i.Exe != "" {
		tag += "+exe." + i.Exe
	}
	return tag
}
