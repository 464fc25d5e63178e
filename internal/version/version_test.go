package version

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"runtime/debug"
	"strings"
	"testing"
)

func TestGetStable(t *testing.T) {
	a, b := Get(), Get()
	if a != b {
		t.Fatalf("Get not stable: %+v vs %+v", a, b)
	}
	if a.Module == "" || a.Version == "" {
		t.Fatalf("missing module/version: %+v", a)
	}
}

func TestStringAndEngine(t *testing.T) {
	i := Info{Module: "fcdpm", Version: "v1.2.3",
		Revision: "0123456789abcdef0123", Modified: true, Exe: "fedcba9876543210", Go: "go1.22"}
	s := i.String()
	for _, want := range []string{"fcdpm v1.2.3", "rev 0123456789ab", "+dirty", "exe fedcba9876543210", "go1.22"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
	if got, want := i.engine(), "v1.2.3@0123456789abcdef0123+dirty+exe.fedcba9876543210"; got != want {
		t.Fatalf("engine() = %q, want %q", got, want)
	}
	if e := Engine(); e == "" {
		t.Fatal("Engine() empty")
	}
	if Engine() != Engine() {
		t.Fatal("Engine not stable")
	}
}

// TestUnstampedEngineCarriesExeDigest: a go test binary carries no VCS
// stamp, so its engine tag is the digest of its own executable, the same
// on every call, not a bare "(devel)" that every such build shares.
func TestUnstampedEngineCarriesExeDigest(t *testing.T) {
	i := Get()
	if i.Revision != "" && !i.Modified {
		t.Skipf("binary carries a clean VCS stamp %s", i.Revision)
	}
	path, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	want := hex.EncodeToString(sum[:8])
	if i.Exe != want {
		t.Fatalf("Exe = %q, want %q", i.Exe, want)
	}
	if e := Engine(); !strings.HasSuffix(e, "+exe."+want) || e != Engine() {
		t.Fatalf("Engine() = %q, want a stable tag ending in +exe.%s", e, want)
	}
}

// TestReadInfoDigestsOnlyUnstampedOrDirty: only a build without a clean
// VCS stamp is hashed; a clean stamped build is named by its revision.
func TestReadInfoDigestsOnlyUnstampedOrDirty(t *testing.T) {
	stamped := func(modified string) *debug.BuildInfo {
		return &debug.BuildInfo{GoVersion: "go1.22", Main: debug.Module{Path: "fcdpm", Version: "v1"},
			Settings: []debug.BuildSetting{{Key: "vcs.revision", Value: "abc"}, {Key: "vcs.modified", Value: modified}}}
	}
	digest := func() string { return "0123456789abcdef" }
	clean := readInfo(stamped("false"), func() string {
		t.Fatal("a clean stamped build was hashed")
		return ""
	})
	if clean.Exe != "" || clean.engine() != "v1@abc" {
		t.Fatalf("clean build: Exe %q, engine %q, want no digest and v1@abc", clean.Exe, clean.engine())
	}
	if got := readInfo(stamped("true"), digest).engine(); got != "v1@abc+dirty+exe.0123456789abcdef" {
		t.Fatalf("dirty build engine %q", got)
	}
	if got := readInfo(nil, digest).engine(); got != "(devel)+exe.0123456789abcdef" {
		t.Fatalf("unstamped build engine %q", got)
	}
}
