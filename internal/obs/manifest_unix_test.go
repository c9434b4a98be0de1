//go:build unix

package obs

import (
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

// TestManifestWriteIsWorldReadable: a run report is written 0644 less
// the umask, as a persisted calibration is, not with an owner-only temp
// file's mode; a stricter umask is kept.
func TestManifestWriteIsWorldReadable(t *testing.T) {
	for _, c := range []struct {
		umask int
		want  os.FileMode
	}{{0o022, 0o644}, {0o077, 0o600}} {
		old := syscall.Umask(c.umask)
		path := filepath.Join(t.TempDir(), "manifest.json")
		err := goldenManifest(t).Write(path)
		syscall.Umask(old)
		if err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if got := fi.Mode().Perm(); got != c.want {
			t.Fatalf("umask %03o: manifest mode %v, want %v", c.umask, got, c.want)
		}
	}
}
