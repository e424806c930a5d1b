//go:build unix

package checkpoint

import (
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"
)

// TestLoadRefusesNonRegularFiles: a resume path can name anything, so Load
// must refuse what no snapshot can be — without reading it (a device
// streams until the size cap) or blocking in open (a FIFO with no writer).
func TestLoadRefusesNonRegularFiles(t *testing.T) {
	dir := t.TempDir()
	fifo := filepath.Join(dir, "fifo")
	if err := syscall.Mkfifo(fifo, 0o600); err != nil {
		t.Fatalf("mkfifo: %v", err)
	}
	for _, path := range []string{"/dev/zero", dir, fifo} {
		done := make(chan error, 1)
		go func() {
			_, err := Load(path)
			done <- err
		}()
		select {
		case err := <-done:
			var ce *CorruptError
			if !errors.As(err, &ce) {
				t.Errorf("Load(%s) = %v, want a *CorruptError", path, err)
			}
		case <-time.After(time.Second):
			t.Errorf("Load(%s) still running after 1s", path)
		}
	}
}

// TestLoadRefusesOversizedFile: a regular file larger than any snapshot (a
// sparse one here, so it costs no disk) is refused by its stat'ed size
// instead of being read.
func TestLoadRefusesOversizedFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "huge.ckpt")
	if err := os.WriteFile(path, nil, 0o600); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, headerSize+maxPayload+1); err != nil {
		t.Skipf("cannot make a sparse file here: %v", err)
	}
	var ce *CorruptError
	if _, err := Load(path); !errors.As(err, &ce) {
		t.Fatalf("Load of an oversized file = %v, want a *CorruptError", err)
	}
}
