// Package atomicio is the single write path for checkpoint and report
// files: write to a temp file in the destination directory, fsync it, then
// rename over the target and fsync the directory. Readers — including a
// resumed run inspecting its own previous checkpoint, or a restarted
// pdede-serve restoring tenant state — therefore observe either the old
// complete document or the new complete document, never a torn one, and a
// completed write survives power loss (the data is on stable storage
// before the rename, the rename itself before WriteFile returns).
//
// Every checkpoint and report writer goes through this package: the suite
// checkpoint (internal/experiments), the serve tenant checkpoints
// (internal/serve), -dump-suite (the module root), pdede-experiments -o
// and pdede-trace -o. Each one's tests hold the old file open across a
// write and require the held reader to read the old document whole,
// which an in-place rewrite such as os.WriteFile fails.
package atomicio

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
)

// rename is swapped by tests to prove the failure path leaves the target
// untouched; everywhere else it is os.Rename.
var rename = os.Rename

// WriteFile atomically and durably replaces path with data. The temp file
// is created in path's directory so the final rename never crosses
// filesystems, and is fsynced before the rename so a crash can never
// promote an empty or partial file over a good one. After the rename the
// parent directory is fsynced, making the new directory entry itself
// durable. On error the temp file is removed; path is untouched.
func WriteFile(path string, data []byte, perm os.FileMode) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+"-*")
	if err != nil {
		return fmt.Errorf("atomicio: %w", err)
	}
	name := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(name)
		return fmt.Errorf("atomicio: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(name)
		return fmt.Errorf("atomicio: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return fmt.Errorf("atomicio: %w", err)
	}
	if err := os.Chmod(name, perm); err != nil {
		os.Remove(name)
		return fmt.Errorf("atomicio: %w", err)
	}
	if err := rename(name, path); err != nil {
		os.Remove(name)
		return fmt.Errorf("atomicio: %w", err)
	}
	if err := syncDir(dir); err != nil {
		// The rename is visible but its directory entry may not be durable
		// yet; surface that rather than claiming a completed write.
		return fmt.Errorf("atomicio: fsync %s: %w", dir, err)
	}
	return nil
}

// syncDir fsyncs a directory so a just-renamed entry survives power loss.
// Filesystems that cannot fsync directories (some network and FUSE mounts)
// report EINVAL or ENOTSUP; the rename is still atomic there, just not
// durable, which matches the old behaviour — so those two are tolerated.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil &&
		!errors.Is(err, syscall.EINVAL) && !errors.Is(err, syscall.ENOTSUP) {
		return err
	}
	return nil
}

// WriteJSON atomically replaces path with the indented JSON encoding of v.
func WriteJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("atomicio: encoding %s: %w", path, err)
	}
	return WriteFile(path, append(data, '\n'), 0o644)
}
