// Package durable writes files that survive a crash: every on-disk record of
// the system (job records, cache snapshots) goes through WriteFile.
package durable

import (
	"fmt"
	"os"
	"path/filepath"
)

// WriteFile replaces dir/name with data, atomically and durably. The data is
// written to a temp file in dir, which is fsynced, chmodded to perm and
// closed before it is renamed over name; dir is then fsynced so the rename
// itself survives a crash. Readers see the previous file or the new one,
// never a partial one. On failure the temp file is removed and the previous
// file is left as it was.
//
// Temp files are named "." + name + ".tmp-<random>": a directory scan that
// selects files by name's prefix or extension never picks one up, even one
// left behind by a crash.
func WriteFile(dir, name string, data []byte, perm os.FileMode) error {
	tmp, err := os.CreateTemp(dir, "."+name+".tmp-*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Sync()
	}
	if err == nil {
		err = tmp.Chmod(perm)
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), filepath.Join(dir, name))
	}
	if err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a just-completed rename inside it is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("syncing directory: %w", err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("syncing directory %s: %w", dir, err)
	}
	return nil
}
