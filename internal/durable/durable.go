// Package durable writes files that survive a crash and reads them back: every
// on-disk record of the system (job records, cache snapshots) is written
// through WriteFile and loaded through LoadDir.
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

// LoadDir hands the contents of every regular file in dir whose name keep
// accepts to decode. A file that cannot be read, or that decode rejects, is
// renamed to name + ".corrupt" (best effort) so later loads skip it, and the
// load goes on: one corrupt file never fails a startup. It returns how many
// files were quarantined.
func LoadDir(dir string, keep func(name string) bool, decode func(name string, data []byte) error) (quarantined int, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !keep(name) {
			continue
		}
		path := filepath.Join(dir, name)
		data, err := os.ReadFile(path)
		if err == nil {
			err = decode(name, data)
		}
		if err != nil {
			quarantined++
			os.Rename(path, path+".corrupt")
		}
	}
	return quarantined, nil
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
