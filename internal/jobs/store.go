package jobs

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"crsharing/internal/durable"
)

// Record is the persisted form of a job: the snapshot plus the originating
// request, so a non-terminal record can be re-enqueued after a restart.
type Record struct {
	Snapshot Snapshot `json:"snapshot"`
	Request  Request  `json:"request"`
}

// Store persists job records. Save must be atomic per record (a reader never
// observes a half-written record) and overwrite any previous record with the
// same job ID; Delete removes a record and is a no-op for unknown IDs.
// Implementations must be safe for concurrent use.
type Store interface {
	Save(rec Record) error
	Delete(id string) error
	LoadAll() ([]Record, error)
}

// FileStore persists one JSON file per job under a directory. Writes go
// through durable.WriteFile (temp file, fsync, atomic rename, directory
// fsync), so a crash never corrupts an existing record or loses one Save
// reported as written.
type FileStore struct {
	dir string
}

// NewFileStore creates the directory if needed and returns the store.
func NewFileStore(dir string) (*FileStore, error) {
	if dir == "" {
		return nil, fmt.Errorf("jobs: empty store directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("jobs: creating store directory: %w", err)
	}
	return &FileStore{dir: dir}, nil
}

// Dir returns the store's directory.
func (s *FileStore) Dir() string { return s.dir }

// Save implements Store.
func (s *FileStore) Save(rec Record) error {
	if !validID(rec.Snapshot.ID) {
		return fmt.Errorf("jobs: refusing to store job with unsafe id %q", rec.Snapshot.ID)
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("jobs: encoding record %s: %w", rec.Snapshot.ID, err)
	}
	// 0600: records hold client requests.
	if err := durable.WriteFile(s.dir, rec.Snapshot.ID+".json", data, 0o600); err != nil {
		return fmt.Errorf("jobs: writing record %s: %w", rec.Snapshot.ID, err)
	}
	return nil
}

// Delete implements Store; deleting a record that does not exist is not an
// error.
func (s *FileStore) Delete(id string) error {
	if !validID(id) {
		return fmt.Errorf("jobs: refusing to delete unsafe id %q", id)
	}
	err := os.Remove(filepath.Join(s.dir, id+".json"))
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("jobs: deleting record %s: %w", id, err)
	}
	return nil
}

// LoadAll implements Store. An unreadable or undecodable record is renamed
// to <id>.json.corrupt and skipped, so one corrupt record cannot brick the
// whole manager or be re-read on every start; leftover temporary files from
// a crash are ignored.
func (s *FileStore) LoadAll() ([]Record, error) {
	var out []Record
	_, err := durable.LoadDir(s.dir,
		func(name string) bool { return strings.HasSuffix(name, ".json") },
		func(_ string, data []byte) error {
			var rec Record
			if err := json.Unmarshal(data, &rec); err != nil {
				return err
			}
			if rec.Snapshot.ID == "" {
				return errors.New("record has no job id")
			}
			out = append(out, rec)
			return nil
		})
	if err != nil {
		return nil, fmt.Errorf("jobs: reading store directory: %w", err)
	}
	return out, nil
}

// validID accepts the hex identifiers newID produces (and nothing that
// could traverse out of the store directory).
func validID(id string) bool {
	if id == "" || len(id) > 64 {
		return false
	}
	for _, r := range id {
		if (r < '0' || r > '9') && (r < 'a' || r > 'f') {
			return false
		}
	}
	return true
}
