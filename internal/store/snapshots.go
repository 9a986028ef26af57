package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// Snapshots manages columnar dataset snapshot files alongside a DB. Files
// are named by content: a snapshot lives in <digest>.snap, where digest is
// the hex SHA-256 content digest its caller computed
// (dataset.Dataset.Digest). The WAL stays small — it holds one JSON ref per
// dataset name (name → digest, file, size) in the bucketSnapshots bucket —
// while the column data lives in ordinary files under dir, sized for mmap
// rather than for the log's record limit. Identical content registered
// under two names is one file, removed when the last ref naming it goes.
//
// Crash safety: a file reaches its final name complete and fsynced, the
// directory is fsynced before the ref naming it is written, and a file is
// removed only after the last ref naming it is gone. The only crash
// residue is an unreferenced file, which Sweep removes at boot.
const bucketSnapshots = "snapshots"

// SnapshotRef is the WAL-resident record describing one dataset name.
type SnapshotRef struct {
	// Name is the logical dataset name.
	Name string `json:"name"`
	// Digest is the hex content digest of the file.
	Digest string `json:"digest,omitempty"`
	// File is the snapshot's filename within the manager's directory:
	// <Digest>.snap, or the name-derived file a ref written before
	// content naming still points at.
	File string `json:"file"`
	// Size is the file's byte length at registration.
	Size int64 `json:"size"`
}

// Snapshots is safe for concurrent use.
type Snapshots struct {
	db  *DB
	dir string
	mu  sync.Mutex
}

// NewSnapshots returns a manager storing snapshot files under dir
// (created if absent) and refs in db.
func NewSnapshots(db *DB, dir string) (*Snapshots, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: snapshot dir: %w", err)
	}
	return &Snapshots{db: db, dir: dir}, nil
}

// Dir returns the directory holding the snapshot files.
func (s *Snapshots) Dir() string { return s.dir }

// Adopt registers the complete snapshot file at srcPath, whose content
// digest is digest, under name, and consumes srcPath. Content a ref
// already names is not stored twice: the ref points at the existing file
// and srcPath is removed. Otherwise srcPath is renamed to <digest>.snap —
// it must lie on the directory's file system, as the server's upload
// spills do — and the rename is durable before the ref is written. The
// file name pointed at before is removed once no ref names it. Callers
// validate srcPath first (dataset.OpenSnapshot succeeds on it).
func (s *Snapshots) Adopt(name, digest, srcPath string) error {
	if name == "" || digest == "" {
		return fmt.Errorf("store: snapshot needs a name and a digest")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	refs := s.Refs()
	old, replaced := refs[name]
	ref := SnapshotRef{Name: name, Digest: digest, File: digest + ".snap"}
	stored := false
	for _, r := range refs {
		if r.Digest == digest {
			ref.File, ref.Size, stored = r.File, r.Size, true
			break
		}
	}
	if !stored {
		final := filepath.Join(s.dir, ref.File)
		if err := os.Rename(srcPath, final); err != nil {
			return fmt.Errorf("store: snapshot rename: %w", err)
		}
		st, err := os.Stat(final)
		if err != nil {
			return fmt.Errorf("store: snapshot stat: %w", err)
		}
		ref.Size = st.Size()
		// The rename must survive a crash before a ref may name its target.
		if err := syncDir(s.dir); err != nil {
			return fmt.Errorf("store: snapshot dir sync: %w", err)
		}
	}
	raw, err := json.Marshal(ref)
	if err == nil {
		err = s.db.Put(bucketSnapshots, name, raw)
	}
	if err != nil {
		return err
	}
	if stored {
		// A leftover duplicate is upload-spill residue, swept at boot.
		os.Remove(srcPath)
	}
	if replaced {
		refs[name] = ref
		// The ref is durable; an orphan a failed remove leaves is swept at
		// boot.
		_ = s.removeUnnamed(refs, old.File)
	}
	return nil
}

// Refs returns every registered ref by name.
func (s *Snapshots) Refs() map[string]SnapshotRef {
	out := map[string]SnapshotRef{}
	for _, name := range s.db.Keys(bucketSnapshots) {
		if ref, ok := s.Ref(name); ok {
			out[name] = ref
		}
	}
	return out
}

// removeUnnamed removes file unless a ref in refs names it. Callers hold
// s.mu.
func (s *Snapshots) removeUnnamed(refs map[string]SnapshotRef, file string) error {
	for _, r := range refs {
		if r.File == file {
			return nil
		}
	}
	if err := os.Remove(filepath.Join(s.dir, file)); err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}

// syncDir fsyncs a directory, making the renames into it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Ref returns the registered ref for name.
func (s *Snapshots) Ref(name string) (SnapshotRef, bool) {
	raw, ok := s.db.Get(bucketSnapshots, name)
	if !ok {
		return SnapshotRef{}, false
	}
	var ref SnapshotRef
	if err := json.Unmarshal(raw, &ref); err != nil {
		return SnapshotRef{}, false
	}
	return ref, true
}

// Open returns a read handle on name's snapshot file plus its ref —
// the export side of cluster snapshot shipping (http.ServeContent wants
// an io.ReadSeeker). The caller closes the file. A concurrent replace of
// the same name leaves the handle valid: the old inode lives until the
// last fd drops.
func (s *Snapshots) Open(name string) (*os.File, SnapshotRef, error) {
	ref, ok := s.Ref(name)
	if !ok {
		return nil, SnapshotRef{}, fmt.Errorf("store: no snapshot %q", name)
	}
	f, err := os.Open(filepath.Join(s.dir, ref.File))
	if err != nil {
		return nil, SnapshotRef{}, err
	}
	return f, ref, nil
}

// Delete removes name's ref, then its file unless another ref names the
// same file. The ref goes first: a crash between the two leaves an orphan
// file for Sweep, never a ref pointing nowhere.
func (s *Snapshots) Delete(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	refs := s.Refs()
	ref, ok := refs[name]
	if !ok {
		return nil
	}
	if err := s.db.Delete(bucketSnapshots, name); err != nil {
		return err
	}
	delete(refs, name)
	return s.removeUnnamed(refs, ref.File)
}

// Sweep removes every regular file in the snapshot directory that no ref
// names: the directory holds only files Adopt renames in, so anything
// else is crash residue from an interrupted Adopt or Delete, or a file of
// an older version. It returns the removed filenames. Meant for boot,
// after the DB has replayed.
func (s *Snapshots) Sweep() ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	referenced := map[string]bool{}
	for _, ref := range s.Refs() {
		referenced[ref.File] = true
	}
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	var removed []string
	for _, e := range entries {
		fn := e.Name()
		if !e.Type().IsRegular() || referenced[fn] {
			continue
		}
		if err := os.Remove(filepath.Join(s.dir, fn)); err != nil {
			return removed, err
		}
		removed = append(removed, fn)
	}
	return removed, nil
}
