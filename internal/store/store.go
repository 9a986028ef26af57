// Package store implements the platform's embedded persistence: an
// append-only, checksummed key-value log with buckets, crash-safe replay,
// and compaction. The marketplace server uses it to keep tasks, audit
// results and dataset references durable across restarts.
//
// Every record is length-prefixed and CRC32-protected; on open, the log is
// replayed and a torn or corrupt tail (the classic crash signature of an
// append-only store) is truncated away, keeping the longest valid prefix.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"fairrank/internal/telemetry"
)

const (
	opPut    byte = 1
	opDelete byte = 2
	// maxRecordSize bounds a single record; larger values must be stored
	// as dataset snapshots, not KV entries.
	maxRecordSize = 64 << 20
)

// Options configures a DB.
type Options struct {
	// Sync forces an fsync after every write. Slower, but a crash loses
	// at most the in-flight record rather than the OS write-back window.
	Sync bool
	// Metrics, when non-nil, receives the store's telemetry: put/delete
	// and byte counters, compaction and torn-tail truncation totals, and
	// live/dead record gauges. See the Metric* names in this package.
	Metrics *telemetry.Registry
}

// DB is a bucketed key-value store backed by an append-only log.
// It is safe for concurrent use.
type DB struct {
	mu      sync.RWMutex
	f       *os.File
	path    string
	opts    Options
	data    map[string]map[string][]byte // bucket → key → value
	dead    int                          // overwritten/deleted records, for compaction heuristics
	live    int
	closed  bool
	replayN int
	met     storeMetrics
}

// Open opens (or creates) the log at path and replays it. A corrupt tail
// is truncated; corruption in the middle of the log is an error.
func Open(path string, opts Options) (*DB, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: open %s: %w", path, err)
	}
	db := &DB{
		f: f, path: path, opts: opts,
		data: map[string]map[string][]byte{},
		met:  newStoreMetrics(opts.Metrics),
	}
	validEnd, err := db.replay()
	if err != nil {
		f.Close()
		return nil, err
	}
	db.met.replayRecords.Add(int64(db.replayN))
	// Truncate a torn tail so future appends start on a record boundary.
	if fi, err := f.Stat(); err == nil && fi.Size() > validEnd {
		db.met.truncatedBytes.Add(fi.Size() - validEnd)
		if err := f.Truncate(validEnd); err != nil {
			f.Close()
			return nil, fmt.Errorf("store: truncate torn tail: %w", err)
		}
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, err
	}
	db.met.sync(db)
	return db, nil
}

// replay scans the log, applying records until EOF or a corrupt record,
// and returns the offset of the end of the last valid record.
func (db *DB) replay() (int64, error) {
	if _, err := db.f.Seek(0, io.SeekStart); err != nil {
		return 0, err
	}
	var offset int64
	var header [8]byte
	for {
		if _, err := io.ReadFull(db.f, header[:]); err != nil {
			// Clean EOF or torn length prefix: stop here.
			return offset, nil
		}
		recLen := binary.LittleEndian.Uint32(header[0:4])
		wantCRC := binary.LittleEndian.Uint32(header[4:8])
		if recLen == 0 || recLen > maxRecordSize {
			return offset, nil // corrupt length: treat as torn tail
		}
		body := make([]byte, recLen)
		if _, err := io.ReadFull(db.f, body); err != nil {
			return offset, nil // torn body
		}
		if crc32.ChecksumIEEE(body) != wantCRC {
			return offset, nil // corrupt body
		}
		if err := db.apply(body); err != nil {
			return 0, fmt.Errorf("store: replay: %w", err)
		}
		offset += int64(8 + recLen)
		db.replayN++
	}
}

// apply interprets one record body and mutates the in-memory state.
func (db *DB) apply(body []byte) error {
	if len(body) < 1 {
		return errors.New("empty record")
	}
	op := body[0]
	rest := body[1:]
	bucket, rest, err := readString(rest)
	if err != nil {
		return err
	}
	key, rest, err := readString(rest)
	if err != nil {
		return err
	}
	switch op {
	case opPut:
		b := db.data[bucket]
		if b == nil {
			b = map[string][]byte{}
			db.data[bucket] = b
		}
		if _, existed := b[key]; existed {
			db.dead++
		} else {
			db.live++
		}
		val := make([]byte, len(rest))
		copy(val, rest)
		b[key] = val
	case opDelete:
		if b := db.data[bucket]; b != nil {
			if _, existed := b[key]; existed {
				delete(b, key)
				db.dead += 2 // the put and the delete record
				db.live--
			}
		}
	default:
		return fmt.Errorf("unknown op %d", op)
	}
	return nil
}

func readString(b []byte) (string, []byte, error) {
	if len(b) < 2 {
		return "", nil, errors.New("short string header")
	}
	n := int(binary.LittleEndian.Uint16(b))
	if len(b) < 2+n {
		return "", nil, errors.New("short string body")
	}
	return string(b[2 : 2+n]), b[2+n:], nil
}

func appendString(dst []byte, s string) []byte {
	var l [2]byte
	binary.LittleEndian.PutUint16(l[:], uint16(len(s)))
	dst = append(dst, l[:]...)
	return append(dst, s...)
}

// writeRecord appends one framed record, reporting how many log bytes it
// wrote so callers can attribute them (appends vs. compaction rewrites).
func (db *DB) writeRecord(op byte, bucket, key string, value []byte) (int, error) {
	if len(bucket) > math.MaxUint16 || len(key) > math.MaxUint16 {
		return 0, errors.New("store: bucket or key too long")
	}
	body := make([]byte, 0, 1+4+len(bucket)+len(key)+len(value))
	body = append(body, op)
	body = appendString(body, bucket)
	body = appendString(body, key)
	body = append(body, value...)
	if len(body) > maxRecordSize {
		return 0, fmt.Errorf("store: record of %d bytes exceeds limit", len(body))
	}
	var header [8]byte
	binary.LittleEndian.PutUint32(header[0:4], uint32(len(body)))
	binary.LittleEndian.PutUint32(header[4:8], crc32.ChecksumIEEE(body))
	if _, err := db.f.Write(header[:]); err != nil {
		return 0, fmt.Errorf("store: append: %w", err)
	}
	if _, err := db.f.Write(body); err != nil {
		return 0, fmt.Errorf("store: append: %w", err)
	}
	if db.opts.Sync {
		if err := db.f.Sync(); err != nil {
			return 0, fmt.Errorf("store: sync: %w", err)
		}
	}
	return 8 + len(body), nil
}

// Path returns the log file's path — the anchor for sibling storage such
// as the snapshot directory.
func (db *DB) Path() string { return db.path }

// ErrClosed is returned by operations on a closed DB.
var ErrClosed = errors.New("store: database is closed")

// Put stores value under (bucket, key), overwriting any previous value.
func (db *DB) Put(bucket, key string, value []byte) error {
	if bucket == "" || key == "" {
		return errors.New("store: empty bucket or key")
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	n, err := db.writeRecord(opPut, bucket, key, value)
	if err != nil {
		return err
	}
	b := db.data[bucket]
	if b == nil {
		b = map[string][]byte{}
		db.data[bucket] = b
	}
	if _, existed := b[key]; existed {
		db.dead++
	} else {
		db.live++
	}
	val := make([]byte, len(value))
	copy(val, value)
	b[key] = val
	db.met.puts.Inc()
	db.met.bytesWritten.Add(int64(n))
	db.met.sync(db)
	return nil
}

// Get returns the value under (bucket, key). The returned slice is a copy.
func (db *DB) Get(bucket, key string) ([]byte, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	b := db.data[bucket]
	if b == nil {
		return nil, false
	}
	v, ok := b[key]
	if !ok {
		return nil, false
	}
	out := make([]byte, len(v))
	copy(out, v)
	return out, true
}

// Delete removes (bucket, key); deleting a missing key is a no-op.
func (db *DB) Delete(bucket, key string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	b := db.data[bucket]
	if b == nil {
		return nil
	}
	if _, ok := b[key]; !ok {
		return nil
	}
	n, err := db.writeRecord(opDelete, bucket, key, nil)
	if err != nil {
		return err
	}
	delete(b, key)
	db.dead += 2
	db.live--
	db.met.deletes.Inc()
	db.met.bytesWritten.Add(int64(n))
	db.met.sync(db)
	return nil
}

// Keys returns the sorted keys of a bucket.
func (db *DB) Keys(bucket string) []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	b := db.data[bucket]
	out := make([]string, 0, len(b))
	for k := range b {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Len returns the number of live keys in a bucket.
func (db *DB) Len(bucket string) int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(db.data[bucket])
}

// Stats reports live and dead (overwritten/deleted) record counts; a high
// dead count suggests compaction.
func (db *DB) Stats() (live, dead int) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.live, db.dead
}

// Compact rewrites the log to contain only the live records, atomically
// replacing the old file via rename.
func (db *DB) Compact() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	tmpPath := db.path + ".compact"
	tmp, err := os.OpenFile(tmpPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	old := db.f
	db.f = tmp
	ok := false
	defer func() {
		if !ok {
			db.f = old
			tmp.Close()
			os.Remove(tmpPath)
		}
	}()

	buckets := make([]string, 0, len(db.data))
	for b := range db.data {
		buckets = append(buckets, b)
	}
	sort.Strings(buckets)
	var rewritten int64
	for _, bucket := range buckets {
		keys := make([]string, 0, len(db.data[bucket]))
		for k := range db.data[bucket] {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			n, err := db.writeRecord(opPut, bucket, k, db.data[bucket][k])
			if err != nil {
				return err
			}
			rewritten += int64(n)
		}
	}
	if err := tmp.Sync(); err != nil {
		return fmt.Errorf("store: compact sync: %w", err)
	}
	if err := os.Rename(tmpPath, db.path); err != nil {
		return fmt.Errorf("store: compact rename: %w", err)
	}
	old.Close()
	ok = true
	db.dead = 0
	db.met.compactions.Inc()
	db.met.compactionBytes.Add(rewritten)
	db.met.sync(db)
	// The rename is durable only once its directory is: without this a
	// crash could bring the old log back and lose every record appended
	// to the new one since.
	if err := syncDir(filepath.Dir(db.path)); err != nil {
		return fmt.Errorf("store: compact sync dir: %w", err)
	}
	return nil
}

// Sync flushes buffered log writes to stable storage. With Options.Sync
// unset, writes only reach the OS write-back cache; graceful shutdown
// calls Sync so an orderly exit never loses acknowledged records even
// when per-write fsync was traded away for throughput.
func (db *DB) Sync() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	if err := db.f.Sync(); err != nil {
		return fmt.Errorf("store: sync: %w", err)
	}
	return nil
}

// Close releases the underlying file. Further operations fail with
// ErrClosed.
func (db *DB) Close() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil
	}
	db.closed = true
	return db.f.Close()
}
