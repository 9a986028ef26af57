package server

import (
	"encoding/json"
	"fmt"

	"fairrank/internal/jobs"
	"fairrank/internal/store"
)

// The store names its format in one record. This version writes the
// records 228bcbf writes, and 228bcbf, the last commit without the
// record, ignores it, so each reads the other's stores. Stores written
// before 228bcbf may hold records of older shapes, which only 228bcbf and
// earlier read.
const (
	bucketMeta       = "meta"
	keyFormat        = "format"
	storeFormat      = "fairrank-store-v1"
	lastLegacyReader = "228bcbf"
)

// checkFormat runs first at boot, before anything in the data directory
// is swept, requeued or rewritten. A store stamped with storeFormat boots
// as it is, and one stamped with another format is refused. An unstamped
// store has its records checked once: one of a legacy shape is refused,
// by bucket and key, and otherwise the store is stamped.
func checkFormat(db *store.DB) error {
	if raw, ok := db.Get(bucketMeta, keyFormat); ok {
		if string(raw) == storeFormat {
			return nil
		}
		return fmt.Errorf("server: bucket %q, key %q: unknown store format %q; this version reads %q and unstamped stores as %s wrote them",
			bucketMeta, keyFormat, raw, storeFormat, lastLegacyReader)
	}
	for _, find := range []func(*store.DB) (bucket, key, shape string){legacyRecord, jobs.LegacyRecord} {
		if bucket, key, shape := find(db); shape != "" {
			return fmt.Errorf("server: bucket %q, key %q holds %s, which this version does not read; %s is the last commit that reads it",
				bucket, key, shape, lastLegacyReader)
		}
	}
	if err := db.Put(bucketMeta, keyFormat, []byte(storeFormat)); err != nil {
		return fmt.Errorf("server: stamp store format: %w", err)
	}
	return nil
}

// legacyRecord finds a dataset, audit or snapshot-ref record of a shape
// this version no longer reads, as jobs.LegacyRecord finds job records.
func legacyRecord(db *store.DB) (bucket, key, shape string) {
	if keys := db.Keys("datasets"); len(keys) > 0 {
		return "datasets", keys[0], "a dataset in the legacy binary form"
	}
	if keys := db.Keys("audits"); len(keys) > 0 {
		return "audits", keys[0], "an audit of the retired audits route"
	}
	for _, name := range db.Keys("snapshots") {
		var ref store.SnapshotRef
		raw, _ := db.Get("snapshots", name)
		if json.Unmarshal(raw, &ref) == nil && ref.Digest == "" {
			return "snapshots", name, "a snapshot ref without a digest"
		}
	}
	return "", "", ""
}
