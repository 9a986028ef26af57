package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"io"
	"math"
	"sort"

	"fairrank/internal/dataset"
	"fairrank/internal/scoring"
)

// This file defines the canonical content hash of a Spec: the identity
// under which the job scheduler deduplicates audits and keys its result
// cache. Two specs hash equal exactly when the engine is guaranteed to
// produce bit-identical results for both, so every field that cannot
// change the result is excluded and every default is normalized before
// hashing:
//
//   - Parallelism is excluded: results are bit-identical at every level
//     (the exact average has no order; pair distances reduce in canonical
//     pair order regardless).
//   - Metrics and Progress are excluded: observation does not change the
//     audit.
//   - Evaluator identity is excluded: an evaluator is hashed through its
//     (dataset, func, config) content, so Spec{Evaluator: e} and the
//     equivalent Spec{Dataset, Func, Config} collapse to one hash.
//   - Algorithm "" normalizes to "balanced", Bins 0 to 10,
//     MinPartitionSize 0 to 1, Budget 0 to DefaultExhaustiveBudget, and a
//     nil Attrs to the full ascending attribute list — the values Run
//     actually uses.
//
// Attrs order is preserved (not sorted): the greedy choosers break probe
// ties toward the earliest entry of the scan list, so permuted attribute
// lists are not guaranteed bit-identical.

// Hash returns the canonical SHA-256 content hash of the audit this spec
// describes, in lowercase hex. It is stable across processes and releases
// of the same serialization version (the leading version tag below guards
// against silent drift; it covers the definition of the dataset digest
// too, so a change to the snapshot encoding needs a bump).
//
// The dataset contributes through its content digest (dataset.Digest, the
// SHA-256 of its columnar snapshot), which is computed once per Dataset
// and cached, so after a dataset's first hash Hash costs O(1) in the
// worker count. The scoring function contributes through its Name plus,
// when it exposes Weights() map[string]float64 (e.g. scoring.Linear), its
// weight table in sorted key order. Custom Funcs without Weights are
// identified by Name alone — callers minting ad-hoc functions must give
// distinct audits distinct names.
func (s Spec) Hash() string {
	h := sha256.New()
	w := specWriter{w: h}
	w.str("fairrank-spec-v3")

	name := s.Algorithm
	if name == "" {
		name = "balanced"
	}
	w.str("algorithm")
	w.str(name)

	ds, f, cfg := s.Dataset, s.Func, s.Config
	if s.Evaluator != nil {
		ds, f, cfg = s.Evaluator.Dataset(), s.Evaluator.Func(), s.Evaluator.Config()
	}
	cfg = cfg.withDefaults()

	w.str("config")
	w.u64(uint64(cfg.Bins))
	w.u64(uint64(cfg.Ground))
	w.str(cfg.Metric.String())
	w.u64(uint64(cfg.MinPartitionSize))
	w.bool(cfg.Exact)

	w.str("attrs")
	attrs := s.Attrs
	if attrs == nil && ds != nil {
		// nil means "all protected attributes, ascending" — expand it so
		// the explicit equivalent hashes the same.
		attrs = make([]int, len(ds.Schema().Protected))
		for i := range attrs {
			attrs[i] = i
		}
	}
	w.u64(uint64(len(attrs)))
	for _, a := range attrs {
		w.u64(uint64(a))
	}

	w.str("seed")
	w.u64(s.Seed)
	w.str("budget")
	w.u64(uint64(s.budget()))

	w.str("dataset")
	hashDataset(&w, ds)
	w.str("func")
	hashFunc(&w, f)

	return hex.EncodeToString(h.Sum(nil))
}

// hashDataset writes the dataset's identity: a "nil" tag, or a "sha256"
// tag followed by its 32-byte content digest. The digest covers every byte
// of the canonical snapshot encoding (schema, ids, every column), so two
// datasets share it exactly when their contents are equal, whatever backs
// them; the fixed width after the tag leaves no boundary to forge.
func hashDataset(w *specWriter, ds *dataset.Dataset) {
	if ds == nil {
		w.str("nil")
		return
	}
	sum := ds.Digest()
	w.str("sha256")
	_, _ = w.w.Write(sum[:])
}

func hashFunc(w *specWriter, f scoring.Func) {
	if f == nil {
		w.str("nil")
		return
	}
	w.str(f.Name())
	wf, ok := f.(interface{ Weights() map[string]float64 })
	if !ok {
		return
	}
	weights := wf.Weights()
	keys := make([]string, 0, len(weights))
	for k := range weights {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	w.u64(uint64(len(keys)))
	for _, k := range keys {
		w.str(k)
		w.f64(weights[k])
	}
}

// specWriter serializes canonical fields into the hash. Every string is
// length-prefixed so field boundaries cannot be forged by concatenation
// (e.g. weights {"a":1,"ab":2} vs {"aa":...}).
type specWriter struct {
	w io.Writer
}

func (s *specWriter) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	_, _ = s.w.Write(b[:])
}

func (s *specWriter) f64(v float64) { s.u64(math.Float64bits(v)) }

func (s *specWriter) bool(v bool) {
	if v {
		s.u64(1)
	} else {
		s.u64(0)
	}
}

func (s *specWriter) str(v string) {
	s.u64(uint64(len(v)))
	_, _ = io.WriteString(s.w, v)
}
