// Streaming, resumable dataset ingest. One-shot POST /v1/datasets/{name}
// caps out at what the server is willing to buffer; snapshots of
// million-worker populations arrive instead as a chunked upload session:
//
//	POST   /v1/datasets/{name}/uploads          create session {"size": N} → token
//	POST   /v1/datasets/{name}/chunks           Upload-Token + Content-Range + bytes
//	GET    /v1/datasets/{name}/uploads/{token}  status: received/missing ranges
//	DELETE /v1/datasets/{name}/uploads/{token}  abort, discard the spill
//
// Chunks are written straight into a preallocated spill file at their
// Content-Range offset — the server never holds more than one chunk's
// io.Copy buffer per request, regardless of dataset size. Received ranges
// are merged and persisted in the WAL after each chunk's bytes are synced,
// so a client can resume across both its own interruptions and server
// restarts. When the byte coverage closes, the spill is registered like
// every other upload (Server.register): mapped and validated once, hashed
// once, adopted into the snapshot store under its content digest and
// served from that same mapping — the columns never transit the heap.
package server

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"
)

const (
	bucketUploads = "uploads"
	// maxUploadSessions caps concurrent chunked-upload sessions. Each
	// session preallocates up to maxUploadBytes of spill, so without a cap
	// an unauthenticated client could reserve unbounded disk.
	maxUploadSessions = 32
	// uploadSessionTTL is how long a session may sit idle (no chunk
	// accepted) before it becomes eligible for expiry. Expiry is swept
	// lazily when new sessions are created, which is exactly when the
	// cap — the resource being protected — comes under pressure.
	uploadSessionTTL = time.Hour
)

// byteRange is a half-open [Start, End) interval of the upload.
type byteRange struct {
	Start int64 `json:"start"`
	End   int64 `json:"end"`
}

// uploadSession is the WAL-persisted state of one chunked upload.
type uploadSession struct {
	Token   string `json:"token"`
	Dataset string `json:"dataset"`
	Size    int64  `json:"size"`
	// File is the spill filename within the server's upload directory.
	File string `json:"file"`
	// Received holds the sorted, disjoint, merged byte ranges written and
	// synced so far. Persisted after — never before — the bytes reach disk,
	// so a recorded range is always trustworthy after a crash.
	Received []byteRange `json:"received,omitempty"`
	// Updated is the unix time of the last accepted chunk (or session
	// creation); idle sessions past uploadSessionTTL are expired.
	Updated int64 `json:"updated,omitempty"`
	// Source marks a cluster-hydration session and names the peer base
	// URL the bytes come from (cluster.go). Client uploads leave it
	// empty. Persisted so an interrupted hydration resumes across
	// restarts from its recorded ranges.
	Source string `json:"source,omitempty"`

	// closed marks the session as no longer accepting writes: set under
	// s.mu by exactly one of finalize, abort, or expiry, whichever wins.
	// Chunk requests check it both before touching the spill and again
	// before recording their range, so once closed is observed true no new
	// spill fd is opened and no range is merged or persisted.
	closed bool
	// writers counts in-flight chunk writes. Add happens under s.mu only
	// while !closed; finalizeUpload sets closed then Waits, so by the time
	// it validates the spill every straggling write has landed and no new
	// one can start — nothing can dirty the file after validation.
	writers sync.WaitGroup
}

// mergeRange inserts r into sorted disjoint ranges, coalescing overlaps
// and adjacencies. Duplicate and out-of-order chunks are naturally
// idempotent under this merge.
func mergeRange(rs []byteRange, r byteRange) []byteRange {
	out := make([]byteRange, 0, len(rs)+1)
	for _, ex := range rs {
		switch {
		case ex.End < r.Start: // strictly before, not even adjacent
			out = append(out, ex)
		case r.End < ex.Start: // strictly after
			// r is placed below; keep ex for the tail.
			out = append(out, ex)
		default: // overlap or adjacency: absorb into r
			r.Start = min(r.Start, ex.Start)
			r.End = max(r.End, ex.End)
		}
	}
	// Insert r in sorted position.
	ins := len(out)
	for i, ex := range out {
		if r.Start < ex.Start {
			ins = i
			break
		}
	}
	out = append(out, byteRange{})
	copy(out[ins+1:], out[ins:])
	out[ins] = r
	return out
}

func (u *uploadSession) complete() bool {
	return len(u.Received) == 1 && u.Received[0].Start == 0 && u.Received[0].End == u.Size
}

func (u *uploadSession) receivedBytes() int64 {
	var n int64
	for _, r := range u.Received {
		n += r.End - r.Start
	}
	return n
}

// missing returns the byte ranges not yet received.
func (u *uploadSession) missing() []byteRange {
	var out []byteRange
	var at int64
	for _, r := range u.Received {
		if r.Start > at {
			out = append(out, byteRange{Start: at, End: r.Start})
		}
		at = r.End
	}
	if at < u.Size {
		out = append(out, byteRange{Start: at, End: u.Size})
	}
	return out
}

func (u *uploadSession) spillPath(dir string) string { return filepath.Join(dir, u.File) }

// uploadStatus is the wire form of a session's progress.
type uploadStatus struct {
	Token    string      `json:"token"`
	Dataset  string      `json:"dataset"`
	Size     int64       `json:"size"`
	Received int64       `json:"received"`
	Complete bool        `json:"complete"`
	Missing  []byteRange `json:"missing,omitempty"`
}

func (u *uploadSession) status() uploadStatus {
	return uploadStatus{
		Token:    u.Token,
		Dataset:  u.Dataset,
		Size:     u.Size,
		Received: u.receivedBytes(),
		Complete: u.complete(),
		Missing:  u.missing(),
	}
}

func newUploadToken() (string, error) {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", err
	}
	return hex.EncodeToString(b[:]), nil
}

// persistSession writes the session record to the WAL. Callers hold s.mu.
func (s *Server) persistSession(u *uploadSession) error {
	raw, err := json.Marshal(u)
	if err != nil {
		return err
	}
	return s.db.Put(bucketUploads, u.Token, raw)
}

// reloadUploads restores persisted upload sessions at boot and sweeps
// spill files no session references (crash residue from finalize/abort).
// A session whose spill file is missing or mis-sized restarts from zero:
// the file is recreated at full size and its received set cleared.
func (s *Server) reloadUploads() error {
	live := map[string]bool{}
	for _, token := range s.db.Keys(bucketUploads) {
		raw, ok := s.db.Get(bucketUploads, token)
		if !ok {
			continue
		}
		var sess uploadSession
		if json.Unmarshal(raw, &sess) != nil || sess.Token != token || sess.Size <= 0 || sess.File == "" {
			// Unreadable record: drop it rather than carry junk forever.
			if err := s.db.Delete(bucketUploads, token); err != nil {
				return err
			}
			continue
		}
		if sess.Updated == 0 {
			// Pre-expiry record: date it from boot so it gets a full idle
			// window before the TTL sweep may claim it.
			sess.Updated = time.Now().Unix()
		}
		spill := sess.spillPath(s.uploadDir)
		if st, err := os.Stat(spill); err != nil || st.Size() != sess.Size {
			sess.Received = nil
			f, err := os.OpenFile(spill, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
			if err != nil {
				return fmt.Errorf("server: recreate upload spill: %w", err)
			}
			if err := f.Truncate(sess.Size); err != nil {
				f.Close()
				return fmt.Errorf("server: size upload spill: %w", err)
			}
			if err := f.Close(); err != nil {
				return err
			}
			if err := s.persistSession(&sess); err != nil {
				return err
			}
		}
		s.sessions[token] = &sess
		live[sess.File] = true
	}
	entries, err := os.ReadDir(s.uploadDir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.IsDir() || live[e.Name()] {
			continue
		}
		if err := os.Remove(filepath.Join(s.uploadDir, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

// handleCreateUpload starts a chunked upload session for a dataset.
func (s *Server) handleCreateUpload(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if name == "" {
		writeErr(w, http.StatusBadRequest, errors.New("dataset name required"))
		return
	}
	var req struct {
		Size int64 `json:"size"`
	}
	if !decodeBody(w, r, maxRequestBody, &req) {
		return
	}
	if req.Size <= 0 {
		writeErr(w, http.StatusBadRequest, errors.New("upload size must be positive"))
		return
	}
	if req.Size > maxUploadBytes {
		writeErr(w, http.StatusRequestEntityTooLarge, errors.New("upload exceeds size limit"))
		return
	}
	// Make room by expiring idle sessions before judging the cap.
	s.mu.Lock()
	stale := s.expireSessionsLocked(time.Now())
	s.mu.Unlock()
	for _, spill := range stale {
		os.Remove(spill)
	}
	sess, err := s.newSession(name, req.Size, "")
	switch {
	case errors.Is(err, errTooManySessions):
		writeErr(w, http.StatusTooManyRequests, err)
	case err != nil:
		writeErr(w, http.StatusInternalServerError, err)
	default:
		s.mu.RLock()
		st := sess.status()
		s.mu.RUnlock()
		writeJSON(w, http.StatusCreated, st)
	}
}

// errTooManySessions is the cap on concurrent upload sessions.
var errTooManySessions = errors.New("too many concurrent upload sessions")

// newSession creates and registers an upload session of size bytes for
// dataset name: client uploads and, with source naming the peer, cluster
// hydrations. Its spill is preallocated at full size so offset writes
// never extend the file and a restart can distinguish "spill intact" from
// "spill lost".
func (s *Server) newSession(name string, size int64, source string) (*uploadSession, error) {
	token, err := newUploadToken()
	if err != nil {
		return nil, err
	}
	sess := &uploadSession{
		Token:   token,
		Dataset: name,
		Size:    size,
		File:    "spill-" + token,
		Source:  source,
		Updated: time.Now().Unix(),
	}
	f, err := os.OpenFile(sess.spillPath(s.uploadDir), os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
	if err != nil {
		return nil, err
	}
	err = f.Truncate(size)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		// Cap check and insert are one atomic step, so concurrent creates
		// cannot race past the limit between a check and an insert.
		s.mu.Lock()
		if len(s.sessions) >= maxUploadSessions {
			err = errTooManySessions
		} else if err = s.persistSession(sess); err == nil {
			s.sessions[token] = sess
		}
		s.mu.Unlock()
	}
	if err != nil {
		os.Remove(sess.spillPath(s.uploadDir))
		return nil, err
	}
	return sess, nil
}

// expireSessionsLocked closes and unregisters sessions idle for longer
// than uploadSessionTTL, returning their spill paths for the caller to
// remove outside the lock. Callers hold s.mu.
func (s *Server) expireSessionsLocked(now time.Time) []string {
	var spills []string
	cutoff := now.Add(-uploadSessionTTL).Unix()
	for token, sess := range s.sessions {
		if sess.closed || sess.Updated > cutoff {
			continue
		}
		sess.closed = true
		delete(s.sessions, token)
		s.db.Delete(bucketUploads, token)
		spills = append(spills, sess.spillPath(s.uploadDir))
	}
	return spills
}

// parseContentRange parses "bytes <start>-<end>/<total>" (end inclusive,
// per RFC 9110) into a half-open [start, end+1) byte range.
func parseContentRange(h string) (start, end, total int64, err error) {
	const prefix = "bytes "
	if !strings.HasPrefix(h, prefix) {
		return 0, 0, 0, fmt.Errorf("bad Content-Range %q", h)
	}
	rangePart, totalPart, ok := strings.Cut(h[len(prefix):], "/")
	if !ok {
		return 0, 0, 0, fmt.Errorf("bad Content-Range %q", h)
	}
	startPart, endPart, ok := strings.Cut(rangePart, "-")
	if !ok {
		return 0, 0, 0, fmt.Errorf("bad Content-Range %q", h)
	}
	if start, err = strconv.ParseInt(startPart, 10, 64); err != nil {
		return 0, 0, 0, fmt.Errorf("bad Content-Range start %q", startPart)
	}
	if end, err = strconv.ParseInt(endPart, 10, 64); err != nil {
		return 0, 0, 0, fmt.Errorf("bad Content-Range end %q", endPart)
	}
	if total, err = strconv.ParseInt(totalPart, 10, 64); err != nil {
		return 0, 0, 0, fmt.Errorf("bad Content-Range total %q", totalPart)
	}
	if start < 0 || end < start || total <= end {
		return 0, 0, 0, fmt.Errorf("inconsistent Content-Range %q", h)
	}
	return start, end, total, nil
}

// lookupSession fetches the session for a chunk or status request.
func (s *Server) lookupSession(name, token string) (*uploadSession, error) {
	if token == "" {
		return nil, errors.New("upload token required")
	}
	s.mu.RLock()
	sess, ok := s.sessions[token]
	s.mu.RUnlock()
	if !ok || sess.Dataset != name {
		return nil, fmt.Errorf("no upload session %q for dataset %q", token, name)
	}
	return sess, nil
}

// handleUploadChunk receives one Content-Range slice of a session's bytes.
// Duplicate and out-of-order chunks are accepted; an interrupted body
// leaves the session exactly as it was. The final chunk — whichever one
// closes the coverage — finalizes the upload and answers 201 with the
// registered dataset; earlier chunks answer 202 with progress.
func (s *Server) handleUploadChunk(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	sess, err := s.lookupSession(name, r.Header.Get("Upload-Token"))
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	start, end, total, err := parseContentRange(r.Header.Get("Content-Range"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if total != sess.Size {
		writeErr(w, http.StatusRequestedRangeNotSatisfiable,
			fmt.Errorf("Content-Range total %d does not match session size %d", total, sess.Size))
		return
	}
	want := end - start + 1
	// Admission: a closed session (finalizing, aborted, or expired) must
	// not have its spill reopened — once finalize validates the bytes, a
	// stray writer into the adopted, mmap'd snapshot would break the
	// zero-copy invariant that opened views are safe to index.
	s.mu.Lock()
	if sess.closed {
		st := sess.status()
		s.mu.Unlock()
		writeJSON(w, http.StatusConflict, st)
		return
	}
	sess.writers.Add(1)
	s.mu.Unlock()
	if code, err := s.writeChunk(sess, start, want, r.Body); err != nil {
		sess.writers.Done()
		writeErr(w, code, err)
		return
	}
	sess.writers.Done()
	s.mu.Lock()
	if sess.closed {
		// The session finalized (or was aborted) while our bytes were in
		// flight. The write went to an unlinked or about-to-be-validated
		// file and was never recorded; tell the client where things stand
		// rather than resurrect the session's WAL record.
		st := sess.status()
		s.mu.Unlock()
		writeJSON(w, http.StatusConflict, st)
		return
	}
	sess.Received = mergeRange(sess.Received, byteRange{Start: start, End: end + 1})
	sess.Updated = time.Now().Unix()
	err = s.persistSession(sess)
	done := err == nil && sess.complete()
	if done {
		// Electing this request the sole finalizer: every later chunk —
		// including a duplicate retry of this one — bounces off closed
		// above instead of double-finalizing.
		sess.closed = true
	}
	st := sess.status()
	s.mu.Unlock()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	if !done {
		writeJSON(w, http.StatusAccepted, st)
		return
	}
	s.finalizeUpload(w, sess)
}

// writeChunk copies want bytes of body into the session spill at offset
// start and syncs them. The bounded copy straight to the offset keeps
// per-request memory at one copy buffer, independent of chunk and dataset
// size. A non-nil error reports the HTTP status to answer with; nothing
// is recorded, so the client simply retries the same range. Sparse
// partial bytes from an interrupted copy are harmless — the range only
// becomes trusted when fully written and synced.
func (s *Server) writeChunk(sess *uploadSession, start, want int64, body io.Reader) (int, error) {
	f, err := os.OpenFile(sess.spillPath(s.uploadDir), os.O_WRONLY, 0)
	if err != nil {
		return http.StatusInternalServerError, err
	}
	n, err := io.Copy(io.NewOffsetWriter(f, start), io.LimitReader(body, want))
	if err != nil {
		f.Close()
		return http.StatusInternalServerError, fmt.Errorf("chunk body: %w", err)
	}
	if n != want {
		f.Close()
		return http.StatusBadRequest,
			fmt.Errorf("chunk body has %d bytes, Content-Range promised %d", n, want)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return http.StatusInternalServerError, err
	}
	if err := f.Close(); err != nil {
		return http.StatusInternalServerError, err
	}
	return 0, nil
}

// finalizeUpload answers the chunk request that closed the coverage with
// the outcome of completeSession.
func (s *Server) finalizeUpload(w http.ResponseWriter, sess *uploadSession) {
	info, status, err := s.completeSession(sess)
	if err != nil {
		writeErr(w, status, err)
		return
	}
	writeJSON(w, status, info)
}

// completeSession registers a fully-received spill (register: validate,
// hash, adopt, serve). Shared tail of client chunk uploads and cluster
// snapshot hydration. The session is consumed either way: a corrupt
// transfer is discarded rather than left around to re-fail forever. The
// caller must have set sess.closed under s.mu, electing itself the only
// finalizer. Returns the dataset description and an HTTP status.
func (s *Server) completeSession(sess *uploadSession) (datasetInfo, int, error) {
	// Drain straggling chunk writes (duplicate retries of ranges other
	// chunks already covered). closed is set, so no new writer can start:
	// after Wait the spill is quiescent, and whatever those writers left
	// behind is exactly what register validates below.
	sess.writers.Wait()
	ds, err := s.register(sess.Dataset, sess.spillPath(s.uploadDir))
	s.mu.Lock()
	delete(s.sessions, sess.Token)
	s.db.Delete(bucketUploads, sess.Token)
	s.mu.Unlock()
	switch {
	case errors.Is(err, errInvalidSnapshot):
		return datasetInfo{}, http.StatusUnprocessableEntity, err
	case err != nil:
		return datasetInfo{}, http.StatusInternalServerError, err
	}
	return describe(sess.Dataset, ds), http.StatusCreated, nil
}

func (s *Server) handleUploadStatus(w http.ResponseWriter, r *http.Request) {
	sess, err := s.lookupSession(r.PathValue("name"), r.PathValue("token"))
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	s.mu.RLock()
	st := sess.status()
	s.mu.RUnlock()
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleAbortUpload(w http.ResponseWriter, r *http.Request) {
	sess, err := s.lookupSession(r.PathValue("name"), r.PathValue("token"))
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	s.mu.Lock()
	if sess.closed {
		s.mu.Unlock()
		writeErr(w, http.StatusConflict, errors.New("upload session is finalizing"))
		return
	}
	sess.closed = true
	delete(s.sessions, sess.Token)
	err = s.db.Delete(bucketUploads, sess.Token)
	s.mu.Unlock()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	os.Remove(sess.spillPath(s.uploadDir))
	w.WriteHeader(http.StatusNoContent)
}
