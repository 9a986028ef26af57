// Cluster integration: the server side of internal/cluster. This file
// wires the four tentpole pieces into HTTP:
//
//   - membership/placement: EnableCluster starts the peer loop;
//     GET /v1/cluster and GET /v1/cluster/ping expose status and
//     heartbeats; handleSubmitJob (jobs.go) forwards to ring owners.
//   - work-stealing: POST /v1/cluster/steal and /v1/cluster/ack are the
//     victim side over jobs.ClaimQueued/AckClaims; the thief side lives
//     in the cluster loop and lands jobs through clusterNode.SubmitLocal.
//   - scatter-gather reads: scatterListJobs / scatterGetJob (jobs.go).
//   - snapshot shipping: GET /v1/datasets/{name}/snapshot exports the
//     columnar file Range-capably; hydrateFromPeer pulls it through the
//     resumable chunked-upload path, so a hydration interrupted by a
//     crash resumes from the persisted byte ranges and ends CRC-checked
//     by dataset.OpenSnapshot like any other upload.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"time"

	"fairrank/internal/cluster"
	"fairrank/internal/jobs"
)

// clusterNode adapts *Server to cluster.Node.
type clusterNode struct{ s *Server }

func (n clusterNode) Depth() (queued, running int) { return n.s.jobs.Depth() }

// Datasets is the local inventory: every registered dataset name. It
// stays keyed by name, not content: placement and stealing ask whether a
// peer can resolve the name a spec carries.
func (n clusterNode) Datasets() []string {
	n.s.mu.RLock()
	defer n.s.mu.RUnlock()
	out := make([]string, 0, len(n.s.datasets))
	for name := range n.s.datasets {
		out = append(out, name)
	}
	return out
}

// SubmitLocal enqueues a raw wire spec on the local queue — the landing
// path for stolen and re-placed jobs. decodeJob recomputes the dedup key
// and pins this node's own content here, so cluster-wide dedup can never
// coalesce two specs that would produce different results.
func (n clusterNode) SubmitLocal(spec json.RawMessage) error {
	sp, hash, err := n.s.decodeJob(spec)
	if err != nil {
		return err
	}
	_, _, err = n.s.jobs.Submit(sp, hash)
	return err
}

func (n clusterNode) Hydrate(name, peerURL string) error {
	_, err := n.s.hydrateFromPeer(name, peerURL)
	return err
}

// EnableCluster joins this server to a fairserve cluster. Call after New
// (and, in tests, after the HTTP listener exists so cfg.Self is known);
// the routes are mounted unconditionally and answer "disabled" until
// this runs. Metrics and logging default to the server's own.
func (s *Server) EnableCluster(cfg cluster.Config) error {
	if cfg.Metrics == nil {
		cfg.Metrics = s.metrics
	}
	if cfg.Logf == nil {
		cfg.Logf = s.logf
	}
	s.mu.RLock()
	already := s.cluster != nil
	s.mu.RUnlock()
	if already {
		return errors.New("server: cluster already enabled")
	}
	c, err := cluster.New(clusterNode{s}, cfg)
	if err != nil {
		return err
	}
	s.mu.Lock()
	if s.cluster != nil {
		s.mu.Unlock()
		c.Close()
		return errors.New("server: cluster already enabled")
	}
	s.cluster = c
	s.mu.Unlock()
	return nil
}

// Cluster exposes the cluster layer (tests, status tooling); nil when
// standalone.
func (s *Server) Cluster() *cluster.Cluster { return s.clusterRef() }

func (s *Server) clusterRef() *cluster.Cluster {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.cluster
}

func (s *Server) handleClusterStatus(w http.ResponseWriter, r *http.Request) {
	c := s.clusterRef()
	if c == nil {
		writeJSON(w, http.StatusOK, cluster.Status{Enabled: false})
		return
	}
	writeJSON(w, http.StatusOK, c.Status())
}

func (s *Server) handleClusterPing(w http.ResponseWriter, r *http.Request) {
	c := s.clusterRef()
	if c == nil {
		writeErr(w, http.StatusNotFound, errors.New("clustering disabled"))
		return
	}
	queued, running := s.jobs.Depth()
	writeJSON(w, http.StatusOK, c.Ping(queued, running, s.jobs.Claimed()))
}

// handleClusterSteal is the victim side of work-stealing: atomically
// claim up to Max dispatchable queued jobs whose dataset the thief
// holds, and park them awaiting the ack.
func (s *Server) handleClusterSteal(w http.ResponseWriter, r *http.Request) {
	c := s.clusterRef()
	if c == nil {
		writeErr(w, http.StatusNotFound, errors.New("clustering disabled"))
		return
	}
	body, ok := readBody(w, r, cluster.MaxMessageBytes)
	if !ok {
		return
	}
	req, err := cluster.DecodeStealRequest(body)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	have := map[string]bool{}
	for _, name := range req.Datasets {
		have[name] = true
	}
	eligible := func(sp jobs.Spec) bool { return have[sp.Dataset] }
	claims := s.jobs.ClaimQueued(req.Max, eligible, req.Thief, 0)
	resp := cluster.StealResponse{}
	for _, cl := range claims {
		// The digest pins this node's content; the thief pins its own, and
		// its submit path refuses a spec that carries one.
		sp := cl.Spec
		sp.Digest = ""
		raw, err := json.Marshal(sp)
		if err != nil {
			continue // unmarshalable spec cannot travel; its claim expires
		}
		resp.Claims = append(resp.Claims, cluster.StealClaim{
			Token:    cl.Token,
			JobID:    cl.JobID,
			SpecHash: cl.SpecHash,
			Spec:     raw,
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleClusterAck finalizes a steal handoff: the thief has durably
// enqueued the jobs, so the victim's copies become terminal ("stolen").
func (s *Server) handleClusterAck(w http.ResponseWriter, r *http.Request) {
	c := s.clusterRef()
	if c == nil {
		writeErr(w, http.StatusNotFound, errors.New("clustering disabled"))
		return
	}
	body, ok := readBody(w, r, cluster.MaxMessageBytes)
	if !ok {
		return
	}
	req, err := cluster.DecodeAckRequest(body)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, cluster.AckResponse{Acked: s.jobs.AckClaims(req.Tokens)})
}

// handleSnapshotExport streams a stored snapshot's bytes. ServeContent
// gives Range and HEAD semantics for free — exactly what resumable
// hydration needs on the receiving side.
func (s *Server) handleSnapshotExport(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	f, ref, err := s.snaps.Open(name)
	if err != nil {
		writeErr(w, http.StatusNotFound, fmt.Errorf("snapshot %q not found", name))
		return
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", contentTypeSnapshot)
	http.ServeContent(w, r, ref.File, st.ModTime(), f)
}

// hydrateRequest is the POST /v1/cluster/hydrate body: pull one named
// snapshot from a peer right now (the automatic path does the same on
// the heartbeat loop).
type hydrateRequest struct {
	Name string `json:"name"`
	Peer string `json:"peer"`
}

func (s *Server) handleClusterHydrate(w http.ResponseWriter, r *http.Request) {
	c := s.clusterRef()
	if c == nil {
		writeErr(w, http.StatusNotFound, errors.New("clustering disabled"))
		return
	}
	var req hydrateRequest
	if !decodeBody(w, r, maxRequestBody, &req) {
		return
	}
	if req.Name == "" || req.Peer == "" {
		writeErr(w, http.StatusBadRequest, errors.New("name and peer are required"))
		return
	}
	info, err := s.hydrateFromPeer(req.Name, req.Peer)
	if err != nil {
		writeErr(w, http.StatusBadGateway, err)
		return
	}
	writeJSON(w, http.StatusCreated, info)
}

// hydrateChunkBytes is the Range-request granularity for snapshot
// hydration. 4 MiB amortizes request overhead while keeping any single
// retry cheap; progress persists per chunk, so that is also the most
// re-transfer a crash can cost.
const hydrateChunkBytes int64 = 4 << 20

// hydrateClient is the peer transfer client. Generous per-request
// timeout: a request moves at most hydrateChunkBytes.
var hydrateClient = &http.Client{Timeout: 60 * time.Second}

// hydrateFromPeer pulls the named snapshot from peerURL through the
// resumable-upload machinery: an uploadSession (with Source set) tracks
// received ranges durably, chunks arrive as HTTP Range reads written at
// their offset, and completion runs the same validate→adopt→register
// tail as a client upload — including the snapshot CRC check at open.
// One hydration per name runs at a time; a failed transfer leaves the
// session behind and the next call resumes where it stopped. It returns
// the registered dataset's description.
func (s *Server) hydrateFromPeer(name, peerURL string) (datasetInfo, error) {
	s.mu.Lock()
	if s.hydrating[name] {
		s.mu.Unlock()
		return datasetInfo{}, fmt.Errorf("hydration of %q already in flight", name)
	}
	s.hydrating[name] = true
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.hydrating, name)
		s.mu.Unlock()
	}()

	src := peerURL + "/v1/datasets/" + url.PathEscape(name) + "/snapshot"
	size, err := s.probeSnapshotSize(src)
	if err != nil {
		return datasetInfo{}, err
	}
	sess, err := s.hydrationSession(name, peerURL, size)
	if err != nil {
		return datasetInfo{}, err
	}
	for {
		s.mu.Lock()
		if sess.closed {
			// Lost a race with expiry/abort; restart next tick.
			s.mu.Unlock()
			return datasetInfo{}, fmt.Errorf("hydration session for %q closed underneath", name)
		}
		if sess.complete() {
			sess.closed = true // elected finalizer
			s.mu.Unlock()
			break
		}
		missing := sess.missing()
		chunk := missing[0]
		if chunk.End-chunk.Start > hydrateChunkBytes {
			chunk.End = chunk.Start + hydrateChunkBytes
		}
		sess.writers.Add(1)
		s.mu.Unlock()

		err := s.fetchHydrateChunk(src, sess, chunk)
		sess.writers.Done()
		if err != nil {
			return datasetInfo{}, fmt.Errorf("hydrate %q from %s: %w", name, peerURL, err)
		}
		s.mu.Lock()
		if !sess.closed {
			sess.Received = mergeRange(sess.Received, chunk)
			sess.Updated = time.Now().Unix()
			err = s.persistSession(sess)
		}
		s.mu.Unlock()
		if err != nil {
			return datasetInfo{}, err
		}
	}
	info, _, err := s.completeSession(sess)
	return info, err
}

// probeSnapshotSize HEADs the export route for the authoritative size.
func (s *Server) probeSnapshotSize(src string) (int64, error) {
	req, err := http.NewRequest(http.MethodHead, src, nil)
	if err != nil {
		return 0, err
	}
	resp, err := hydrateClient.Do(req)
	if err != nil {
		return 0, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("snapshot probe %s: status %d", src, resp.StatusCode)
	}
	size := resp.ContentLength
	if size <= 0 {
		return 0, fmt.Errorf("snapshot probe %s: no content length", src)
	}
	if size > maxUploadBytes {
		return 0, fmt.Errorf("snapshot %s exceeds upload size limit", src)
	}
	return size, nil
}

// hydrationSession finds the resumable session for (name, source) or
// creates one. A size mismatch (the peer re-uploaded the dataset)
// discards the stale partial and starts over.
func (s *Server) hydrationSession(name, peerURL string, size int64) (*uploadSession, error) {
	s.mu.Lock()
	var stale *uploadSession
	for _, u := range s.sessions {
		if u.Dataset != name || u.Source == "" || u.closed {
			continue
		}
		if u.Size == size {
			s.mu.Unlock()
			return u, nil
		}
		stale = u
		break
	}
	if stale != nil {
		stale.closed = true
		delete(s.sessions, stale.Token)
		s.db.Delete(bucketUploads, stale.Token)
	}
	s.mu.Unlock()
	if stale != nil {
		os.Remove(stale.spillPath(s.uploadDir))
	}
	return s.newSession(name, size, peerURL)
}

// fetchHydrateChunk GETs one byte range from the peer and writes it at
// its offset in the session spill via the shared writeChunk path.
func (s *Server) fetchHydrateChunk(src string, sess *uploadSession, r byteRange) error {
	req, err := http.NewRequest(http.MethodGet, src, nil)
	if err != nil {
		return err
	}
	req.Header.Set("Range", fmt.Sprintf("bytes=%d-%d", r.Start, r.End-1))
	resp, err := hydrateClient.Do(req)
	if err != nil {
		return err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	want := r.End - r.Start
	switch resp.StatusCode {
	case http.StatusPartialContent:
	case http.StatusOK:
		// Peer ignored the Range header; only acceptable when the chunk is
		// the whole file.
		if r.Start != 0 || want != sess.Size {
			return fmt.Errorf("peer ignored Range request for %s", src)
		}
	default:
		return fmt.Errorf("range GET %s: status %d", src, resp.StatusCode)
	}
	if _, err := s.writeChunk(sess, r.Start, want, resp.Body); err != nil {
		return err
	}
	return nil
}
