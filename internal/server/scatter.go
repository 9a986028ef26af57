// Scatter-gather job reads. In a cluster, GET /v1/jobs and
// GET /v1/jobs/{id} answer for the whole fleet: the request fans out to
// every live peer (with per-peer timeouts, stamped with the scatter
// loop-guard header so peers answer locally), the pages merge into one
// stable global ordering, and a down peer degrades the answer to
// partial: true instead of failing it.
package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"sort"

	"fairrank/internal/cluster"
	"fairrank/internal/jobs"
)

// scatterListJobs merges every live node's job list into one page.
// Each node is asked for the first offset+limit entries of its own
// newest-first ordering; the union re-sorts (ID descending, node ID
// ascending on ties — stable across nodes) and the global page is cut
// from that. The per-node ask clamps at maxJobPage, the same depth
// bound a standalone node enforces.
func (s *Server) scatterListJobs(w http.ResponseWriter, c *cluster.Cluster, state jobs.State, offset, limit int) {
	want := offset + limit
	if want > maxJobPage {
		want = maxJobPage
	}
	rows, localTotal := s.listJobs(state, 0, want)
	for i := range rows {
		rows[i].Node = c.NodeID()
	}
	total := localTotal
	partial := c.DownPeers() > 0 // dead peers were never asked
	peers := c.AlivePeers()
	type answer struct {
		peer cluster.PeerRef
		page jobPage
		err  error
	}
	results := make(chan answer, len(peers))
	for _, p := range peers {
		go func(p cluster.PeerRef) {
			u := fmt.Sprintf("%s/v1/jobs?limit=%d&offset=0", p.URL, want)
			if state != "" {
				u += "&state=" + url.QueryEscape(string(state))
			}
			status, body, err := c.Fetch(u)
			if err == nil && status != http.StatusOK {
				err = fmt.Errorf("peer %s: status %d", p.URL, status)
			}
			var page jobPage
			if err == nil {
				err = json.Unmarshal(body, &page)
			}
			results <- answer{peer: p, page: page, err: err}
		}(p)
	}
	for range peers {
		a := <-results
		if a.err != nil {
			partial = true
			continue
		}
		total += a.page.Total
		for _, j := range a.page.Jobs {
			j.Node = a.peer.ID
			rows = append(rows, j)
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].ID != rows[j].ID {
			return rows[i].ID > rows[j].ID // newest first, matching Queue.List
		}
		return rows[i].Node < rows[j].Node
	})
	if offset > len(rows) {
		rows = rows[len(rows):]
	} else {
		rows = rows[offset:]
	}
	if limit < len(rows) {
		rows = rows[:limit]
	}
	writeJSON(w, http.StatusOK, jobPage{
		Jobs: rows, Total: total, Offset: offset, Limit: limit, Partial: partial,
	})
}

// scatterGetJob looks a job ID up across the fleet after a local miss,
// visiting live peers in stable node-ID order and returning the first
// hit. A miss while some peer was unreachable is flagged partial: the
// job may exist on the down node.
func (s *Server) scatterGetJob(w http.ResponseWriter, c *cluster.Cluster, id string) {
	partial := c.DownPeers() > 0
	for _, p := range c.AlivePeers() {
		status, body, err := c.Fetch(p.URL + "/v1/jobs/" + url.PathEscape(id))
		if err != nil {
			partial = true
			continue
		}
		if status != http.StatusOK {
			continue
		}
		// The peer wrote the whole body, its own node field included.
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(body)
		return
	}
	writeJSON(w, http.StatusNotFound, struct {
		Error   string `json:"error"`
		Partial bool   `json:"partial,omitempty"`
	}{Error: fmt.Sprintf("job %q not found", id), Partial: partial})
}
