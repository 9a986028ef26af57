package server

import (
	"encoding/json"
	"html/template"
	"net/http"
	"sort"

	"fairrank/internal/jobs"
)

// dashboardTmpl renders the single-page overview served at GET /.
var dashboardTmpl = template.Must(template.New("dashboard").Funcs(template.FuncMap{
	"deref": func(p *float64) float64 { return *p },
}).Parse(`<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>fairrank</title>
<style>
body { font-family: system-ui, sans-serif; margin: 2rem auto; max-width: 60rem; color: #1a1a1a; }
h1 { font-size: 1.5rem; } h2 { font-size: 1.1rem; margin-top: 2rem; }
table { border-collapse: collapse; width: 100%; }
th, td { text-align: left; padding: .35rem .6rem; border-bottom: 1px solid #ddd; }
th { background: #f5f5f5; }
.num { text-align: right; font-variant-numeric: tabular-nums; }
.sig { color: #b00020; font-weight: 600; }
.muted { color: #777; }
code { background: #f5f5f5; padding: .1rem .3rem; border-radius: 3px; }
</style>
</head>
<body>
<h1>fairrank — fairness of ranking in online job marketplaces</h1>
<p class="muted">Exploring the most unfair partitioning of worker populations
under task-qualification scoring functions (EDBT 2019 reproduction).</p>

<h2>Datasets ({{len .Datasets}})</h2>
{{if .Datasets}}
<table><tr><th>name</th><th class="num">workers</th><th>protected attributes</th></tr>
{{range .Datasets}}<tr><td><code>{{.Name}}</code></td><td class="num">{{.Workers}}</td><td>{{range .Protected}}{{.}} {{end}}</td></tr>
{{end}}</table>
{{else}}<p class="muted">none — upload with <code>POST /v1/datasets/{name}</code></p>{{end}}

<h2>Tasks ({{len .Tasks}})</h2>
{{if .Tasks}}
<table><tr><th>id</th><th>title</th><th>dataset</th></tr>
{{range .Tasks}}<tr><td><code>{{.ID}}</code></td><td>{{.Title}}</td><td><code>{{.Dataset}}</code></td></tr>
{{end}}</table>
{{else}}<p class="muted">none — post with <code>POST /v1/tasks</code></p>{{end}}

<h2>Recent audits ({{len .Audits}})</h2>
{{if .Audits}}
<table><tr><th>job</th><th>data</th><th>algorithm</th><th class="num">unfairness</th><th class="num">groups</th><th class="num">p-value</th></tr>
{{range .Audits}}<tr><td><code>{{.ID}}</code></td><td><code>{{.Dataset}}</code></td><td>{{.Algorithm}}</td>
<td class="num{{if gt .Unfairness 0.4}} sig{{end}}">{{printf "%.3f" .Unfairness}}</td>
<td class="num">{{.Partitions}}</td>
<td class="num">{{with .PValue}}{{printf "%.3f" (deref .)}}{{else}}–{{end}}</td></tr>
{{end}}</table>
{{else}}<p class="muted">none — submit with <code>POST /v1/jobs</code></p>{{end}}
</body>
</html>
`))

// dashboardAudits caps the audit table at the most recent done jobs.
const dashboardAudits = 20

// dashboardAudit is one row of the audit table: a done job's result
// summary.
type dashboardAudit struct {
	ID string
	*resultSummary
}

type dashboardData struct {
	Datasets []datasetInfo
	Tasks    []taskSpec
	Audits   []dashboardAudit
}

func (s *Server) handleDashboard(w http.ResponseWriter, r *http.Request) {
	data := dashboardData{}
	s.mu.RLock()
	names := make([]string, 0, len(s.datasets))
	for n := range s.datasets {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		data.Datasets = append(data.Datasets, describe(n, s.datasets[n]))
	}
	s.mu.RUnlock()
	for _, id := range s.db.Keys(bucketTasks) {
		raw, ok := s.db.Get(bucketTasks, id)
		if !ok {
			continue
		}
		var t taskSpec
		if json.Unmarshal(raw, &t) == nil {
			data.Tasks = append(data.Tasks, t)
		}
	}
	done, _ := s.listJobs(jobs.StateDone, 0, dashboardAudits)
	for _, j := range done {
		if j.Summary != nil {
			data.Audits = append(data.Audits, dashboardAudit{ID: j.ID, resultSummary: j.Summary})
		}
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := dashboardTmpl.Execute(w, data); err != nil {
		// Headers already sent; nothing better to do than log-by-status.
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
