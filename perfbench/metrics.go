package main

import (
	"fmt"
	"time"
)

// layerMetrics are the per-layer metrics of a traced run. README.md maps
// each to the end-to-end metric and workload it should move. Time metrics
// are span means; layers off this workload's request path come from the
// once-per-run sweep on the same population.
func (b *bench) layerMetrics(d nodeDelta, wall, cpu time.Duration) []metric {
	st := b.all.stats()
	mean := func(name string) float64 {
		s := st[name]
		if s == nil || s.calls == 0 {
			return 0
		}
		return ms(s.total) / float64(s.calls)
	}
	ops := 0
	for _, s := range b.ops {
		ops += s.attempted
	}
	perOp := func(v float64) float64 { return ratio(v, float64(ops)) }

	var reqSum, reqCount float64
	for _, r := range routes {
		if r == sseRoute {
			continue
		}
		label := fmt.Sprintf("route=%q", r)
		reqSum += d.sum("fairrank_http_request_seconds_sum", label)
		reqCount += d.sum("fairrank_http_request_seconds_count", label)
	}

	var stats struct{ hits, computed, copied, pruned, runs float64 }
	for _, r := range b.audit.refs {
		stats.hits += float64(r.stats.CacheHits)
		stats.computed += float64(r.stats.PairsComputed)
		stats.copied += float64(r.stats.PairsCopied)
		stats.pruned += float64(r.stats.PairsPruned)
		stats.runs++
	}
	slots := stats.hits + stats.computed + stats.copied + stats.pruned

	resubmits := 0
	if s := b.ops["resubmit"]; s != nil {
		resubmits = s.attempted
	}
	submits := float64(resubmits)
	if s := b.ops["audit"]; s != nil {
		submits += float64(s.attempted)
	}
	progress := 0
	for _, p := range b.audit.progress {
		progress += p
	}
	pool := 0
	for _, p := range b.serve.pool {
		pool += p
	}
	gcCycles, pauseNs, alloc := d.gc()

	overhead := 0.0
	if prim := b.ops[b.w.primary]; prim != nil && len(prim.traced) > 0 && len(prim.plain) > 0 {
		overhead = (median(prim.traced)/median(prim.plain) - 1) * 100
	}

	m := []metric{
		{"server.request_ms", "ms", 1000 * ratio(reqSum, reqCount)},
		{"server.response_kb", "kB", ratio(float64(b.respBytes), float64(b.requests)) / 1024},
		{"server.decode_ms", "ms", mean("server.decode")},
		{"jobs.progress_events", "count", ratio(float64(progress), float64(len(b.audit.progress)))},
		{"jobs.result_cache_hit_ratio", "ratio", ratio(d.sum("fairrank_jobs_result_cache_hits_total"), float64(resubmits))},
		{"core.hash_ms", "ms", mean("core.hash")},
	}
	for _, alg := range auditAlgorithms {
		m = append(m, metric{"core.run_ms." + alg, "ms", mean("core.run." + alg)})
	}
	m = append(m,
		metric{"core.probes_per_run", "count", ratio(d.sum("fairrank_engine_probes_total"), d.sum("fairrank_engine_runs_total"))},
		metric{"core.pair_cache_hit_ratio", "ratio", ratio(stats.hits, stats.hits+stats.computed)},
		metric{"core.pairs_pruned_ratio", "ratio", ratio(stats.pruned, slots)},
		metric{"emd.evaluations_per_run", "count", ratio(stats.computed, stats.runs)},
		metric{"scoring.score_ms", "ms", mean("scoring.score")},
		metric{"dataset.open_ms", "ms", mean("dataset.open")},
		metric{"dataset.ingest_mb_per_s", "MB/s", ratio(float64(b.pop.size)/(1<<20), b.uploadS)},
		metric{"store.puts_per_op", "count", perOp(d.sum("fairrank_store_puts_total"))},
		metric{"store.bytes_per_op", "B", perOp(d.sum("fairrank_store_bytes_written_total"))},
		metric{"marketplace.rank_ms", "ms", mean("marketplace.rank")},
		metric{"marketplace.ndcg_ms", "ms", mean("marketplace.ndcg")},
		metric{"marketplace.pool_size", "count", ratio(float64(pool), float64(len(b.serve.pool)))},
		metric{"query.filter_ms", "ms", mean("query.filter")},
	)
	for _, alg := range pageAlgorithms[1:] {
		m = append(m, metric{"rerank.serve_ms." + alg, "ms", mean("rerank.serve." + alg)})
	}
	m = append(m,
		metric{"drift.apply_us_per_event", "us", 1000 * mean("drift.apply") / eventBatch},
		metric{"drift.alarm_transitions", "count", float64(b.serve.timedAlarms)},
		metric{"drift.seed_ms", "ms", mean("drift.seed")},
		metric{"cluster.forward_ratio", "ratio", ratio(d.sum("fairrank_cluster_forwards_total"), submits)},
		metric{"cluster.steals", "count", d.sum("fairrank_cluster_steals_total")},
		metric{"process.gc_cycles_per_op", "count", perOp(gcCycles)},
		metric{"process.alloc_mb_per_op", "MB", perOp(alloc) / (1 << 20)},
		metric{"process.gc_pause_ms", "ms", perOp(pauseNs) / 1e6},
		metric{"client.cpu_share", "ratio", cpu.Seconds() / wall.Seconds()},
		metric{"trace.overhead_pct", "%", overhead},
	)
	return m
}
