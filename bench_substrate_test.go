// Substrate micro-benchmarks: the storage engine, query engine, streaming
// monitor and re-ranker that the audit pipeline runs on.
package fairrank_test

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"

	"fairrank"

	"fairrank/internal/dataset"
	"fairrank/internal/monitor"
	"fairrank/internal/query"
	"fairrank/internal/rerank"
	"fairrank/internal/simulate"
	"fairrank/internal/store"
)

// BenchmarkQueryFilter measures filtering the paper's large population with
// a three-clause query.
func BenchmarkQueryFilter(b *testing.B) {
	ds := benchWorkers(b, population(b, simulate.LargePopulation))
	q := query.MustCompile(
		"Gender = 'Female' AND YearsExperience >= 5 AND Country IN ('America', 'India')",
		ds.Schema())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(q.Filter(ds)) == 0 {
			b.Fatal("no matches")
		}
	}
}

// BenchmarkQueryParse measures parse+compile of a representative query.
func BenchmarkQueryParse(b *testing.B) {
	schema := simulate.PaperSchema()
	const text = "Gender = 'Female' AND (YearsExperience >= 5 OR NOT Country IN ('Other')) AND LanguageTest > 60"
	for i := 0; i < b.N; i++ {
		e, err := query.Parse(text)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := query.Compile(e, schema); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStorePut measures appending 1 KiB values to the log.
func BenchmarkStorePut(b *testing.B) {
	db, err := store.Open(filepath.Join(b.TempDir(), "bench.db"), store.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	val := bytes.Repeat([]byte("x"), 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := db.Put("bench", fmt.Sprintf("k%d", i), val); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreReplay measures reopening a 10k-record log.
func BenchmarkStoreReplay(b *testing.B) {
	path := filepath.Join(b.TempDir(), "replay.db")
	db, err := store.Open(path, store.Options{})
	if err != nil {
		b.Fatal(err)
	}
	val := bytes.Repeat([]byte("x"), 256)
	for i := 0; i < 10000; i++ {
		if err := db.Put("bench", fmt.Sprintf("k%d", i), val); err != nil {
			b.Fatal(err)
		}
	}
	db.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db, err := store.Open(path, store.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if db.Len("bench") != 10000 {
			b.Fatal("bad replay")
		}
		db.Close()
	}
}

// BenchmarkDatasetSnapshotCodec measures snapshotting the large
// population: the columnar write plus the read of its bytes.
func BenchmarkDatasetSnapshotCodec(b *testing.B) {
	ds := benchWorkers(b, population(b, simulate.LargePopulation))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := ds.WriteSnapshot(&buf); err != nil {
			b.Fatal(err)
		}
		if _, err := dataset.ReadSnapshot(buf.Bytes()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMonitorEvent measures one join + unfairness re-evaluation on a
// populated monitor — the per-event cost of continuous auditing.
func BenchmarkMonitorEvent(b *testing.B) {
	m, err := monitor.New(simulate.PaperSchema(), []string{"Gender", "Country"}, 10, 0.5)
	if err != nil {
		b.Fatal(err)
	}
	attrs := map[string]any{
		"Gender": "Male", "Country": "America", "YearOfBirth": 1980,
		"Language": "English", "Ethnicity": "White", "YearsExperience": 5,
	}
	for i := 0; i < 5000; i++ {
		if err := m.Join(fmt.Sprintf("seed%d", i), attrs, float64(i%100)/100); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := fmt.Sprintf("w%d", i)
		if err := m.Join(id, attrs, 0.5); err != nil {
			b.Fatal(err)
		}
		_ = m.Unfairness()
		if err := m.Leave(id); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRerank measures exposure-parity re-ranking of a 1000-candidate
// pool.
func BenchmarkRerank(b *testing.B) {
	ds := benchWorkers(b, 1000)
	f, err := fairrank.NewRuleFunc("f6", 42, []fairrank.Rule{
		{When: fairrank.AttrIs("Gender", "Male"), Lo: 0.8, Hi: 1.0},
		{When: fairrank.AttrIs("Gender", "Female"), Lo: 0.0, Hi: 0.2},
	})
	if err != nil {
		b.Fatal(err)
	}
	ranked := fairrank.RankWorkers(ds, f, 0)
	gender := ds.Schema().ProtectedIndex("Gender")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rerank.ExposureParity(ds, gender, ranked, rerank.Options{Epsilon: 0.5}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRepairScores measures quantile-matching repair at paper scale.
func BenchmarkRepairScores(b *testing.B) {
	ds := benchWorkers(b, population(b, simulate.LargePopulation))
	f, err := fairrank.NewRuleFunc("f6", 42, []fairrank.Rule{
		{When: fairrank.AttrIs("Gender", "Male"), Lo: 0.8, Hi: 1.0},
		{When: fairrank.AttrIs("Gender", "Female"), Lo: 0.0, Hi: 0.2},
	})
	if err != nil {
		b.Fatal(err)
	}
	a := fairrank.NewAuditor()
	pt, err := fairrank.GroupBy(ds, "Gender")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.RepairedScores(ds, f, pt, 1); err != nil {
			b.Fatal(err)
		}
	}
}
