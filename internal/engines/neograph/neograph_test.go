package neograph

import (
	"context"
	"testing"

	"gdbm/internal/engine"
	"gdbm/internal/model"
)

func openDB(t *testing.T) *DB {
	t.Helper()
	db, err := New(engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func TestQueryLanguageRoundTrip(t *testing.T) {
	db := openDB(t)
	if _, err := db.Query(`CREATE (a:P {name: 'ada'})`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query(`CREATE (b:P {name: 'bob'})`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query(`MATCH (a:P {name: 'ada'}), (b:P {name: 'bob'}) CREATE (a)-[:knows]->(b)`); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(`MATCH (a)-[:knows]->(b) RETURN b.name AS n`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if db.LanguageName() != "gql" {
		t.Errorf("language = %q", db.LanguageName())
	}
}

func TestCreateIndexBackfillsAndServesPlanner(t *testing.T) {
	db := openDB(t)
	for i := 0; i < 100; i++ {
		db.AddNode("P", model.Props("idx", i))
	}
	if err := db.CreateIndex("idx"); err != nil {
		t.Fatal(err)
	}
	n := 0
	handled, err := db.IndexedNodes("P", "idx", model.Int(42), func(model.Node) bool { n++; return true })
	if err != nil || !handled || n != 1 {
		t.Fatalf("indexed lookup: handled=%v n=%d err=%v", handled, n, err)
	}
	// Index stays maintained for new inserts.
	db.AddNode("P", model.Props("idx", 42))
	n = 0
	db.IndexedNodes("P", "idx", model.Int(42), func(model.Node) bool { n++; return true })
	if n != 2 {
		t.Errorf("post-insert lookup = %d", n)
	}
	// Duplicate index rejected.
	if err := db.CreateIndex("idx"); err == nil {
		t.Error("duplicate index should fail")
	}
}

func TestDiskPersistenceWithLabelIndexRebuild(t *testing.T) {
	dir := t.TempDir()
	db, err := New(engine.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	db.AddNode("P", model.Props("name", "ada"))
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	db.Close()

	db2, err := New(engine.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if db2.Order() != 1 {
		t.Fatalf("order after reopen = %d", db2.Order())
	}
	res, err := db2.Query(`MATCH (p:P) RETURN p.name AS n`)
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("query after reopen: %v %v", res, err)
	}
}

// TestResultCacheSkipsMatchHeadedWrites: the result cache is routed by the
// parsed statement, so MATCH ... SET and MATCH ... CREATE on a cached disk
// instance never consult it (hits and misses stay 0) and take effect,
// while a read misses once and then hits.
func TestResultCacheSkipsMatchHeadedWrites(t *testing.T) {
	db, err := New(engine.Options{Dir: t.TempDir(), CacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	a, _ := db.AddNode("P", model.Props("name", "ada"))
	db.AddNode("P", model.Props("name", "bob"))
	results := func() (hits, misses uint64) {
		s := db.CacheStats()["results"]
		return s.Hits, s.Misses
	}
	if _, err := db.Query(`MATCH (p:P {name: 'ada'}) SET p.age = 37`); err != nil {
		t.Fatal(err)
	}
	var sink rowSink
	if err := db.QueryStream(context.Background(), `MATCH (p:P {name: 'ada'}), (q:P {name: 'bob'}) CREATE (p)-[:knows]->(q)`, &sink); err != nil {
		t.Fatal(err)
	}
	if h, m := results(); h != 0 || m != 0 {
		t.Fatalf("MATCH-headed writes consulted the result cache: hits=%d misses=%d", h, m)
	}
	n, err := db.Node(a)
	if err != nil || !n.Props.Get("age").Equal(model.Int(37)) || db.Size() != 1 {
		t.Fatalf("writes did not apply: node %v, %d edges, err %v", n, db.Size(), err)
	}
	for i := 0; i < 2; i++ {
		if _, err := db.Query(`MATCH (p:P) RETURN p.name AS n`); err != nil {
			t.Fatal(err)
		}
	}
	if h, m := results(); h != 1 || m != 1 {
		t.Fatalf("read twice: hits=%d misses=%d, want 1 and 1", h, m)
	}
}

// rowSink is a plan.Sink that drops what it receives.
type rowSink struct{}

func (rowSink) Cols([]string) error     { return nil }
func (rowSink) Row([]model.Value) error { return nil }
