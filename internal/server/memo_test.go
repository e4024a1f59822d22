package server

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/obs"
)

// memoSrvProg has one tabling-eligible recursive predicate over a base
// relation the tests mutate through ordinary commits.
const memoSrvProg = `
edge(a, b). edge(b, c). edge(c, d).
reach(X, Y) :- edge(X, Y).
reach(X, Y) :- edge(X, Z), reach(Z, Y).
`

func newMemoServer(t *testing.T, opts Options) *Server {
	t.Helper()
	opts.Program = memoSrvProg
	s, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestTableVerb drives the full verb surface: status on an untabled
// session, enabling tabling, hit accrual across repeated queries,
// invalidation through a committed base-relation write, and turning
// tabling back off.
func TestTableVerb(t *testing.T) {
	s := newMemoServer(t, Options{})
	c := s.InProcClient()
	defer c.Close()

	st, err := c.TableStatus()
	if err != nil {
		t.Fatalf("TableStatus: %v", err)
	}
	if st.Mode != "none" || len(st.Tabled) != 0 {
		t.Fatalf("fresh session status = %+v, want mode none and nothing tabled", st)
	}

	st, err = c.Table("all")
	if err != nil {
		t.Fatalf("Table all: %v", err)
	}
	if st.Mode != "all" {
		t.Fatalf("mode = %q after TABLE all", st.Mode)
	}
	found := false
	for _, pred := range st.Tabled {
		if pred == "reach/2" {
			found = true
		}
	}
	if !found {
		t.Fatalf("tabled = %v, want reach/2", st.Tabled)
	}

	// First query fills, second replays; both answer identically.
	first, err := c.Query("reach(a, Y)", 0)
	if err != nil {
		t.Fatalf("Query 1: %v", err)
	}
	second, err := c.Query("reach(a, Y)", 0)
	if err != nil {
		t.Fatalf("Query 2: %v", err)
	}
	if len(first) != 3 || len(second) != len(first) {
		t.Fatalf("answers diverged: %d then %d (want 3)", len(first), len(second))
	}
	st, err = c.TableStatus()
	if err != nil {
		t.Fatalf("TableStatus: %v", err)
	}
	if st.Hits == 0 || st.Misses == 0 || st.Entries == 0 || st.Bytes == 0 {
		t.Fatalf("no memo traffic after repeat query: %+v", st)
	}
	if len(st.Preds) == 0 || st.Preds[0].Pred != "reach/2" {
		t.Fatalf("per-pred counters = %+v, want reach/2 first", st.Preds)
	}

	// A committed write to the support relation strands the cached entries:
	// the next query must see the new tuple, counting an invalidation.
	if _, err := c.Exec("ins.edge(d, e)"); err != nil {
		t.Fatalf("Exec ins: %v", err)
	}
	third, err := c.Query("reach(a, Y)", 0)
	if err != nil {
		t.Fatalf("Query 3: %v", err)
	}
	if len(third) != 4 {
		t.Fatalf("stale answers after support write: got %d solutions, want 4", len(third))
	}
	st, err = c.TableStatus()
	if err != nil {
		t.Fatalf("TableStatus: %v", err)
	}
	if st.Invalidations == 0 {
		t.Fatalf("support write never invalidated: %+v", st)
	}

	// Server STATS carries the same counters under the memo_* keys.
	stats, err := c.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if stats.MemoHits == 0 || stats.MemoMisses == 0 || stats.MemoEntries == 0 {
		t.Fatalf("STATS memo keys empty: %+v", stats)
	}
	if len(stats.MemoPreds) == 0 {
		t.Fatal("STATS memo_preds empty")
	}

	if st, err = c.Table("off"); err != nil || st.Mode != "none" || len(st.Tabled) != 0 {
		t.Fatalf("TABLE off -> %+v, %v", st, err)
	}
}

// TestTableAutoProfile proves the profile feedback loop: auto mode with no
// observations tables every eligible predicate, and a server-level Table
// option arms sessions without any verb.
func TestTableAutoProfile(t *testing.T) {
	s := newMemoServer(t, Options{Table: "auto"})
	c := s.InProcClient()
	defer c.Close()
	st, err := c.TableStatus()
	if err != nil {
		t.Fatalf("TableStatus: %v", err)
	}
	if st.Mode != "auto" || len(st.Tabled) == 0 {
		t.Fatalf("server-level Table option not applied: %+v", st)
	}

	// A predicate list selects exactly the named predicates.
	if st, err = c.Table("reach"); err != nil {
		t.Fatalf("Table reach: %v", err)
	}
	if len(st.Tabled) != 1 || st.Tabled[0] != "reach/2" {
		t.Fatalf("csv mode tabled %v, want [reach/2]", st.Tabled)
	}
}

// TestTableSessionsShareStore proves cross-session reuse: one session's
// fill is the next session's hit (their replicas hold the same tuples, so
// the support fingerprints agree).
func TestTableSessionsShareStore(t *testing.T) {
	s := newMemoServer(t, Options{Table: "all"})
	c1 := s.InProcClient()
	defer c1.Close()
	if _, err := c1.Query("reach(a, Y)", 0); err != nil {
		t.Fatalf("c1 Query: %v", err)
	}
	h0, _, _, _ := s.memo.Counters()

	c2 := s.InProcClient()
	defer c2.Close()
	if _, err := c2.Query("reach(a, Y)", 0); err != nil {
		t.Fatalf("c2 Query: %v", err)
	}
	h1, _, _, _ := s.memo.Counters()
	if h1 <= h0 {
		t.Fatalf("second session missed the shared store: hits %d -> %d", h0, h1)
	}
}

// The memo metric families are always registered; their values move with
// tabled traffic.
func TestMetricsEndpointMemoSeries(t *testing.T) {
	s := newMemoServer(t, Options{Table: "all"})
	c := s.InProcClient()
	defer c.Close()
	for i := 0; i < 2; i++ {
		if _, err := c.Query("reach(a, Y)", 0); err != nil {
			t.Fatalf("Query: %v", err)
		}
	}
	rec := httptest.NewRecorder()
	obs.Handler(s.Metrics()).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{
		"# TYPE td_memo_hits_total counter",
		"# TYPE td_memo_misses_total counter",
		"# TYPE td_memo_invalidations_total counter",
		"# TYPE td_memo_evictions_total counter",
		"# TYPE td_memo_bytes gauge",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if strings.Contains(body, "td_memo_hits_total 0") {
		t.Error("td_memo_hits_total stayed 0 after a repeated tabled query")
	}
}

// An untabled server never mentions the memo store in STATS; one that tabled
// reports it.
func TestStatsSnapshotMemoKeys(t *testing.T) {
	s0 := newMemoServer(t, Options{})
	c0 := s0.InProcClient()
	defer c0.Close()
	if _, err := c0.Query("reach(a, Y)", 0); err != nil {
		t.Fatalf("Query: %v", err)
	}
	body, err := json.Marshal(s0.Stats())
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(body), "memo") {
		t.Errorf("untabled server STATS frame mentions memo:\n%s", body)
	}

	// And a server that tabled reports them.
	s := newMemoServer(t, Options{Table: "all"})
	c := s.InProcClient()
	defer c.Close()
	for i := 0; i < 2; i++ {
		if _, err := c.Query("reach(a, Y)", 0); err != nil {
			t.Fatalf("Query: %v", err)
		}
	}
	body, err = json.Marshal(s.Stats())
	if err != nil {
		t.Fatal(err)
	}
	var wire map[string]any
	if err := json.Unmarshal(body, &wire); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"memo_hits", "memo_misses", "memo_bytes", "memo_entries", "memo_preds"} {
		if _, ok := wire[key]; !ok {
			t.Errorf("tabled server STATS frame missing %q:\n%s", key, body)
		}
	}
}

// memoIsoProg is the analysis shape of the paper's lab workflow: readings
// hang off samples, hot/1 is tabling-eligible and reads, for sample S, the
// sample_reading bucket of S and the reading bucket of each of its
// readings.
const memoIsoProg = `
sample_reading(s1, r1). reading(r1, 950).
sample_reading(s2, r2). reading(r2, 100).
hot(S) :- sample_reading(S, R), reading(R, V), V > 900.
`

// TestMemoHitReadsAreValidated is the isolation regression for answer
// tables: a transaction answered from the table has read what the fill
// read. T2 reads hot(s1) and writes; T1 commits a delete of the reading
// that made s1 hot before T2 commits; T2 must lose with a read_write
// conflict whether tabling is off or on, whether the entry it hit was
// filled before its BEGIN or by itself inside the transaction. The two
// sessions are interleaved request by request, so the schedule is the same
// every run. The negative cell: a write outside the
// entry's determining set (a fresh reading) lets T2 commit.
func TestMemoHitReadsAreValidated(t *testing.T) {
	for _, table := range []string{"none", "all"} {
		for _, prefill := range []bool{true, false} {
			// The shards=1/shards=4 level of the subtest names is left from
			// when the store had commit lanes. It selects nothing any more;
			// it stays so that the recorded IDs of these cells keep resolving.
			for _, legacy := range []string{"shards=1", "shards=4"} {
				for _, inside := range []bool{true, false} {
					name := fmt.Sprintf("table=%s/prefill=%v/%s/write_inside=%v", table, prefill, legacy, inside)
					t.Run(name, func(t *testing.T) {
						s, err := New(Options{Program: memoIsoProg, Table: table})
						if err != nil {
							t.Fatalf("New: %v", err)
						}
						defer s.Close()
						t1, t2 := s.InProcClient(), s.InProcClient()
						defer t1.Close()
						defer t2.Close()

						if prefill {
							if sols, err := t2.Query("hot(s1)", 0); err != nil || len(sols) != 1 {
								t.Fatalf("prefill Query hot(s1) = %v, %v", sols, err)
							}
						}
						if err := t2.Begin(); err != nil {
							t.Fatalf("T2 Begin: %v", err)
						}
						if _, err := t2.Run("hot(s1)"); err != nil {
							t.Fatalf("T2 Run hot(s1): %v", err)
						}
						if _, err := t2.Run("ins.flagged(s1)"); err != nil {
							t.Fatalf("T2 Run ins.flagged(s1): %v", err)
						}
						write := "ins.reading(r9, 10)"
						if inside {
							write = "del.reading(r1, 950)"
						}
						if _, err := t1.Exec(write); err != nil {
							t.Fatalf("T1 Exec %s: %v", write, err)
						}
						_, err = t2.Commit()
						st := s.Stats()
						if inside {
							if !IsConflict(err) {
								t.Fatalf("T2 committed behind T1's %s (err %v): hot(s1) no longer holds at T2's serial position", write, err)
							}
							if st.ConflictCauses["read_write"] != 1 {
								t.Errorf("conflict causes = %v, want one read_write", st.ConflictCauses)
							}
						} else {
							if err != nil {
								t.Fatalf("T2 Commit behind an unrelated write: %v", err)
							}
							if st.Conflicts != 0 {
								t.Errorf("conflicts = %d after a write outside the determining set, want 0", st.Conflicts)
							}
						}
						if table == "all" && prefill && st.MemoHits == 0 {
							t.Errorf("T2's hot(s1) was not answered from the table: %+v", st)
						}
					})
				}
			}
		}
	}
}

// TestWideEventMemoStale: a sampled transaction whose proof dropped a stale
// entry names the region that moved.
func TestWideEventMemoStale(t *testing.T) {
	sink := &captureSink{}
	s, err := New(Options{Program: memoIsoProg, Table: "all", WideSink: sink})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()
	c := s.InProcClient()
	for _, goal := range []string{"hot(s1)", "ins.reading(r9, 10)", "hot(s1)", "del.reading(r1, 950)"} {
		if _, err := c.Exec(goal); err != nil {
			t.Fatalf("Exec %s: %v", goal, err)
		}
	}
	if _, err := c.Exec("hot(s1)"); !IsNoProof(err) {
		t.Fatalf("hot(s1) after its reading is gone: %v, want no proof", err)
	}
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	c.Close()
	evs := sink.events()
	if len(evs) != 5 {
		t.Fatalf("got %d wide events, want 5", len(evs))
	}
	for i, want := range []string{"", "", "", "", "reading/2[r1]"} {
		if evs[i].MemoStale != want {
			t.Errorf("event %d (%s): memo_stale = %q, want %q", i, evs[i].Goal, evs[i].MemoStale, want)
		}
	}
	if evs[2].MemoHits != 1 {
		t.Errorf("a write outside the determining set cost the hit: %+v", evs[2])
	}
}
