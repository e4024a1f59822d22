package server

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// --- STATS cost regression ------------------------------------------------

// The PR-1 implementation kept a 4096-entry latency ring and copied + sorted
// it under a mutex on every STATS call: O(n log n) work and two allocations
// per call, growing with the sample count. The histogram path must be
// O(buckets) with a bounded, sample-count-independent allocation profile.
func TestStatsAllocationBounded(t *testing.T) {
	s := newBankServer(t, Options{})
	c := s.InProcClient()
	defer c.Close()
	for i := 0; i < 8; i++ {
		if _, err := c.Exec("transfer(1, a, b)"); err != nil {
			t.Fatalf("Exec: %v", err)
		}
	}

	// The quantile computation itself is allocation-free.
	if allocs := testing.AllocsPerRun(100, func() {
		s.stats.quantiles()
	}); allocs != 0 {
		t.Fatalf("quantiles allocates %v objects per call, want 0", allocs)
	}

	// Snapshot assembly allocates only its own maps — the same amount no
	// matter how many latencies have been observed.
	few := testing.AllocsPerRun(100, func() { s.Stats() })
	for i := 0; i < 50_000; i++ {
		s.stats.recordCommitLatency(time.Duration(i) * time.Microsecond)
	}
	many := testing.AllocsPerRun(100, func() { s.Stats() })
	if many > few {
		t.Fatalf("Stats allocations grew with sample count: %v -> %v", few, many)
	}
}

// --- wire compatibility ---------------------------------------------------

// goldenStats is one STATS frame of the current schema with every key
// present. TestStatsSnapshotWireCompat decodes it and re-encodes it: a key
// that is renamed, retyped or dropped from StatsSnapshot does not survive
// the round trip.
const goldenStats = `{
	"sessions_open": 3, "sessions_total": 17, "rejected": 2,
	"txns_begun": 120, "commits": 100, "aborts": 11, "conflicts": 9,
	"retries": 14, "no_proof": 5, "budget_hits": 1,
	"version": 100, "db_size": 42, "wal_bytes": 8192,
	"commit_p50_us": 250, "commit_p99_us": 4000, "uptime_ms": 60000,
	"conflict_causes": {"read_write": 8, "stale_replica": 1},
	"verb_p99_us": {"EXEC": 4100, "QUERY": 300},
	"fsync_p99_us": 3000, "fsyncs": 60, "slow_txns": 2,
	"engine_steps": 5000, "engine_unifications": 7000, "engine_table_hits": 40,
	"db_lookups": 900, "db_index_hits": 800, "db_scans": 30,
	"db_order_rebuilds": 4, "delta_ops": 210,
	"vet_rejects": 1,
	"group_commits": 55, "commit_batch_p99": 8,
	"checkpoints": 4, "checkpoint_p99_us": 1500, "recovery_replayed_records": 7,
	"cross_shard_commits": 10,
	"stage_p50_us": {"parse": 12, "prove": 180, "lane_wait": 1, "fsync_wait": 900},
	"stage_p99_us": {"parse": 30, "prove": 2100, "lane_wait": 40, "fsync_wait": 4000},
	"prover_profile": {"transfer": {"calls": 40, "fanout": 80, "time_us": 1500}},
	"slos": [{"name": "commit", "threshold_us": 5000, "objective": 0.999,
	          "good": 99, "total": 100, "burn_rate": 10}],
	"plan_reorders": 3, "plan_hits": 120, "plan_tabling_eligible": 2,
	"memo_hits": 40, "memo_misses": 6, "memo_invalidations": 2,
	"memo_evictions": 1, "memo_bytes": 4096, "memo_entries": 5,
	"memo_preds": [{"pred": "reach/2", "hits": 38, "misses": 4}]
}`

// statsBaseKeys are the keys every STATS frame carries; every other key is
// omitted while its value is zero.
var statsBaseKeys = []string{
	"sessions_open", "sessions_total", "rejected", "txns_begun",
	"commits", "aborts", "conflicts", "retries", "no_proof",
	"budget_hits", "version", "db_size", "wal_bytes",
	"commit_p50_us", "commit_p99_us", "uptime_ms",
}

func TestStatsSnapshotWireCompat(t *testing.T) {
	var snap StatsSnapshot
	if err := json.Unmarshal([]byte(goldenStats), &snap); err != nil {
		t.Fatalf("golden payload no longer decodes: %v", err)
	}
	body, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var want, got map[string]any
	if err := json.Unmarshal([]byte(goldenStats), &want); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("golden frame did not survive decode + re-encode:\n got %v\nwant %v", got, want)
	}

	// A zero snapshot puts exactly the base keys on the wire.
	body, err = json.Marshal(StatsSnapshot{})
	if err != nil {
		t.Fatal(err)
	}
	var wire map[string]any
	if err := json.Unmarshal(body, &wire); err != nil {
		t.Fatal(err)
	}
	if len(wire) != len(statsBaseKeys) {
		t.Errorf("zero snapshot has %d keys on the wire, want the %d base keys:\n%s", len(wire), len(statsBaseKeys), body)
	}
	for _, key := range statsBaseKeys {
		if _, ok := wire[key]; !ok {
			t.Errorf("zero snapshot dropped base key %q", key)
		}
	}
}

// The history keys ride the STATS frame of a server that checkpointed.
func TestStatsSnapshotHistoryKeys(t *testing.T) {
	s := newBankServer(t, Options{
		SnapshotPath: t.TempDir() + "/td.snap",
		WALPath:      t.TempDir() + "/td.wal",
	})
	c := s.InProcClient()
	defer c.Close()
	if _, err := c.Exec("transfer(5, a, b)"); err != nil {
		t.Fatalf("Exec: %v", err)
	}
	if _, err := c.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	st := s.Stats()
	if st.Checkpoints != 1 {
		t.Fatalf("Stats.Checkpoints = %d, want 1", st.Checkpoints)
	}
	body, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var wire map[string]any
	if err := json.Unmarshal(body, &wire); err != nil {
		t.Fatal(err)
	}
	if _, ok := wire["checkpoints"]; !ok {
		t.Error("nonzero checkpoints missing from the wire frame")
	}
}

// --- TRACE verb -----------------------------------------------------------

func TestTraceVerb(t *testing.T) {
	prog := `
		sample(s1). sample(s2).
		process(S) :- iso(sample(S), ins.prepared(S)), iso(prepared(S), ins.done(S)).
		lab :- process(s1) | process(s2).
	`
	s := newBankServer(t, Options{})
	c := s.InProcClient()
	defer c.Close()
	if err := c.Load(prog); err != nil {
		t.Fatalf("Load: %v", err)
	}

	// Dump before any traced goal is a protocol error.
	if _, err := c.TraceDump(); err == nil {
		t.Fatal("TRACE dump with nothing traced should fail")
	}

	if err := c.TraceOn(); err != nil {
		t.Fatalf("TraceOn: %v", err)
	}
	if _, err := c.Exec("lab"); err != nil {
		t.Fatalf("Exec: %v", err)
	}
	sp, err := c.TraceDump()
	if err != nil {
		t.Fatalf("TraceDump: %v", err)
	}
	if sp == nil || sp.Kind != "txn" {
		t.Fatalf("dump root = %+v, want a txn span", sp)
	}
	if sp.DurUs <= 0 {
		t.Errorf("root span has no wall-clock duration: %+v", *sp)
	}
	// The goal's structure must be visible in the nesting: two concurrent
	// branches, each holding two sequential iso sub-transactions.
	var branches []*obs.Span
	for _, ch := range sp.Children {
		if ch.Kind == "branch" {
			branches = append(branches, ch)
		}
	}
	if len(branches) != 2 {
		t.Fatalf("want 2 branch spans under the root, got %d:\n%s", len(branches), sp.Tree())
	}
	for _, b := range branches {
		var isos int
		for _, ch := range b.Children {
			if ch.Kind == "iso" {
				isos++
			}
		}
		if isos != 2 {
			t.Fatalf("each branch should hold 2 iso spans, got %d:\n%s", isos, sp.Tree())
		}
	}
	if sp.Writes != 4 {
		t.Errorf("lab writes 4 tuples, spans say %d:\n%s", sp.Writes, sp.Tree())
	}

	// TRACE off: subsequent goals stop updating the dump.
	if err := c.TraceOff(); err != nil {
		t.Fatalf("TraceOff: %v", err)
	}
	if _, err := c.Exec("iso(done(s1))"); err != nil {
		t.Fatalf("Exec after TraceOff: %v", err)
	}
	again, err := c.TraceDump()
	if err != nil {
		t.Fatalf("TraceDump after TraceOff: %v", err)
	}
	if again.Label != sp.Label {
		t.Errorf("dump changed after TRACE off: %q -> %q", sp.Label, again.Label)
	}
}

// --- /metrics endpoint ----------------------------------------------------

func TestMetricsEndpoint(t *testing.T) {
	s := newBankServer(t, Options{})
	c := s.InProcClient()
	defer c.Close()
	if _, err := c.Exec("transfer(10, a, b)"); err != nil {
		t.Fatalf("Exec: %v", err)
	}
	if _, err := c.Query("account(A, B)", 0); err != nil {
		t.Fatalf("Query: %v", err)
	}

	rec := httptest.NewRecorder()
	obs.Handler(s.Metrics()).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("GET /metrics -> %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	body := rec.Body.String()
	for _, want := range []string{
		"# TYPE td_commits_total counter",
		"td_commits_total 1",
		"# TYPE td_commit_latency_us histogram",
		"td_commit_latency_us_count 1",
		`td_request_latency_us_count{verb="EXEC"} 1`,
		`td_request_latency_us_count{verb="QUERY"} 1`,
		"td_engine_steps_total",
		"td_db_lookups_total",
		"td_sessions_open 1",
		"td_version 1",
		// History-subsystem series (PR 6) are always registered; their
		// values stay 0 on an in-memory server that never checkpoints.
		"# TYPE td_checkpoints_total counter",
		"# TYPE td_checkpoint_duration_us histogram",
		"td_recovery_replayed_records 0",
		"td_wal_bytes 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q\n----\n%s", want, body)
		}
	}
}

// --- slow-transaction log -------------------------------------------------

func TestSlowTxnLog(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&buf, nil))
	s := newBankServer(t, Options{SlowTxn: time.Nanosecond, Logger: logger})
	c := s.InProcClient()
	defer c.Close()
	if _, err := c.Exec("transfer(10, a, b)"); err != nil {
		t.Fatalf("Exec: %v", err)
	}
	out := buf.String()
	if !strings.Contains(out, "slow transaction") {
		t.Fatalf("no slow-transaction report logged:\n%s", out)
	}
	if !strings.Contains(out, "transfer(10, a, b)") {
		t.Errorf("report does not name the goal:\n%s", out)
	}
	if !strings.Contains(out, "txn") || !strings.Contains(out, "ins") {
		t.Errorf("report does not carry the span tree:\n%s", out)
	}
	if got := s.Stats().SlowTxns; got < 1 {
		t.Errorf("slow_txns = %d, want >= 1", got)
	}
}

// --- conflict causes ------------------------------------------------------

func TestConflictCauseClassification(t *testing.T) {
	s := newBankServer(t, Options{})
	c1 := s.InProcClient()
	defer c1.Close()
	c2 := s.InProcClient()
	defer c2.Close()

	// Two interactive transactions read and write the same account; the
	// second committer must lose with a read/write conflict.
	if err := c1.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := c2.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Run("withdraw(10, a)"); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Run("withdraw(20, a)"); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Commit(); err != nil {
		t.Fatalf("first commit: %v", err)
	}
	if _, err := c2.Commit(); !IsConflict(err) {
		t.Fatalf("second commit: err = %v, want conflict", err)
	}
	snap := s.Stats()
	if snap.ConflictCauses["read_write"] < 1 {
		t.Errorf("conflict_causes = %v, want read_write >= 1", snap.ConflictCauses)
	}
	if snap.Conflicts < 1 {
		t.Errorf("conflicts = %d, want >= 1", snap.Conflicts)
	}
}
