package server

// Stage-level latency attribution tests (PR 8): STATS wire compatibility for
// the new sections, the td_txn_stage_us and td_prover_pred_us metric
// families, wide-event emission, SLO breach reporting, the PROFILE verb, and
// the registry-wide naming-convention audit.

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// --- STATS wire compatibility ----------------------------------------------

// A live server with sampling, profiling, and SLOs all off mentions none of
// their keys in its STATS frame.
func TestStatsSnapshotStageKeys(t *testing.T) {
	s := newBankServer(t, Options{})
	c := s.InProcClient()
	defer c.Close()
	if _, err := c.Exec("transfer(5, a, b)"); err != nil {
		t.Fatalf("Exec: %v", err)
	}
	body, err := json.Marshal(s.Stats())
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"stage_p50_us", "stage_p99_us", "prover_profile", "slos"} {
		if strings.Contains(string(body), key) {
			t.Errorf("feature-off STATS frame mentions %q:\n%s", key, body)
		}
	}
}

// --- stage clock ------------------------------------------------------------

// With StageSample 1 every transaction is attributed: all eight pipeline
// stages appear on /metrics with equal sample counts, and STATS reports the
// full quantile maps.
func TestMetricsEndpointStageSeries(t *testing.T) {
	s := newBankServer(t, Options{StageSample: 1})
	c := s.InProcClient()
	defer c.Close()
	if _, err := c.Exec("transfer(10, a, b)"); err != nil {
		t.Fatalf("Exec: %v", err)
	}
	// The clock settles after the EXEC response is flushed; a follow-up
	// request on the same session serializes behind that finalization.
	if err := c.Ping(); err != nil {
		t.Fatalf("Ping: %v", err)
	}

	rec := httptest.NewRecorder()
	obs.Handler(s.Metrics()).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	if !strings.Contains(body, "# TYPE td_txn_stage_us histogram") {
		t.Fatalf("/metrics missing the td_txn_stage_us family\n----\n%s", body)
	}
	for _, stage := range stageNames {
		want := `td_txn_stage_us_count{stage="` + stage + `"} 1`
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q (every stage is observed once per sampled txn)\n----\n%s", want, body)
		}
	}

	st := s.Stats()
	if len(st.StageP50Us) != nStages || len(st.StageP99Us) != nStages {
		t.Fatalf("stage quantile maps = %v / %v, want all %d stages",
			st.StageP50Us, st.StageP99Us, nStages)
	}
	// The transaction did real work: at least prove must have nonzero p99.
	if st.StageP99Us["prove"] <= 0 {
		t.Errorf("prove p99 = %d, want > 0 (maps: %v)", st.StageP99Us["prove"], st.StageP99Us)
	}
}

// An unsampled server (StageSample 0, no WideSink) must not pay for
// attribution: the stage histograms stay empty.
func TestStageSamplingOff(t *testing.T) {
	s := newBankServer(t, Options{})
	c := s.InProcClient()
	defer c.Close()
	if _, err := c.Exec("transfer(10, a, b)"); err != nil {
		t.Fatalf("Exec: %v", err)
	}
	for i := 0; i < nStages; i++ {
		if n := s.stats.stageLat[i].Count(); n != 0 {
			t.Errorf("stage %q recorded %d samples with sampling off", stageNames[i], n)
		}
	}
}

// --- wide events ------------------------------------------------------------

// captureSink collects wide events in memory (the JSONL path is covered by
// the tdlog round-trip test).
type captureSink struct {
	mu  sync.Mutex
	evs []obs.WideEvent
}

func (cs *captureSink) EmitWide(ev *obs.WideEvent) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	cs.evs = append(cs.evs, *ev)
}

func (cs *captureSink) events() []obs.WideEvent {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return append([]obs.WideEvent{}, cs.evs...)
}

func TestWideEvents(t *testing.T) {
	sink := &captureSink{}
	dir := t.TempDir()
	// Setting WideSink alone implies StageSample 1: every transaction emits.
	s := newBankServer(t, Options{
		WideSink:     sink,
		SnapshotPath: dir + "/td.snap",
		WALPath:      dir + "/td.wal",
	})
	// A stepped clock: every reading is one tick after the last. A stage
	// mark then charges exactly one tick, and the total — read once more,
	// after the last mark — is the stage sum plus one tick, whatever the
	// machine is doing.
	const tick = 100 * time.Microsecond
	var fake time.Time
	s.stageNow = func() time.Time {
		fake = fake.Add(tick)
		return fake
	}
	c := s.InProcClient()
	for i := 0; i < 3; i++ {
		if _, err := c.Exec("transfer(1, a, b)"); err != nil {
			t.Fatalf("Exec: %v", err)
		}
	}
	// Serialize behind the last EXEC's post-flush finalization.
	if err := c.Ping(); err != nil {
		t.Fatalf("Ping: %v", err)
	}
	c.Close()

	evs := sink.events()
	if len(evs) != 3 {
		t.Fatalf("got %d wide events, want 3: %+v", len(evs), evs)
	}
	seenTraces := map[uint64]bool{}
	for _, ev := range evs {
		if ev.Event != "txn" || ev.Verb != OpExec || ev.Goal != "transfer(1, a, b)" {
			t.Fatalf("event identity wrong: %+v", ev)
		}
		if ev.Trace == 0 || seenTraces[ev.Trace] {
			t.Errorf("trace id %d missing or repeated", ev.Trace)
		}
		seenTraces[ev.Trace] = true
		if ev.Session == 0 || ev.LSN == 0 {
			t.Errorf("session/lsn not stamped: %+v", ev)
		}
		if ev.Ops != 4 { // transfer rewrites two accounts: 2 dels + 2 ins
			t.Errorf("ops = %d, want 4", ev.Ops)
		}
		if ev.Batch < 1 {
			t.Errorf("durable commit reports fsync batch %d, want >= 1", ev.Batch)
		}
		// The stage decomposition is additive and exact: every interval
		// between two readings of the clock belongs to one stage, so the
		// stage sum is the total less the one tick between the last mark
		// and the reading of the total.
		var sum int64
		for stage, us := range ev.StageUs {
			if us%tick.Microseconds() != 0 {
				t.Errorf("stage_us[%s] = %d is not a whole number of marks", stage, us)
			}
			sum += us
		}
		if ev.TotalUs != sum+tick.Microseconds() {
			t.Errorf("total %dus, stage sum %dus: want total = sum + one %v tick: %+v", ev.TotalUs, sum, tick, ev.StageUs)
		}
		// A durable, uncontended EXEC marks each stage it passes through
		// a known number of times: validate runs lock-free and again under
		// the commit lock.
		want := map[string]int64{"parse": 1, "prove": 1, "validate": 2, "lane_wait": 1,
			"apply": 1, "wal_append": 1, "fsync_wait": 1, "ack": 1}
		for stage, marks := range want {
			if got := ev.StageUs[stage]; got != marks*tick.Microseconds() {
				t.Errorf("stage_us[%s] = %d, want %d marks of %v: %+v", stage, got, marks, tick, ev.StageUs)
			}
		}
	}
}

// A losing COMMIT's wide event names the cause of the lost OCC round and,
// conflict keys being fingerprints, says why in the winner's terms: its LSN
// and the atom of its op that the loser had observed.
func TestWideEventConflictCause(t *testing.T) {
	sink := &captureSink{}
	s := newBankServer(t, Options{WideSink: sink})
	c1 := s.InProcClient()
	defer c1.Close()
	c2 := s.InProcClient()
	defer c2.Close()

	// c1 opens an interactive transaction over account a; c2's one-shot
	// commits first, so c1's COMMIT deterministically loses validation.
	if err := c1.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Run("withdraw(10, a)"); err != nil {
		t.Fatal(err)
	}
	won, err := c2.Exec("withdraw(20, a)")
	if err != nil {
		t.Fatalf("Exec: %v", err)
	}
	if _, err := c1.Commit(); !IsConflict(err) {
		t.Fatalf("Commit: err = %v, want conflict", err)
	}
	if err := c1.Ping(); err != nil {
		t.Fatalf("Ping: %v", err)
	}

	var lost *obs.WideEvent
	for _, ev := range sink.events() {
		if ev.Verb == OpCommit {
			lost = &ev
			break
		}
	}
	if lost == nil {
		t.Fatalf("no COMMIT wide event emitted: %+v", sink.events())
	}
	if lost.Conflict != "read_write" {
		t.Errorf("losing COMMIT's conflict cause = %q, want read_write (%+v)", lost.Conflict, *lost)
	}
	if lost.LSN != 0 {
		t.Errorf("losing COMMIT stamped LSN %d, want none", lost.LSN)
	}
	if lost.ConflictLSN != won.Version || lost.ConflictAtom != "account(a, 100)" {
		t.Errorf("lost to %d:%s, want %d:account(a, 100) (the winner's delete of the balance both read)",
			lost.ConflictLSN, lost.ConflictAtom, won.Version)
	}
	for _, ev := range sink.events() {
		if ev.Verb == OpExec && (ev.ConflictLSN != 0 || ev.ConflictAtom != "") {
			t.Errorf("winning EXEC carries a conflict cause: %+v", ev)
		}
	}
}

// --- SLO tracking -----------------------------------------------------------

// slowSyncer delays every WAL fsync — the fault injection that breaches an
// fsync SLO on demand.
type slowSyncer struct {
	inner syncer
	delay time.Duration
}

func (ss slowSyncer) Commit() error {
	time.Sleep(ss.delay)
	return ss.inner.Commit()
}

func TestSLOBreachLog(t *testing.T) {
	slos, err := obs.ParseSLOs("commit:10m:0.5,fsync:1ms:0.9")
	if err != nil {
		t.Fatalf("ParseSLOs: %v", err)
	}
	var buf bytes.Buffer
	dir := t.TempDir()
	s := newBankServer(t, Options{
		SLOs:         slos,
		Logger:       slog.New(slog.NewTextHandler(&buf, nil)),
		SnapshotPath: dir + "/td.snap",
		WALPath:      dir + "/td.wal",
	})
	s.group.mu.Lock()
	inner := s.group.store
	s.group.mu.Unlock()
	s.group.setSyncerForTest(slowSyncer{inner: inner, delay: 2 * time.Millisecond})

	c := s.InProcClient()
	defer c.Close()
	for i := 0; i < 3; i++ {
		if _, err := c.Exec("transfer(1, a, b)"); err != nil {
			t.Fatalf("Exec: %v", err)
		}
	}

	// Every fsync blew the 1ms threshold against a 10% budget: the fsync
	// objective is in breach, logged exactly once (edge-, not
	// level-triggered).
	out := buf.String()
	if got := strings.Count(out, "SLO breach"); got != 1 {
		t.Fatalf("breach logged %d times, want exactly 1:\n%s", got, out)
	}
	if !strings.Contains(out, "slo=fsync") {
		t.Errorf("breach log does not name the objective:\n%s", out)
	}

	// STATS reports both objectives' state; only fsync is burning.
	st := s.Stats()
	if len(st.SLOs) != 2 {
		t.Fatalf("STATS slos = %+v, want 2 objectives", st.SLOs)
	}
	byName := map[string]SLOSnapshot{}
	for _, slo := range st.SLOs {
		byName[slo.Name] = slo
	}
	if slo := byName["fsync"]; slo.Total < 1 || slo.Good != 0 || slo.BurnRate <= 1 {
		t.Errorf("fsync SLO state = %+v, want all-bad and burning", slo)
	}
	if slo := byName["commit"]; slo.Total < 3 || slo.Good != slo.Total || slo.BurnRate != 0 {
		t.Errorf("commit SLO state = %+v, want all-good", slo)
	}

	// And the counter/burn-rate series are on /metrics.
	rec := httptest.NewRecorder()
	obs.Handler(s.Metrics()).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{
		`td_slo_events_total{slo="fsync"}`,
		`td_slo_good_total{slo="commit"}`,
		`td_slo_burn_rate{slo="fsync"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q\n----\n%s", want, body)
		}
	}
}

// An SLO naming a signal the server does not emit is a configuration error,
// refused at startup.
func TestSLOUnknownSignal(t *testing.T) {
	slos, err := obs.ParseSLOs("latency:5ms:0.99")
	if err != nil {
		t.Fatalf("ParseSLOs: %v", err)
	}
	if _, err := New(Options{Program: bankSrc, SLOs: slos}); err == nil ||
		!strings.Contains(err.Error(), "latency") {
		t.Fatalf("New with unknown SLO signal: err = %v, want a named refusal", err)
	}
}

// --- PROFILE verb -----------------------------------------------------------

func TestProfileVerb(t *testing.T) {
	s := newBankServer(t, Options{})
	c := s.InProcClient()
	defer c.Close()

	// Dump before anything was profiled is a protocol error.
	if _, err := c.ProfileDump(); err == nil {
		t.Fatal("PROFILE dump with nothing profiled should fail")
	}

	if err := c.ProfileOn(); err != nil {
		t.Fatalf("ProfileOn: %v", err)
	}
	if _, err := c.Exec("transfer(10, a, b)"); err != nil {
		t.Fatalf("Exec: %v", err)
	}
	prof, err := c.ProfileDump()
	if err != nil {
		t.Fatalf("ProfileDump: %v", err)
	}
	for _, pred := range []string{"transfer", "withdraw", "deposit", "balance"} {
		if prof[pred].Calls < 1 {
			t.Errorf("profile[%s] = %+v, want calls >= 1 (full dump: %v)", pred, prof[pred], prof)
		}
	}
	var totalUs int64
	for _, p := range prof {
		totalUs += p.TimeUs
	}
	if totalUs <= 0 {
		t.Errorf("no prover time attributed: %v", prof)
	}

	// The same attribution rides STATS and /metrics.
	if st := s.Stats(); st.ProverProfile["transfer"].Calls < 1 {
		t.Errorf("STATS prover_profile = %v, want transfer", st.ProverProfile)
	}
	rec := httptest.NewRecorder()
	obs.Handler(s.Metrics()).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if body := rec.Body.String(); !strings.Contains(body, `td_prover_pred_us{pred="transfer"}`) {
		t.Errorf("/metrics missing the transfer attribution\n----\n%s", body)
	}

	// PROFILE off rebuilds the engine without attribution; the dump keeps
	// serving what was already absorbed.
	if err := c.ProfileOff(); err != nil {
		t.Fatalf("ProfileOff: %v", err)
	}
	if _, err := c.ProfileDump(); err != nil {
		t.Fatalf("ProfileDump after off: %v", err)
	}
}

// Attribution survives the profiled session closing: dropSession absorbs the
// engine's counters into the server-wide aggregate.
func TestProfileSurvivesSessionClose(t *testing.T) {
	s := newBankServer(t, Options{})
	c := s.InProcClient()
	if err := c.ProfileOn(); err != nil {
		t.Fatalf("ProfileOn: %v", err)
	}
	if _, err := c.Exec("transfer(10, a, b)"); err != nil {
		t.Fatalf("Exec: %v", err)
	}
	c.Close()
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().SessionsOpen > 0 {
		if time.Now().After(deadline) {
			t.Fatal("session never drained")
		}
		time.Sleep(time.Millisecond)
	}
	if st := s.Stats(); st.ProverProfile["transfer"].Calls < 1 {
		t.Errorf("attribution lost when the session closed: %v", st.ProverProfile)
	}
}

// --- naming conventions -----------------------------------------------------

// Every shipped metric family follows the house conventions: td_ prefix,
// non-empty help, counters ending in _total or _us, histograms in _us or
// _size, and gauges never ending in _total.
func TestMetricsNamingConventions(t *testing.T) {
	slos, err := obs.ParseSLOs("commit:5ms:0.999")
	if err != nil {
		t.Fatalf("ParseSLOs: %v", err)
	}
	s := newBankServer(t, Options{SLOs: slos, StageSample: 1})
	for _, fam := range s.Metrics().Families() {
		if !strings.HasPrefix(fam.Name, "td_") {
			t.Errorf("family %q lacks the td_ prefix", fam.Name)
		}
		if strings.TrimSpace(fam.Help) == "" {
			t.Errorf("family %q has no help text", fam.Name)
		}
		switch fam.Type {
		case "counter":
			if !strings.HasSuffix(fam.Name, "_total") && !strings.HasSuffix(fam.Name, "_us") {
				t.Errorf("counter %q should end in _total or _us", fam.Name)
			}
		case "histogram":
			if !strings.HasSuffix(fam.Name, "_us") && !strings.HasSuffix(fam.Name, "_size") {
				t.Errorf("histogram %q should end in _us or _size", fam.Name)
			}
		case "gauge":
			if strings.HasSuffix(fam.Name, "_total") {
				t.Errorf("gauge %q must not end in _total", fam.Name)
			}
		default:
			t.Errorf("family %q has unknown type %q", fam.Name, fam.Type)
		}
	}
}
