package server

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/obs"
)

// analyzeSrc is a program the planner reorders: with the sample bound,
// the naive hot rule starts from the indexed sample_reading lookup.
const analyzeSrc = `
sample_reading(s1, r1). sample_reading(s2, r2).
reading(r1, 950). reading(r2, 20).
hot(W) :- reading(R, V), V > 900, sample_reading(W, R).
`

// --- PLAN verb --------------------------------------------------------------

func TestPlanVerb(t *testing.T) {
	s := newBankServer(t, Options{})
	c := s.InProcClient()
	defer c.Close()

	// PLAN with a submitted program: full report, nothing installed.
	rep, err := c.Plan(analyzeSrc)
	if err != nil {
		t.Fatalf("Plan: %v", err)
	}
	if rep.SchemaVersion != analysis.PlanSchemaVersion {
		t.Fatalf("schema_version = %d", rep.SchemaVersion)
	}
	if rep.Reorders == 0 {
		t.Fatalf("expected a reorder for hot/1: %+v", rep)
	}
	var hot *analysis.PredPlan
	for i := range rep.Predicates {
		if rep.Predicates[i].Pred == "hot/1" {
			hot = &rep.Predicates[i]
		}
	}
	if hot == nil {
		t.Fatalf("no certificate for hot/1: %+v", rep.Predicates)
	}
	if !hot.TablingEligible || !hot.UpdateFree || !hot.HypotheticalFree || hot.Recursion != analysis.RecNone {
		t.Fatalf("hot/1 certificate wrong: %+v", hot)
	}

	// PLAN without a program: the session's loaded rulebase (the bank).
	rep, err = c.Plan("")
	if err != nil {
		t.Fatalf("Plan(loaded): %v", err)
	}
	found := false
	for _, pp := range rep.Predicates {
		if strings.HasPrefix(pp.Pred, "transfer/") {
			found = true
			if pp.UpdateFree {
				t.Fatalf("transfer writes accounts but certifies update-free: %+v", pp)
			}
		}
	}
	if !found {
		t.Fatalf("loaded-program plan misses transfer: %+v", rep.Predicates)
	}

	// Parse failures answer with CodeParse, like VET.
	if _, err := c.Plan("p(."); err == nil || !strings.Contains(err.Error(), "parse") {
		t.Fatalf("bad program: err = %v, want parse error", err)
	}
}

// --- STATS wire compatibility ----------------------------------------------

// The planner keys are omitempty: a server whose program gives the planner
// nothing to do (no rules, so no reorders, hits or certificates) never
// mentions it in STATS, which keeps pre-planner frames byte-compatible.
func TestStatsSnapshotPlanKeys(t *testing.T) {
	s, err := New(Options{Program: "p(a)."})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	c := s.InProcClient()
	defer c.Close()
	if _, err := c.Exec("p(X), ins.q(X)"); err != nil {
		t.Fatalf("Exec: %v", err)
	}
	body, err := json.Marshal(s.Stats())
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(body), "plan") {
		t.Errorf("STATS frame of a rule-free server mentions the planner:\n%s", body)
	}
}

// --- planner counters and gauge --------------------------------------------

func TestPlanMetricsAndStats(t *testing.T) {
	s, err := New(Options{Program: analyzeSrc})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	c := s.InProcClient()
	defer c.Close()

	// A ground query over the planned predicate: planned dispatch fires.
	sols, err := c.Query("hot(s1)", 0)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if len(sols) != 1 {
		t.Fatalf("hot(s1) solutions = %v", sols)
	}
	snap := s.Stats()
	if snap.PlanReorders == 0 {
		t.Errorf("plan_reorders = 0, want > 0 (session engine carries the plan)")
	}
	if snap.PlanHits == 0 {
		t.Errorf("plan_hits = 0, want > 0 (ground call should hit the variant)")
	}
	if snap.PlanTablingEligible == 0 {
		t.Errorf("plan_tabling_eligible = 0, want > 0 (hot/1 is eligible)")
	}

	rec := httptest.NewRecorder()
	obs.Handler(s.Metrics()).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{
		"# TYPE td_plan_reorders_total counter",
		"# TYPE td_plan_hits_total counter",
		"# TYPE td_plan_tabling_eligible gauge",
		`td_plan_tabling_eligible{pred="hot/1"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q\n----\n%s", want, body)
		}
	}
}
