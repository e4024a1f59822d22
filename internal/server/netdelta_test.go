package server

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/db"
	"repro/internal/engine"
	"repro/internal/parser"
	"repro/internal/workflow"
)

// The unit of commit is a transaction's net effect, and validation is by
// value: a winner that deletes and re-inserts p(a, 1) determined nothing
// about it, so a concurrent transaction that observed p(a, 1) — by key, by
// first-argument prefix, by relation scan, through empty.p, or through its
// own update of the tuple — commits behind it. A winner whose net effect
// does change p(a, 1) aborts the same transaction in every one of those
// forms. The two sessions are interleaved request by request, no sleeps.
func TestNetZeroWriterAbortsNoReader(t *testing.T) {
	reads := []struct {
		name, goal string
		noProof    bool // the read is still observed when the goal fails
	}{
		{"key", "p(a, 1)", false},
		{"prefix", "p(a, X)", false},
		{"relation", "p(X, Y)", false},
		{"empty", "empty.p", true},
		{"own update", "del.p(a, 1), ins.p(a, 1)", false},
	}
	winners := []struct {
		name, goal string
		conflict   bool
	}{
		{"net-zero", "del.p(a, 1), ins.p(a, 1), ins.w(t1)", false},
		{"net-changing", "del.p(a, 1), ins.w(t1)", true},
	}
	// The shards1/shards4 level of the subtest names is left from when the
	// store had commit lanes. It selects nothing any more; it stays so that
	// the recorded IDs of these cells keep resolving.
	for _, legacy := range []string{"shards1", "shards4"} {
		for _, rd := range reads {
			for _, win := range winners {
				t.Run(legacy+"/"+rd.name+"/"+win.name, func(t *testing.T) {
					s, err := New(Options{Program: "p(a, 1). p(b, 2)."})
					if err != nil {
						t.Fatal(err)
					}
					defer s.Close()
					t1, t2 := s.InProcClient(), s.InProcClient()
					defer t1.Close()
					defer t2.Close()
					for _, c := range []*Client{t1, t2} {
						if err := c.Begin(); err != nil {
							t.Fatal(err)
						}
					}
					if _, err := t2.Run(rd.goal); (err != nil) != rd.noProof {
						t.Fatalf("T2 RUN %s: %v", rd.goal, err)
					}
					if _, err := t2.Run("ins.r(t2)"); err != nil {
						t.Fatal(err)
					}
					if _, err := t1.Run(win.goal); err != nil {
						t.Fatal(err)
					}
					if lsn, err := t1.Commit(); err != nil || lsn != 1 {
						t.Fatalf("T1 COMMIT: lsn %d, %v", lsn, err)
					}
					lsn, err := t2.Commit()
					st := s.Stats()
					if win.conflict {
						if !IsConflict(err) || st.Conflicts != 1 {
							t.Fatalf("T2 COMMIT behind a winner that changed p(a, 1): lsn %d, err %v, %d conflicts; want a conflict", lsn, err, st.Conflicts)
						}
						return
					}
					if err != nil || lsn != 2 || st.Conflicts != 0 {
						t.Fatalf("T2 COMMIT behind a net-zero winner: lsn %d, err %v, %d conflicts; want LSN 2 and none", lsn, err, st.Conflicts)
					}
					d := s.Snapshot().Thaw()
					want, _ := db.FromFacts(parser.MustParse("p(a, 1). p(b, 2). w(t1). r(t2).").Facts)
					if !d.Equal(want) {
						t.Fatalf("final state:\n%s", d)
					}
					// The version's change set is the net effect: T1's cancelled
					// pair on p(a, 1) is in neither the feed nor the commit log.
					deltas, err := t1.Changes(0)
					if err != nil {
						t.Fatal(err)
					}
					if got := fmt.Sprint(deltas); got != "[{1 [{ins w(t1)}]} {2 [{ins r(t2)}]}]" {
						t.Errorf("CHANGES 0 = %s", got)
					}
				})
			}
		}
	}
}

// A transaction whose updates cancel out is the identity on the database:
// it returns as read-only, at the session's version, consuming no LSN and
// leaving nothing on the session's undo trail.
func TestEmptyNetDeltaIsReadOnly(t *testing.T) {
	s, err := New(Options{Program: "p(a)."})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c := s.InProcClient()
	defer c.Close()
	if res, err := c.Exec("ins.q(y)"); err != nil || res.Version != 1 {
		t.Fatalf("EXEC ins.q(y): %+v, %v", res, err)
	}
	for _, goal := range []string{"ins.q(x), del.q(x)", "del.p(a), ins.p(a)"} {
		res, err := c.Exec(goal)
		if err != nil || res.Version != 1 {
			t.Fatalf("EXEC %s: %+v, %v; want the session's version 1", goal, res, err)
		}
		if err := c.Begin(); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Run(goal); err != nil {
			t.Fatal(err)
		}
		if lsn, err := c.Commit(); err != nil || lsn != 1 {
			t.Fatalf("COMMIT of %s: lsn %d, %v; want the session's version 1", goal, lsn, err)
		}
	}
	if st := s.Stats(); st.Commits != 1 || st.Version != 1 || st.DeltaOps != 1 {
		t.Fatalf("commits %d, version %d, delta_ops %d after four net-empty transactions; want 1, 1, 1", st.Commits, st.Version, st.DeltaOps)
	}
	// The cancelled updates were dropped from the replica's trail, so the
	// next transaction's write set is its own.
	if res, err := c.Exec("ins.q(z)"); err != nil || res.Version != 2 {
		t.Fatalf("EXEC ins.q(z): %+v, %v", res, err)
	}
	deltas, err := c.Changes(1)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(deltas); got != "[{2 [{ins q(z)}]}]" {
		t.Errorf("CHANGES 1 = %s", got)
	}
	want, _ := db.FromFacts(parser.MustParse("p(a). q(y). q(z).").Facts)
	if d := s.Snapshot().Thaw(); !d.Equal(want) {
		t.Fatalf("final state:\n%s", d)
	}
}

// TestLabFlowSerializabilityHammer runs the paper's genome-lab workflow as
// concurrent iso(wf_mapping(i)) transactions over the one shared agent
// pool. Every instance takes and returns agents (del.available(A) …
// ins.available(A)) and marks them busy in between, so the raw trails of
// any two instances overlap on every agent; their net effects — seven
// done_* inserts each — are disjoint, so nobody may abort anybody. The
// outcome is checked against a serial replay of the committed goals in LSN
// order. (The replay proves one execution per goal: verify.Finals would
// enumerate every interleaving of the seven concurrent tasks, minutes per
// instance, and all of them end in the same database.)
func TestLabFlowSerializabilityHammer(t *testing.T) {
	const (
		clients  = 6
		txnsEach = 20
	)
	rules, err := workflow.Compile(workflow.GenomeSpec())
	if err != nil {
		t.Fatal(err)
	}
	src := rules + workflow.AgentFacts(map[string]int{
		"technician": 2, "thermocycler": 1, "gel_rig": 1, "camera": 1, "analyst": 2,
	})
	s, err := New(Options{Program: src})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var (
		mu    sync.Mutex
		byLSN = make(map[uint64]string)
		wg    sync.WaitGroup
	)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := s.InProcClient()
			defer c.Close()
			for j := 0; j < txnsEach; j++ {
				goal := fmt.Sprintf("iso(wf_mapping(%d))", i*txnsEach+j)
				res, err := c.Exec(goal)
				if err != nil {
					t.Errorf("client %d: %s: %v", i, goal, err)
					return
				}
				mu.Lock()
				byLSN[res.Version] = goal
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	const total = clients * txnsEach
	st := s.Stats()
	if st.Commits != total || st.Version != total || len(byLSN) != total {
		t.Fatalf("commits %d, version %d, %d distinct LSNs acknowledged; want %d of each", st.Commits, st.Version, len(byLSN), total)
	}
	if st.Conflicts != 0 || st.Retries != 0 {
		t.Fatalf("%d conflicts, %d retries between transactions with disjoint net effects", st.Conflicts, st.Retries)
	}
	if st.DeltaOps != 7*total {
		t.Fatalf("delta_ops = %d, want %d (seven done_* inserts per instance)", st.DeltaOps, 7*total)
	}

	prog := parser.MustParse(src)
	replay, err := db.FromFacts(prog.Facts)
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(prog, engine.DefaultOptions())
	for lsn := uint64(1); lsn <= total; lsn++ {
		goal, _, err := parser.ParseGoal(byLSN[lsn], prog.VarHigh)
		if err != nil {
			t.Fatalf("LSN %d (%q): %v", lsn, byLSN[lsn], err)
		}
		if res, err := eng.Prove(goal, replay); err != nil || !res.Success {
			t.Fatalf("replaying %s at LSN %d: %+v, %v", byLSN[lsn], lsn, res, err)
		}
	}
	d := s.Snapshot().Thaw()
	if !d.Equal(replay) {
		t.Fatalf("server final state differs from the LSN-order serial replay:\nserver:\n%s\nreplay:\n%s", d, replay)
	}
	if err := workflow.CheckLabRun(workflow.LabConfig{
		Samples: total, Technicians: 2, Thermocyclers: 1, GelRigs: 1, Cameras: 1, Analysts: 2,
	}, d); err != nil {
		t.Fatal(err)
	}
}
