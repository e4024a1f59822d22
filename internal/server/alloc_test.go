package server

import (
	"fmt"
	"testing"

	"repro/internal/db"
	"repro/internal/term"
)

// Allocation regression guards for the commit critical section. Everything
// here runs under the commit lock on every commit, so per-commit garbage
// directly serializes the pipeline.

// pruneLogLocked must not copy the commit log on the steady-state path: with
// a laggard session pinning the window, appending a record and pruning
// advances the live-window offset in place. (The amortized compaction copy
// is excluded by keeping the dead prefix below its threshold.)
func TestPruneLogLockedAllocs(t *testing.T) {
	s, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// One laggard keeps an 8-entry live window so pruning never empties
	// the log, and the clog has capacity to append without growing.
	laggard := &session{srv: s}
	s.mu.Lock()
	s.sessions[laggard] = struct{}{}
	s.mu.Unlock()
	ops := []db.Op{{Insert: true, Pred: "p", Row: []term.Term{term.NewInt(1)}}}

	s.commitMu.Lock()
	s.clog = make([]commitRecord, 0, 4096)
	next := s.version.Load()
	n := testing.AllocsPerRun(500, func() {
		next++
		s.version.Store(next)
		s.clog = append(s.clog, commitRecord{version: next, ops: ops})
		if next > 8 {
			laggard.version.Store(next - 8)
		}
		s.pruneLogLocked()
		if len(s.clog) == cap(s.clog) {
			// Reset before append would reallocate; not counted as the
			// steady state under test.
			live := s.clog[s.clogLo:]
			s.clog = s.clog[:copy(s.clog[:cap(s.clog)], live)]
			s.clogLo = 0
		}
	})
	s.commitMu.Unlock()
	s.mu.Lock()
	delete(s.sessions, laggard) // it has no conn for Close to close
	s.mu.Unlock()
	if n > 1 {
		t.Errorf("append+prune steady state: %v allocs/op, want <= 1", n)
	}
}

// The read hook fires for every read of every explored path. With
// fingerprint keys an observation is one set insert of a fixed-size key:
// once the recycled read set's maps have grown, recording a transaction's
// reads allocates nothing.
func TestReadObservationAllocs(t *testing.T) {
	d := db.New()
	rows := make([][]term.Term, 48)
	for i := range rows {
		rows[i] = []term.Term{term.NewInt(int64(i)), term.NewInt(int64(i * 7))}
		d.Insert("account", rows[i])
	}
	d.ResetTrail()
	rs := newReadSet()
	d.SetReadHook(rs.observe)
	env := term.NewEnv()
	txn := func() {
		rs.reset()
		for _, r := range rows {
			d.Contains("account", r)
			d.Scan("account", r, env, func() bool { return true })
			d.Insert("account", r)
		}
		d.IsEmpty("account")
	}
	txn() // warm-up: grow the maps
	if n := testing.AllocsPerRun(100, txn); n != 0 {
		t.Errorf("recording %d read observations: %v allocs/op, want 0", rs.size(), n)
	}
	if rs.size() != len(rows)+1 {
		t.Fatalf("read set holds %d observations, want %d keys and 1 predicate", rs.size(), len(rows))
	}
}

// Conflict-keying a write set builds no strings: one slice of fixed-size
// keys.
func TestNewCommitRecordAllocs(t *testing.T) {
	ops := make([]db.Op, 7)
	for i := range ops {
		ops[i] = db.Op{Insert: true, Pred: fmt.Sprintf("done_%d", i), Row: []term.Term{term.NewInt(42)}}
	}
	var rec commitRecord
	if n := testing.AllocsPerRun(200, func() { rec = newCommitRecord(ops) }); n > 1 {
		t.Errorf("newCommitRecord: %v allocs/op, want <= 1", n)
	}
	if len(rec.writes) != len(ops) {
		t.Fatalf("record keys %d of %d ops", len(rec.writes), len(ops))
	}
}
