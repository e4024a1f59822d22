package server

import (
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/db"
	"repro/internal/term"
)

// Allocation regression guards for the commit critical section. Everything
// here runs under a lane lock on every commit, so per-commit garbage
// directly serializes that lane's pipeline.

// pruneShardLocked must not copy the lane's commit log on the steady-state
// path: with a laggard session pinning the window, appending a record and
// pruning advances the live-window offset in place. (The amortized
// compaction copy is excluded by keeping the dead prefix below its
// threshold.)
func TestPruneShardLockedAllocs(t *testing.T) {
	s, err := New(Options{StoreShards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// One laggard keeps an 8-entry live window so pruning never empties
	// the log, and the clog has capacity to append without growing.
	laggard := &session{srv: s, applied: make([]atomic.Uint64, s.nshards)}
	s.mu.Lock()
	s.sessions[laggard] = struct{}{}
	s.mu.Unlock()
	ops := []db.Op{{Insert: true, Pred: "p", Row: []term.Term{term.NewInt(1)}}}

	sh := s.shards[0]
	sh.mu.Lock()
	sh.clog = make([]commitRecord, 0, 4096)
	next := sh.version.Load()
	n := testing.AllocsPerRun(500, func() {
		next++
		sh.version.Store(next)
		sh.clog = append(sh.clog, commitRecord{version: next, ops: ops})
		if next > 8 {
			laggard.applied[0].Store(next - 8)
		}
		s.pruneShardLocked(sh)
		if len(sh.clog) == cap(sh.clog) {
			// Reset before append would reallocate; not counted as the
			// steady state under test.
			live := sh.clog[sh.clogLo:]
			sh.clog = sh.clog[:copy(sh.clog[:cap(sh.clog)], live)]
			sh.clogLo = 0
		}
	})
	sh.mu.Unlock()
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
	rs := newReadSet(4)
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
// keys for a write set that lands in one lane.
func TestNewCommitIntentAllocs(t *testing.T) {
	ops := make([]db.Op, 7)
	for i := range ops {
		ops[i] = db.Op{Insert: true, Pred: fmt.Sprintf("done_%d", i), Row: []term.Term{term.NewInt(42)}}
	}
	rs := newReadSet(1)
	var in commitIntent
	if n := testing.AllocsPerRun(200, func() { in = newCommitIntent(1, rs, ops) }); n > 3 {
		t.Errorf("newCommitIntent, single lane: %v allocs/op, want <= 3", n)
	}
	if len(in.rec.writes) != len(ops) || in.shardOps != nil {
		t.Fatalf("intent keys %d of %d ops, split = %v", len(in.rec.writes), len(ops), in.shardOps != nil)
	}
}
