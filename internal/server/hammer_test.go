package server

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/db"
	"repro/internal/engine"
	"repro/internal/parser"
	"repro/internal/verify"
)

// bankSrcN builds a bank program over n accounts of 1000 each, using the
// same rulebase as bankSrc.
func bankSrcN(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "account(n%d, 1000).\n", i)
	}
	b.WriteString(`
	balance(A, B) :- account(A, B).
	change(A, B1, B2) :- del.account(A, B1), ins.account(A, B2).
	withdraw(Amt, A) :- balance(A, B), B >= Amt, sub(B, Amt, C), change(A, B, C).
	deposit(Amt, A) :- balance(A, B), add(B, Amt, C), change(A, B, C).
	transfer(Amt, A, B) :- withdraw(Amt, A), deposit(Amt, B).
`)
	return b.String()
}

// TestBankSerializabilityHammer drives the server with concurrent clients
// that mostly transfer inside their own group of accounts and, one time in
// five, into another client's group, then checks the outcome against two
// oracles: money conservation, and a serial replay of every committed
// transaction in LSN order (LSN order is the serial order the commit
// protocol claims to realize — the replayed final state must equal the
// server's). Run under -race this also exercises the commit lock protocol.
func TestBankSerializabilityHammer(t *testing.T) {
	const (
		accounts = 32
		clients  = 8
		txnsEach = 15
		group    = accounts / clients
	)
	account := func(client, k int) string { return fmt.Sprintf("n%d", client*group+k%group) }

	src := bankSrcN(accounts)
	s, err := New(Options{Program: src, MaxRetries: 200})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	type committed struct {
		lsn  uint64
		goal string
	}
	var (
		mu  sync.Mutex
		log []committed
	)
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := s.InProcClient()
			defer c.Close()
			for j := 0; j < txnsEach; j++ {
				from, to := account(i, j), account(i, j+1)
				if j%5 == 0 { // ~20% of the mix lands in another client's group
					to = account((i+1+j)%clients, j)
				}
				goal := fmt.Sprintf("transfer(%d, %s, %s)", 1+j%3, from, to)
				res, err := c.Exec(goal)
				if err != nil {
					errCh <- fmt.Errorf("client %d txn %d (%s): %w", i, j, goal, err)
					return
				}
				mu.Lock()
				log = append(log, committed{lsn: res.Version, goal: goal})
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	// Oracle 1: conservation, exact commit accounting, contiguous LSNs.
	st := s.Stats()
	if st.Commits != clients*txnsEach {
		t.Fatalf("commits = %d, want %d", st.Commits, clients*txnsEach)
	}
	if st.Version != uint64(clients*txnsEach) {
		t.Fatalf("version = %d, want %d (LSNs must stay contiguous)",
			st.Version, clients*txnsEach)
	}
	d := s.Snapshot().Thaw()
	var sum int64
	for row := range d.All("account", 2) {
		sum += row[1].IntVal()
	}
	if want := int64(accounts) * 1000; sum != want {
		t.Fatalf("total money = %d, want %d", sum, want)
	}

	// Oracle 2: serial replay in LSN order. The committed LSNs must be a
	// permutation of 1..N, and replaying the goals in that order from the
	// initial state must land exactly on the server's final state.
	mu.Lock()
	byLSN := make(map[uint64]string, len(log))
	for _, c := range log {
		if _, dup := byLSN[c.lsn]; dup {
			t.Fatalf("two commits acknowledged with LSN %d", c.lsn)
		}
		byLSN[c.lsn] = c.goal
	}
	mu.Unlock()
	prog := parser.MustParse(src)
	replay, err := db.FromFacts(prog.Facts)
	if err != nil {
		t.Fatal(err)
	}
	high := prog.VarHigh
	for lsn := uint64(1); lsn <= uint64(len(byLSN)); lsn++ {
		src, ok := byLSN[lsn]
		if !ok {
			t.Fatalf("no commit acknowledged LSN %d", lsn)
		}
		goal, h, err := parser.ParseGoal(src, high)
		if err != nil {
			t.Fatal(err)
		}
		high = h
		finals, err := verify.Finals(prog, goal, replay, engine.DefaultOptions())
		if err != nil {
			t.Fatalf("replaying %s at LSN %d: %v", src, lsn, err)
		}
		if len(finals) != 1 {
			t.Fatalf("replaying %s at LSN %d: %d final states, want 1", src, lsn, len(finals))
		}
		replay = finals[0]
	}
	if !d.Equal(replay) {
		t.Fatalf("server final state differs from the LSN-order serial replay:\nserver:\n%s\nreplay:\n%s", d, replay)
	}
}

// A session has one position: the version of its replica. Its own commit
// moves that position to the commit's LSN, so what other sessions committed
// below that LSN must be folded into the replica by then (else "version ==
// head" would skip it forever), and what they commit afterwards must be
// picked up by the next BEGIN.
func TestOwnCommitKeepsReplicaCurrent(t *testing.T) {
	s, err := New(Options{Program: bankSrcN(4)})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	a, b := s.InProcClient(), s.InProcClient()
	defer a.Close()
	defer b.Close()

	if err := a.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Run("deposit(1, n0)"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Exec("deposit(5, n1)"); err != nil { // while a's transaction is open
		t.Fatal(err)
	}
	lsn, err := a.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if head := s.Version(); lsn != head {
		t.Fatalf("a committed at %d but the head is %d: the scenario needs a to hold the head version", lsn, head)
	}
	if _, err := b.Exec("deposit(7, n2)"); err != nil { // after a's commit, before its next BEGIN
		t.Fatal(err)
	}

	if err := a.Begin(); err != nil {
		t.Fatal(err)
	}
	for acct, want := range map[string]string{"n1": "1005", "n2": "1007"} {
		sols, err := a.Query(fmt.Sprintf("account(%s, B)", acct), 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(sols) != 1 || sols[0]["B"] != want {
			t.Fatalf("a reads %v for %s after b's commit, want one answer B=%s", sols, acct, want)
		}
		if _, err := a.Run(fmt.Sprintf("deposit(1, %s)", acct)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := a.Commit(); err != nil {
		t.Fatalf("a's transaction on the accounts b wrote: %v", err)
	}
	if st := s.Stats(); st.Conflicts != 0 {
		t.Fatalf("%d conflicts in a schedule with none", st.Conflicts)
	}
}
