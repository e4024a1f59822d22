package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	td "repro"
	"repro/internal/db"
	"repro/internal/obs"
	"repro/internal/term"
)

// TestDumpWALAndManifest drives the operator modes against files a real
// store wrote: the WAL dump shows ops grouped under commit boundaries and
// the manifest dump shows the checkpoint's provenance.
func TestDumpWALAndManifest(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "db.snap")
	wal := filepath.Join(dir, "db.wal")
	s, err := db.OpenStore(snap, wal)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Insert("edge", []term.Term{term.NewSym("a"), term.NewSym("b")}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Insert("edge", []term.Term{term.NewSym("b"), term.NewSym("c")}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Delete("edge", []term.Term{term.NewSym("a"), term.NewSym("b")}); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckpointFrom(db.FreezeDB(s.DB), 1); err != nil { // keep blocks 2..3 in the log
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	if err := dumpWAL(&out, wal); err != nil {
		t.Fatalf("dumpWAL: %v", err)
	}
	for _, want := range []string{
		"ins edge(b, c)",
		"del edge(a, b)",
		"commit lsn=2",
		"commit lsn=3",
		"wal: v2 framing, 2 op record(s), 2 commit boundaries",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("WAL dump missing %q:\n%s", want, out.String())
		}
	}
	if strings.Contains(out.String(), "edge(a, b)\ncommit lsn=1") {
		t.Errorf("WAL dump shows the truncated block:\n%s", out.String())
	}

	out.Reset()
	if err := dumpManifest(&out, snap); err != nil {
		t.Fatalf("dumpManifest: %v", err)
	}
	if got, want := out.String(), "snapshot: format v2, lsn 1, 1 record(s)\n"; got != want {
		t.Errorf("manifest dump = %q, want %q", got, want)
	}
}

// TestDumpWide is the wide-event round trip: a durable server with a JSONL
// sink records sampled transactions (span lines interleaved on the same
// stream), and tdlog -wide tabulates exactly the transaction lines. The
// stages of a transaction never add up to more than its end-to-end time;
// that they add up to all of it is asserted under a stepped clock in
// internal/server (TestWideEvents), not against this machine's.
func TestDumpWide(t *testing.T) {
	dir := t.TempDir()
	jsonl := filepath.Join(dir, "obs.jsonl")
	sink, err := obs.OpenJSONL(jsonl)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := td.NewServer(td.ServerOptions{
		Program: `account(a, 100). account(b, 100).
			withdraw(Amt, A) :- account(A, B), B >= Amt, del.account(A, B), sub(B, Amt, C), ins.account(A, C).
			deposit(Amt, A) :- account(A, B), del.account(A, B), add(B, Amt, C), ins.account(A, C).
			transfer(Amt, A, B) :- withdraw(Amt, A), deposit(Amt, B).`,
		SnapshotPath: filepath.Join(dir, "td.snap"),
		WALPath:      filepath.Join(dir, "td.wal"),
		TraceSink:    sink, // span lines share the stream and must be skipped
		WideSink:     sink,
		Trace:        true,
	})
	if err != nil {
		t.Fatal(err)
	}
	c := srv.InProcClient()
	for i := 0; i < 3; i++ {
		if _, err := c.Exec("transfer(1, a, b)"); err != nil {
			t.Fatalf("Exec: %v", err)
		}
	}
	if err := c.Ping(); err != nil { // serialize behind the last finalization
		t.Fatal(err)
	}
	c.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}

	// The recorded events decode, and no stage sum exceeds its end-to-end.
	data, err := os.ReadFile(jsonl)
	if err != nil {
		t.Fatal(err)
	}
	var txns, spans int
	for _, line := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
		var ev obs.WideEvent
		if json.Unmarshal(line, &ev) != nil || ev.Event != "txn" {
			spans++
			continue
		}
		txns++
		var sum int64
		for _, us := range ev.StageUs {
			sum += us
		}
		if ev.TotalUs <= 0 {
			t.Fatalf("event without total: %s", line)
		}
		if sum > ev.TotalUs {
			t.Errorf("stage sum %dus exceeds total %dus: %s", sum, ev.TotalUs, line)
		}
	}
	if txns != 3 || spans == 0 {
		t.Fatalf("recorded %d txn and %d span lines, want 3 and >0", txns, spans)
	}

	var out bytes.Buffer
	if err := dumpWide(&out, jsonl); err != nil {
		t.Fatalf("dumpWide: %v", err)
	}
	for _, want := range []string{
		`verb=EXEC goal="transfer(1, a, b)"`,
		"prove=",
		"fsync_wait=",
		"wide: 3 transaction(s)",
		"stage totals (us):",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("wide dump missing %q:\n%s", want, out.String())
		}
	}
}

// A lost OCC round's row says what it lost to: the winner's LSN and the
// atom of the winner's op the loser had observed.
func TestDumpWideConflictCause(t *testing.T) {
	jsonl := filepath.Join(t.TempDir(), "obs.jsonl")
	sink, err := obs.OpenJSONL(jsonl)
	if err != nil {
		t.Fatal(err)
	}
	sink.EmitWide(&obs.WideEvent{Event: "txn", Verb: "COMMIT", Conflict: "read_write",
		ConflictLSN: 41, ConflictAtom: "account(a, 100)", TotalUs: 9})
	sink.EmitWide(&obs.WideEvent{Event: "txn", Verb: "EXEC", LSN: 42, Retries: 1, Conflict: "stale_replica", TotalUs: 9})
	sink.EmitWide(&obs.WideEvent{Event: "txn", Verb: "QUERY", MemoMisses: 1, MemoStale: "reading/2[r17]", TotalUs: 9})
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := dumpWide(&out, jsonl); err != nil {
		t.Fatalf("dumpWide: %v", err)
	}
	if want := "conflict=read_write lost_to=41:account(a, 100)"; !strings.Contains(out.String(), want) {
		t.Errorf("wide dump missing %q:\n%s", want, out.String())
	}
	if want := "memo_misses=1 memo_stale=reading/2[r17]"; !strings.Contains(out.String(), want) {
		t.Errorf("wide dump missing %q:\n%s", want, out.String())
	}
	if strings.Count(out.String(), "lost_to=") != 1 {
		t.Errorf("a round lost to pruned history names a winner:\n%s", out.String())
	}
}
