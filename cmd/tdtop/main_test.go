package main

import (
	"bytes"
	"strings"
	"testing"
	"time"

	td "repro"
)

// render over a fully populated snapshot shows every section: throughput,
// the stage table in pipeline order, SLO state, and the prover profile
// sorted hottest-first.
func TestRenderFullSnapshot(t *testing.T) {
	prev := &td.ServerStats{Commits: 100, Conflicts: 10}
	cur := &td.ServerStats{
		Version: 220, DBSize: 42, UptimeMs: 60_000,
		SessionsOpen: 3, SessionsTotal: 9,
		Commits: 300, Conflicts: 20,
		CommitP50Us: 250, CommitP99Us: 4000,
		StageP50Us: map[string]int64{
			"parse": 10, "prove": 150, "validate": 5, "lane_wait": 2,
			"apply": 8, "wal_append": 12, "fsync_wait": 700, "ack": 9,
		},
		StageP99Us: map[string]int64{
			"parse": 30, "prove": 900, "validate": 15, "lane_wait": 40,
			"apply": 25, "wal_append": 60, "fsync_wait": 2500, "ack": 20,
		},
		SLOs: []td.ServerSLOSnapshot{
			{Name: "commit", ThresholdUs: 5000, Objective: 0.999, Good: 299, Total: 300, BurnRate: 3.33},
		},
		ProverProfile: map[string]td.ServerPredProfile{
			"transfer": {Calls: 300, Fanout: 600, TimeUs: 9000},
			"balance":  {Calls: 600, Fanout: 600, TimeUs: 1000},
		},
	}

	var out bytes.Buffer
	render(&out, cur, prev, 2*time.Second)
	body := out.String()
	for _, want := range []string{
		"version 220, 42 tuples",
		"sessions 3 open / 9 total",
		"throughput (interval): 100 commits/sec, 5 conflicts/sec",
		"commit latency: p50=250us p99=4000us",
		"fsync_wait", "wal_append",
		"slo commit", "burn 3.33", "BREACH",
		"predicate",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("render missing %q:\n%s", want, body)
		}
	}
	// Stage rows follow pipeline order, not map order.
	if strings.Index(body, "prove") > strings.Index(body, "fsync_wait") {
		t.Errorf("stage rows out of pipeline order:\n%s", body)
	}
	// The slowest stage owns the longest bar.
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "fsync_wait") && !strings.Contains(line, strings.Repeat("#", 24)) {
			t.Errorf("dominant stage has no full bar: %q", line)
		}
	}
	// Hottest predicate sorts first.
	if strings.Index(body, "transfer") > strings.Index(body, "balance") {
		t.Errorf("prover rows not sorted by time:\n%s", body)
	}
}

// A bare snapshot (no sampling, no SLOs, no profile) renders only
// the always-on header and throughput — no empty section stubs.
func TestRenderMinimalSnapshot(t *testing.T) {
	var out bytes.Buffer
	render(&out, &td.ServerStats{Version: 1, UptimeMs: 1000, Commits: 5}, nil, 0)
	body := out.String()
	if !strings.Contains(body, "throughput (lifetime): 5 commits/sec") {
		t.Errorf("lifetime throughput missing:\n%s", body)
	}
	for _, absent := range []string{"stage", "slo", "predicate"} {
		if strings.Contains(body, absent) {
			t.Errorf("empty section %q rendered:\n%s", absent, body)
		}
	}
}

// run -once against a live server prints a single frame without clearing
// the screen.
func TestRunOnce(t *testing.T) {
	srv, err := td.NewServer(td.ServerOptions{
		Program:     "account(a, 100).",
		StageSample: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	if err := run(&out, addr.String(), time.Second, true); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "tdtop — version") {
		t.Errorf("no frame rendered:\n%s", out.String())
	}
	if strings.Contains(out.String(), "\x1b[2J") {
		t.Errorf("-once cleared the screen:\n%q", out.String())
	}
}
