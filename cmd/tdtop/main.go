// Command tdtop is a refresh-loop terminal view of a running tdserver —
// "top" for the transaction pipeline. Each tick it fetches STATS over the
// wire protocol and renders throughput, the sampled per-stage latency
// quantiles, SLO burn rates, the memo-table hit rate, and the hottest
// profiled predicates.
//
// Usage:
//
//	tdtop [-addr :7090] [-interval 2s] [-once]
//
// Stage quantiles appear only when the server samples transactions
// (-obs.sample or -obs.jsonl), the prover section only when something
// profiled (-obs.profile or the PROFILE verb), the memo section only when
// tabling saw traffic (-engine.table or the TABLE verb), and the SLO section
// only when objectives are configured (-obs.slo). See docs/OBSERVABILITY.md.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	td "repro"
)

// stageOrder is the pipeline order of the server's stage taxonomy.
var stageOrder = []string{"parse", "prove", "validate", "lane_wait", "apply", "wal_append", "fsync_wait", "ack"}

func main() {
	var (
		addr     = flag.String("addr", ":7090", "server address")
		interval = flag.Duration("interval", 2*time.Second, "refresh interval")
		once     = flag.Bool("once", false, "print one snapshot and exit")
	)
	flag.Parse()
	if err := run(os.Stdout, *addr, *interval, *once); err != nil {
		fmt.Fprintln(os.Stderr, "tdtop:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, addr string, interval time.Duration, once bool) error {
	cl, err := td.DialServer(addr)
	if err != nil {
		return err
	}
	defer cl.Close()

	st, err := cl.Stats()
	if err != nil {
		return err
	}
	if once {
		render(w, st, nil, 0)
		return nil
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	tick := time.NewTicker(interval)
	defer tick.Stop()
	prev, prevAt := st, time.Now()
	fmt.Fprint(w, "\x1b[2J") // clear once; each frame repaints from the top
	render(w, st, nil, 0)
	for {
		select {
		case <-sig:
			return nil
		case <-tick.C:
			cur, err := cl.Stats()
			if err != nil {
				return err
			}
			now := time.Now()
			fmt.Fprint(w, "\x1b[2J")
			render(w, cur, prev, now.Sub(prevAt))
			prev, prevAt = cur, now
		}
	}
}

// render paints one frame. With a previous snapshot, rates are computed over
// the elapsed interval; without one they are lifetime averages over the
// server's uptime.
func render(w io.Writer, cur, prev *td.ServerStats, dt time.Duration) {
	fmt.Fprint(w, "\x1b[H")
	fmt.Fprintf(w, "tdtop — version %d, %d tuples, uptime %s\n",
		cur.Version, cur.DBSize, (time.Duration(cur.UptimeMs) * time.Millisecond).Round(time.Second))
	fmt.Fprintf(w, "sessions %d open / %d total\n\n", cur.SessionsOpen, cur.SessionsTotal)

	commits, conflicts, window := cur.Commits, cur.Conflicts, time.Duration(cur.UptimeMs)*time.Millisecond
	label := "lifetime"
	if prev != nil && dt > 0 {
		commits, conflicts, window, label = cur.Commits-prev.Commits, cur.Conflicts-prev.Conflicts, dt, "interval"
	}
	secs := window.Seconds()
	if secs <= 0 {
		secs = 1
	}
	fmt.Fprintf(w, "throughput (%s): %.0f commits/sec, %.0f conflicts/sec\n",
		label, float64(commits)/secs, float64(conflicts)/secs)
	fmt.Fprintf(w, "commit latency: p50=%dus p99=%dus\n\n", cur.CommitP50Us, cur.CommitP99Us)

	if len(cur.StageP99Us) > 0 {
		fmt.Fprintf(w, "%-11s %9s %9s\n", "stage", "p50(us)", "p99(us)")
		for _, stage := range stageOrder {
			p99, ok := cur.StageP99Us[stage]
			if !ok {
				continue
			}
			fmt.Fprintf(w, "%-11s %9d %9d  %s\n", stage, cur.StageP50Us[stage], p99, bar(p99, cur.StageP99Us))
		}
		fmt.Fprintln(w)
	}

	for _, slo := range cur.SLOs {
		state := "ok"
		if slo.BurnRate > 1 {
			state = "BREACH"
		}
		fmt.Fprintf(w, "slo %-8s %d/%d within %dus (objective %g)  burn %.2f  %s\n",
			slo.Name, slo.Good, slo.Total, slo.ThresholdUs, slo.Objective, slo.BurnRate, state)
	}
	if len(cur.SLOs) > 0 {
		fmt.Fprintln(w)
	}

	if cur.MemoHits+cur.MemoMisses > 0 {
		hits, misses := cur.MemoHits, cur.MemoMisses
		memoLabel := "lifetime"
		if prev != nil && dt > 0 {
			hits, misses, memoLabel = cur.MemoHits-prev.MemoHits, cur.MemoMisses-prev.MemoMisses, "interval"
		}
		rate := 0.0
		if hits+misses > 0 {
			rate = 100 * float64(hits) / float64(hits+misses)
		}
		fmt.Fprintf(w, "memo (%s): %.1f%% hit rate (%d/%d), %d entries, %dB, %d evictions\n",
			memoLabel, rate, hits, hits+misses, cur.MemoEntries, cur.MemoBytes, cur.MemoEvictions)
		preds := cur.MemoPreds
		if len(preds) > 5 {
			preds = preds[:5]
		}
		for _, p := range preds {
			fmt.Fprintf(w, "  %-20s hits %9d  misses %9d\n", p.Pred, p.Hits, p.Misses)
		}
		fmt.Fprintln(w)
	}

	if len(cur.ProverProfile) > 0 {
		type row struct {
			pred string
			p    td.ServerPredProfile
		}
		rows := make([]row, 0, len(cur.ProverProfile))
		for pred, p := range cur.ProverProfile {
			rows = append(rows, row{pred, p})
		}
		sort.Slice(rows, func(i, j int) bool { return rows[i].p.TimeUs > rows[j].p.TimeUs })
		if len(rows) > 10 {
			rows = rows[:10]
		}
		fmt.Fprintf(w, "%-20s %9s %9s %9s\n", "predicate", "calls", "fanout", "time(us)")
		for _, r := range rows {
			fmt.Fprintf(w, "%-20s %9d %9d %9d\n", r.pred, r.p.Calls, r.p.Fanout, r.p.TimeUs)
		}
	}
}

// bar renders a latency value proportionally to the slowest stage, so the
// dominant stage is visible at a glance.
func bar(v int64, all map[string]int64) string {
	var max int64
	for _, n := range all {
		if n > max {
			max = n
		}
	}
	if max <= 0 {
		return ""
	}
	n := int(v * 24 / max)
	return strings.Repeat("#", n)
}
