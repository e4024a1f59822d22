package server

// Stage-level latency attribution: a sampled transaction carries a stage
// clock through its whole lifetime — parse to acknowledgment — and every
// handoff point marks the clock, charging the interval since the previous
// mark to the pipeline stage that just finished. The result is an additive
// decomposition of the transaction's wall-clock: sum(stages) ~= end-to-end
// latency, so a p99 regression can be attributed to the stage that moved
// instead of eyeballed from aggregate histograms.
//
// Sampling is 1-in-N per session (Options.StageSample); an unsampled
// transaction carries a nil clock and pays only a nil check per mark site.
// Sampled stage durations feed the td_txn_stage_us{stage=} histograms, the
// STATS stage_p50_us/stage_p99_us maps, and — when Options.WideSink is set —
// one "wide event" JSONL line per transaction.

import "time"

// Pipeline stages. A committing EXEC passes through them in this order,
// except that it appends its WAL block and advances the frozen view before
// it publishes its record and folds concurrent commits into its replica.
const (
	stageParse     = iota // goal text -> AST
	stageProve            // proof search over the session replica
	stageValidate         // OCC backward validation (lock-free scans + delta re-checks)
	stageLockWait         // waiting for the commit lock
	stageApply            // publishing the commit record, folding concurrent commits into the replica
	stageWALAppend        // LSN claim, WAL block append, frozen view and history window
	stageFsyncWait        // parked on the group-commit flusher's covering fsync
	stageAck              // response serialization and the socket write
	nStages
)

// stageNames are the label values of td_txn_stage_us{stage=} and the keys of
// the wide event's stage_us map, indexed by the constants above. The wait
// for the commit lock keeps the key "lane_wait" from when there were commit
// lanes: bench/trace.go, tdtop, tdlog and every recorded BENCH_*.json look
// it up by that name.
var stageNames = [nStages]string{
	"parse", "prove", "validate", "lane_wait", "apply", "wal_append", "fsync_wait", "ack",
}

// stageClock attributes one transaction's wall-clock to pipeline stages and
// accumulates the commit-path facts the wide event reports. Each session
// owns one, reused across sampled transactions; it is only ever touched by
// the owning session goroutine.
type stageClock struct {
	// now reads the time; nil means time.Now. Only tests set it (through
	// Server.stageNow), to a stepped clock under which the decomposition is
	// exact. reset keeps it.
	now func() time.Time

	start time.Time
	last  time.Time
	dur   [nStages]time.Duration

	// Commit-path facts recorded along the way (wide-event payload).
	ops      int    // write-set size (net ops)
	conflict string // cause of the last OCC round lost before success
	batch    int64  // commits covered by the fsync that acknowledged us

	// For a read_write loss: the winner's LSN and the atom of its op that
	// the read set had observed.
	conflictLSN  uint64
	conflictAtom string
}

// read returns the current time by the clock's time source.
func (c *stageClock) read() time.Time {
	if c.now != nil {
		return c.now()
	}
	return time.Now()
}

// reset rearms the clock for a new transaction.
func (c *stageClock) reset() {
	now := c.read()
	*c = stageClock{now: c.now, start: now, last: now}
}

// mark charges the interval since the previous mark to stage. Stages may be
// marked more than once (validate runs lock-free and again under the commit
// lock; EXEC retries accumulate across attempts): durations add up.
func (c *stageClock) mark(stage int) {
	now := c.read()
	c.dur[stage] += now.Sub(c.last)
	c.last = now
}

// total is the transaction's end-to-end wall-clock so far.
func (c *stageClock) total() time.Duration { return c.read().Sub(c.start) }
