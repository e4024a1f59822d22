package server

import (
	"log/slog"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// serverStats is the live counter set; StatsSnapshot is its wire form.
// Scalar counters are atomics (read by the metrics registry through
// CounterFunc at scrape time); latency distributions live in lock-free
// obs.Histograms — recording a commit latency is two atomic adds, replacing
// the old 4096-entry ring that copied and sorted under a mutex on every
// STATS call.
type serverStats struct {
	sessionsOpen  atomic.Int64
	sessionsTotal atomic.Int64
	rejected      atomic.Int64
	txnsBegun     atomic.Int64
	commits       atomic.Int64
	aborts        atomic.Int64 // explicit ABORTs + failed EXECs
	conflicts     atomic.Int64 // commit validations lost (all causes)
	conflictStale atomic.Int64 // cause: replica older than the pruned log
	conflictRW    atomic.Int64 // cause: read/write overlap with a winner
	retries       atomic.Int64 // server-side EXEC retries
	noProof       atomic.Int64 // goals with no committing execution
	budgetHits    atomic.Int64 // step/time budget exhaustions
	slowTxns      atomic.Int64 // goals slower than Options.SlowTxn
	fsyncs        atomic.Int64 // WAL fsyncs performed by the flusher
	groupCommits  atomic.Int64 // WAL sync batches that made >=1 commit durable
	vetRejects    atomic.Int64 // LOADs refused by static analysis

	checkpoints      atomic.Int64 // completed checkpoints (manual + policy)
	recoveryReplayed atomic.Int64 // WAL op records replayed at the last boot

	planReorders atomic.Int64 // rule-body reorders installed into session engines
	planHits     atomic.Int64 // call steps served by plan-reordered rule variants

	// Engine and database work, aggregated per served goal.
	engineSteps atomic.Int64
	engineUnifs atomic.Int64
	engineTable atomic.Int64
	dbLookups   atomic.Int64
	dbIndexHits atomic.Int64
	dbScans     atomic.Int64
	dbRebuilds  atomic.Int64
	deltaOps    atomic.Int64 // write-set sizes of committed transactions

	commitLat *obs.Histogram
	fsyncLat  *obs.Histogram
	batchSize *obs.Histogram            // commits made durable per WAL sync
	ckptLat   *obs.Histogram            // checkpoint wall-clock duration
	verbLat   map[string]*obs.Histogram // fixed verb set, built at init
	stageLat  [nStages]*obs.Histogram   // sampled per-stage latency, by pipeline stage

	// Latency objectives fed by the commit and fsync signals, plus the
	// logger that reports burn-rate crossings. Set once at New.
	sloCommit []*obs.SLO
	sloFsync  []*obs.SLO
	logger    *slog.Logger
}

// statVerbs is the fixed set of per-verb latency series.
var statVerbs = []string{OpLoad, OpBegin, OpRun, OpCommit, OpAbort, OpExec, OpQuery, OpStats, OpPing, OpTrace, OpVet, OpCheckpoint, OpAsOf, OpChanges, OpProfile, OpPlan, OpTable}

// init creates the histograms and registers every instrument with reg.
func (st *serverStats) init(reg *obs.Registry) {
	st.commitLat = reg.Histogram("td_commit_latency_us",
		"end-to-end commit latency (validation + apply + WAL) in microseconds")
	st.fsyncLat = reg.Histogram("td_fsync_latency_us",
		"WAL flush+fsync latency at commit in microseconds")
	st.batchSize = reg.Histogram("td_commit_batch_size",
		"commits made durable per group-commit WAL sync")
	st.ckptLat = reg.Histogram("td_checkpoint_duration_us",
		"checkpoint duration (snapshot write + WAL truncation) in microseconds")
	st.verbLat = make(map[string]*obs.Histogram, len(statVerbs))
	for _, v := range statVerbs {
		st.verbLat[v] = reg.HistogramL("td_request_latency_us",
			"request handling latency by protocol verb in microseconds", `verb="`+v+`"`)
	}
	for i := 0; i < nStages; i++ {
		st.stageLat[i] = reg.HistogramL("td_txn_stage_us",
			"sampled transaction wall-clock by pipeline stage in microseconds", `stage="`+stageNames[i]+`"`)
	}

	cf := func(name, help string, v *atomic.Int64) { reg.CounterFunc(name, help, v.Load) }
	reg.GaugeFunc("td_sessions_open", "currently served sessions", st.sessionsOpen.Load)
	cf("td_sessions_total", "sessions ever admitted", &st.sessionsTotal)
	cf("td_sessions_rejected_total", "connections refused by admission control", &st.rejected)
	cf("td_txns_begun_total", "transactions opened (BEGIN + EXEC attempts)", &st.txnsBegun)
	cf("td_commits_total", "transactions committed", &st.commits)
	cf("td_aborts_total", "transactions aborted", &st.aborts)
	reg.CounterFuncL("td_conflicts_total", "commit validations lost, by cause",
		`cause="read_write"`, st.conflictRW.Load)
	reg.CounterFuncL("td_conflicts_total", "commit validations lost, by cause",
		`cause="stale_replica"`, st.conflictStale.Load)
	cf("td_retries_total", "server-side EXEC conflict retries", &st.retries)
	cf("td_no_proof_total", "goals with no committing execution", &st.noProof)
	cf("td_budget_hits_total", "step/time budget exhaustions", &st.budgetHits)
	cf("td_slow_txns_total", "goals slower than the slow-transaction threshold", &st.slowTxns)
	cf("td_fsyncs_total", "WAL fsyncs performed at commit", &st.fsyncs)
	cf("td_group_commits_total", "group-commit WAL sync batches covering at least one commit", &st.groupCommits)
	cf("td_vet_rejections_total", "programs refused at LOAD by static analysis", &st.vetRejects)
	cf("td_checkpoints_total", "checkpoints completed (manual CHECKPOINT + background policy)", &st.checkpoints)
	reg.GaugeFunc("td_recovery_replayed_records", "WAL op records replayed by the last recovery", st.recoveryReplayed.Load)
	cf("td_engine_steps_total", "derivation steps across served goals", &st.engineSteps)
	cf("td_engine_unifications_total", "head-unification attempts across served goals", &st.engineUnifs)
	cf("td_engine_table_hits_total", "failure-table prunings across served goals", &st.engineTable)
	cf("td_db_lookups_total", "ground point lookups across session replicas", &st.dbLookups)
	cf("td_db_index_hits_total", "scans served by the first-argument index", &st.dbIndexHits)
	cf("td_db_scans_total", "full relation scans", &st.dbScans)
	cf("td_db_order_rebuilds_total", "deterministic scan-order cache rebuilds", &st.dbRebuilds)
	cf("td_delta_ops_total", "tuples written by committed transactions", &st.deltaOps)
	cf("td_plan_reorders_total", "rule-body reorders installed into session engines by the tdplan planner", &st.planReorders)
	cf("td_plan_hits_total", "call steps served by a plan-reordered rule variant", &st.planHits)
}

func (st *serverStats) recordCommitLatency(d time.Duration) {
	st.commitLat.Observe(d.Microseconds())
}

// recordStages folds a finished sampled transaction's stage clock into the
// per-stage histograms. Every stage is observed, including zero-duration
// ones (a read-only transaction genuinely spent 0 in fsync_wait), so the
// eight series keep identical sample counts.
func (st *serverStats) recordStages(clk *stageClock) {
	for i := 0; i < nStages; i++ {
		st.stageLat[i].Observe(clk.dur[i].Microseconds())
	}
}

// observeSLOs feeds one latency observation to a signal's objectives and
// logs each burn-rate crossing (once per breach episode — Observe is
// edge-triggered).
func (st *serverStats) observeSLOs(slos []*obs.SLO, d time.Duration) {
	for _, slo := range slos {
		if slo.Observe(d) && st.logger != nil {
			st.logger.Warn("SLO breach",
				"slo", slo.Name,
				"threshold", slo.Threshold,
				"objective", slo.Objective,
				"burn_rate", slo.BurnRate(),
				"good", slo.Good(),
				"total", slo.Total())
		}
	}
}

// quantiles returns the p50 and p99 commit latencies in microseconds
// (bucket upper bounds: ~2x resolution, O(buckets), allocation-free).
func (st *serverStats) quantiles() (p50, p99 int64) {
	return st.commitLat.Quantile(0.50), st.commitLat.Quantile(0.99)
}

// StatsSnapshot is the STATS response payload. Fields present since PR 1
// keep their JSON names verbatim; observability additions are new keys only
// (omitted when zero), so PR-1 clients keep decoding the payload unchanged.
type StatsSnapshot struct {
	SessionsOpen  int64  `json:"sessions_open"`
	SessionsTotal int64  `json:"sessions_total"`
	Rejected      int64  `json:"rejected"`
	TxnsBegun     int64  `json:"txns_begun"`
	Commits       int64  `json:"commits"`
	Aborts        int64  `json:"aborts"`
	Conflicts     int64  `json:"conflicts"`
	Retries       int64  `json:"retries"`
	NoProof       int64  `json:"no_proof"`
	BudgetHits    int64  `json:"budget_hits"`
	Version       uint64 `json:"version"`
	DBSize        int    `json:"db_size"`
	WALBytes      int64  `json:"wal_bytes"`
	CommitP50Us   int64  `json:"commit_p50_us"`
	CommitP99Us   int64  `json:"commit_p99_us"`
	UptimeMs      int64  `json:"uptime_ms"`

	// Added with the observability layer (PR 3).
	ConflictCauses     map[string]int64 `json:"conflict_causes,omitempty"`
	VerbP99Us          map[string]int64 `json:"verb_p99_us,omitempty"`
	FsyncP99Us         int64            `json:"fsync_p99_us,omitempty"`
	Fsyncs             int64            `json:"fsyncs,omitempty"`
	SlowTxns           int64            `json:"slow_txns,omitempty"`
	EngineSteps        int64            `json:"engine_steps,omitempty"`
	EngineUnifications int64            `json:"engine_unifications,omitempty"`
	EngineTableHits    int64            `json:"engine_table_hits,omitempty"`
	DBLookups          int64            `json:"db_lookups,omitempty"`
	DBIndexHits        int64            `json:"db_index_hits,omitempty"`
	DBScans            int64            `json:"db_scans,omitempty"`
	DBOrderRebuilds    int64            `json:"db_order_rebuilds,omitempty"`
	DeltaOps           int64            `json:"delta_ops,omitempty"`

	// Added with the static analyzer (PR 4).
	VetRejects int64 `json:"vet_rejects,omitempty"`

	// Added with the group-commit pipeline (PR 5).
	GroupCommits   int64 `json:"group_commits,omitempty"`
	CommitBatchP99 int64 `json:"commit_batch_p99,omitempty"`

	// Added with the history subsystem (PR 6).
	Checkpoints      int64 `json:"checkpoints,omitempty"`
	CheckpointP99Us  int64 `json:"checkpoint_p99_us,omitempty"`
	RecoveryReplayed int64 `json:"recovery_replayed_records,omitempty"`

	// Always 0: there are no commit lanes. The field stays because the
	// frozen bench/main.go reads it (server.cross_lane_share).
	CrossShardCommits int64 `json:"cross_shard_commits,omitempty"`

	// Added with stage-level latency attribution (PR 8). The stage maps
	// carry the sampled pipeline quantiles (only once something was
	// sampled), ProverProfile the per-predicate attribution (only when a
	// session profiled), and SLOs the configured objectives' state — all
	// omitted when their feature is off.
	StageP50Us    map[string]int64       `json:"stage_p50_us,omitempty"`
	StageP99Us    map[string]int64       `json:"stage_p99_us,omitempty"`
	ProverProfile map[string]PredProfile `json:"prover_profile,omitempty"`
	SLOs          []SLOSnapshot          `json:"slos,omitempty"`

	// Added with the tdplan static planner (PR 9). All zero (and omitted)
	// when the planner found nothing to do.
	PlanReorders        int64 `json:"plan_reorders,omitempty"`
	PlanHits            int64 `json:"plan_hits,omitempty"`
	PlanTablingEligible int64 `json:"plan_tabling_eligible,omitempty"`

	// Added with tabled evaluation (PR 10). All zero (and omitted) when no
	// session ever touched the memo store.
	MemoHits          int64          `json:"memo_hits,omitempty"`
	MemoMisses        int64          `json:"memo_misses,omitempty"`
	MemoInvalidations int64          `json:"memo_invalidations,omitempty"`
	MemoEvictions     int64          `json:"memo_evictions,omitempty"`
	MemoBytes         int64          `json:"memo_bytes,omitempty"`
	MemoEntries       int64          `json:"memo_entries,omitempty"`
	MemoPreds         []MemoPredStat `json:"memo_preds,omitempty"`
}

// MemoPredStat is one tabled predicate's memo-store lookup counters on the
// wire, hottest (most hits) first in StatsSnapshot.MemoPreds and
// MemoStatus.Preds. The wire twin of engine.MemoPredStats.
type MemoPredStat struct {
	Pred   string `json:"pred"`
	Hits   int64  `json:"hits"`
	Misses int64  `json:"misses"`
}

// MemoStatus answers the TABLE verb: the session's tabling mode, the
// predicates its engine currently tables, and the shared memo store's
// counters.
type MemoStatus struct {
	Mode          string         `json:"mode"`
	Tabled        []string       `json:"tabled,omitempty"`
	Hits          int64          `json:"hits"`
	Misses        int64          `json:"misses"`
	Invalidations int64          `json:"invalidations"`
	Evictions     int64          `json:"evictions"`
	Bytes         int64          `json:"bytes"`
	Entries       int64          `json:"entries"`
	Preds         []MemoPredStat `json:"preds,omitempty"`
}

// PredProfile is one predicate's prover attribution on the wire: how often
// the prover dispatched into the predicate, how many clause alternatives
// those dispatches fanned out to, and the flat time charged to it. The wire
// twin of engine.PredProfile, kept separate so the protocol never imports
// engine types.
type PredProfile struct {
	Calls  int64 `json:"calls"`
	Fanout int64 `json:"fanout"`
	TimeUs int64 `json:"time_us"`
}

// SLOSnapshot is one configured latency objective's state in STATS.
type SLOSnapshot struct {
	Name        string  `json:"name"`
	ThresholdUs int64   `json:"threshold_us"`
	Objective   float64 `json:"objective"`
	Good        int64   `json:"good"`
	Total       int64   `json:"total"`
	BurnRate    float64 `json:"burn_rate"`
}
