package server

import (
	"bufio"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analysis"
	"repro/internal/ast"
	"repro/internal/db"
	"repro/internal/engine"
	"repro/internal/history"
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/term"
)

// Options configure a Server. Zero values take the defaults below.
type Options struct {
	// SnapshotPath and WALPath enable durability (db.OpenStore semantics:
	// recover snapshot + WAL, append to the WAL from then on). Both empty
	// means a purely in-memory database.
	SnapshotPath string
	WALPath      string
	// Program is the initial TD program source. Its rules become the
	// default rulebase of every session; its facts are installed into the
	// shared database (set semantics, so reinstalling is idempotent).
	Program string
	// MaxSessions bounds concurrently served sessions; excess connections
	// are rejected with CodeBusy. Default 64.
	MaxSessions int
	// MaxSteps is the proof-search step budget per goal. Default 5e6.
	MaxSteps int64
	// MaxGoalTime is the wall-clock budget per goal (enforced at every
	// database-changing step). Default 10s; negative disables.
	MaxGoalTime time.Duration
	// IdleTimeout closes sessions with no request activity. Default 5m;
	// negative disables.
	IdleTimeout time.Duration
	// MaxRetries bounds server-side EXEC retries after commit conflicts.
	// Default 16.
	MaxRetries int
	// NoSync skips commit durability entirely (the WAL is still written in
	// order; a crash may lose the buffered tail). For benchmarks.
	NoSync bool
	// CommitMaxBatch caps how many pending committers the group-commit
	// flusher accumulates before forcing a WAL sync (only consulted while
	// CommitMaxDelay holds the flusher back). Default 64.
	CommitMaxBatch int
	// CommitMaxDelay bounds how long the flusher may hold a batch open for
	// more committers to join before syncing. The wait is adaptive: the
	// flusher extends it only while new commits keep arriving and flushes
	// at the first quiet interval, and it engages at all only after a
	// multi-commit batch (so a lone committer always syncs immediately).
	// Zero means the 2ms default; negative disables accumulation — the
	// flusher syncs as soon as it is free, and batching only emerges while
	// an fsync is in flight.
	CommitMaxDelay time.Duration
	// MaxFrame bounds accepted request frames. Default DefaultMaxFrame.
	MaxFrame int
	// MaxLog bounds the in-memory commit log used to catch session
	// replicas up; sessions that fall further behind pay a full resync.
	// Default 1024 entries.
	MaxLog int
	// Trace enables structured execution tracing for every session (each
	// session can also opt in individually with the TRACE verb). Tracing
	// costs allocations on the goal path; leave it off for throughput.
	Trace bool
	// SlowTxn logs the span tree of any goal slower than this threshold
	// through Logger (and forces tracing on so the tree exists). Zero
	// disables.
	SlowTxn time.Duration
	// TraceSink receives the span tree of every traced goal (e.g. an
	// obs.RingSink or obs.JSONLSink). Setting it forces tracing on.
	TraceSink obs.Sink
	// Logger receives slow-transaction reports. Default slog.Default().
	Logger *slog.Logger
	// CheckpointInterval checkpoints the store on a wall-clock cadence
	// (durable mode only). Zero disables the timer trigger; the manual
	// CHECKPOINT verb works regardless.
	CheckpointInterval time.Duration
	// CheckpointWALSize checkpoints whenever the WAL grows past this many
	// bytes (durable mode only). Zero disables the size trigger.
	CheckpointWALSize int64
	// HistoryWindow bounds how many recent commit versions are retained
	// for ASOF reads and CHANGES deltas. Default 256; negative disables
	// retention (only the current version is addressable).
	HistoryWindow int
	// StageSample enables stage-level latency attribution on every Nth
	// transaction per session: the sampled transaction carries a stage
	// clock from parse to acknowledgment, feeding the
	// td_txn_stage_us{stage=} histograms, the STATS stage quantiles, and
	// the wide-event stream. 0 disables attribution (the default); setting
	// WideSink without a sample rate implies 1 (every transaction).
	StageSample int
	// WideSink receives one "wide event" per sampled transaction: the
	// canonical log line carrying the verb, goal, LSN, retries, conflict
	// cause, fsync batch size, and all stage timings.
	// Typically an obs.JSONLSink shared with TraceSink.
	WideSink obs.WideSink
	// SLOs are latency objectives tracked against the commit and fsync
	// signals (matched by SLO.Name: "commit" observes end-to-end commit
	// latency, "fsync" the flusher's sync latency). Each is exported as
	// td_slo_*{slo=} series and a STATS entry; a burn-rate crossing above
	// 1.0 is logged once per breach episode through Logger. Build them
	// with obs.ParseSLOs ("commit:5ms:0.999,fsync:20ms:0.99").
	SLOs []*obs.SLO
	// Profile enables per-predicate prover attribution for every session
	// (each session can also opt in with the PROFILE verb). The aggregate
	// is served by PROFILE dump, the STATS prover_profile section, and the
	// td_prover_pred_us{pred=} metric family.
	Profile bool
	// Table selects tabled evaluation for session engines: "auto" tables
	// the top-K tabling-eligible predicates by observed prover profile,
	// "all" every eligible one, a comma-separated list exactly those named,
	// and "" or "none" disables tabling (the default — the proof path then
	// pays a single nil check). Sessions share one snapshot-fingerprinted
	// memo store, so replicas reuse each other's fills; the TABLE verb
	// overrides the mode per session.
	Table string
	// TableMaxMB bounds the shared memo store's answer storage; least
	// recently used entries are evicted beyond it. 0 means the engine
	// default (64 MB).
	TableMaxMB int
}

func (o Options) withDefaults() Options {
	if o.MaxSessions == 0 {
		o.MaxSessions = 64
	}
	if o.MaxSteps == 0 {
		o.MaxSteps = 5_000_000
	}
	if o.MaxGoalTime == 0 {
		o.MaxGoalTime = 10 * time.Second
	}
	if o.IdleTimeout == 0 {
		o.IdleTimeout = 5 * time.Minute
	}
	if o.MaxRetries == 0 {
		o.MaxRetries = 16
	}
	if o.CommitMaxBatch == 0 {
		o.CommitMaxBatch = 64
	}
	if o.CommitMaxDelay == 0 {
		o.CommitMaxDelay = 2 * time.Millisecond
	} else if o.CommitMaxDelay < 0 {
		o.CommitMaxDelay = 0
	}
	if o.MaxFrame == 0 {
		o.MaxFrame = DefaultMaxFrame
	}
	if o.MaxLog == 0 {
		o.MaxLog = 1024
	}
	if o.Logger == nil {
		o.Logger = slog.Default()
	}
	if o.HistoryWindow == 0 {
		o.HistoryWindow = 256
	} else if o.HistoryWindow < 0 {
		o.HistoryWindow = 0
	}
	if o.WideSink != nil && o.StageSample == 0 {
		// A wide-event sink without an explicit rate means "every txn":
		// an armed sink that silently never emits would be a foot-gun.
		o.StageSample = 1
	}
	return o
}

// errConflict is the internal commit-validation failure; sessions translate
// it into CodeConflict responses (and EXEC retries).
var errConflict = errors.New("server: commit conflict")

// errShutdown is returned once Close has begun.
var errShutdown = errors.New("server: shutting down")

// Server is a concurrent multi-client transaction service over one shared
// Transaction Datalog database.
type Server struct {
	opts  Options
	prog  *ast.Program
	start time.Time
	stats serverStats
	reg   *obs.Registry
	sem   chan struct{}

	// commitMu is the one commit lock. It guards the live store (head), the
	// commit log with its live window and floor, the frozen view and the
	// history window, and every write of version; holding it is what makes a
	// commit's re-validation, LSN, WAL append and apply one atomic step. It
	// covers no O(history) validation scan and no fsync. Lock ordering: the
	// registry lock (mu) nests strictly inside commitMu, never around it.
	commitMu sync.Mutex
	head     *db.DB // the authoritative tuples

	// The commit log is an append-only slice plus a live-window offset:
	// clog[clogLo:] holds, in order, exactly the records of versions
	// floor+1 .. version, so a suffix is found by arithmetic. Entries below
	// clogLo are dead but never overwritten, and records are immutable once
	// appended, so commit validation can snapshot a subslice under commitMu
	// and scan it after releasing the lock. A replica whose version is below
	// floor must full-resync.
	clog   []commitRecord
	clogLo int
	floor  uint64

	frozen db.FrozenDB
	hist   *history.Window // retained versions for ASOF/CHANGES
	// version is the LSN of the newest commit. LSNs are contiguous, which
	// ASOF/CHANGES, the history window and the commit log rely on. Written
	// under commitMu; read lock-free.
	version atomic.Uint64

	store *db.Store             // nil in memory-only mode; detached from its DB
	group *groupCommit          // nil in memory-only or NoSync mode
	ckptr *history.Checkpointer // nil in memory-only mode

	// sessID and traceID are serial counters stamping sessions and sampled
	// transactions for wide-event correlation.
	sessID  atomic.Uint64
	traceID atomic.Uint64

	// stageNow, when a test sets it before the first session connects, is
	// the time source of every session's stage clock (nil: time.Now).
	stageNow func() time.Time

	// mu guards the session registry and lifecycle state. It nests inside
	// commitMu (log pruning reads replica versions under it) and must never
	// be held while taking commitMu.
	mu       sync.Mutex
	sessions map[*session]struct{}
	closed   bool
	// deadProf accumulates per-predicate prover attribution from engines
	// that went away (closed sessions, PROFILE/TRACE/LOAD engine rebuilds),
	// so the profile outlives both. Guarded by mu.
	deadProf map[string]PredProfile
	// planPreds maps each planned derived predicate to its tabling
	// eligibility, merged from every computed plan (initial program at New,
	// session programs at LOAD). Feeds the td_plan_tabling_eligible{pred=}
	// gauge family and the STATS eligible count. Guarded by mu.
	planPreds map[string]bool

	// memo is the shared answer store for tabled evaluation: every tabled
	// session engine fills and replays through it, keyed by program hash +
	// call pattern, each entry validated against the caller's own replica
	// by content fingerprints of what its fill read (so the private
	// replicas need no invalidation protocol). Always present —
	// TABLE can enable tabling at runtime on a server started with
	// Options.Table unset — and empty until a tabled goal runs.
	memo *engine.MemoStore

	ln net.Listener
	wg sync.WaitGroup
}

// New builds a server: opens (or recovers) the store, parses the initial
// program, and installs its facts into the shared database.
func New(opts Options) (*Server, error) {
	opts = opts.withDefaults()
	prog, err := parser.Parse(opts.Program)
	if err != nil {
		return nil, fmt.Errorf("server: initial program: %w", err)
	}
	facts := analysis.Analyze(prog)
	if verr := facts.Vet().Err(); verr != nil {
		return nil, fmt.Errorf("server: initial program: %w", verr)
	}
	s := &Server{
		opts:     opts,
		prog:     prog,
		start:    time.Now(),
		reg:      obs.NewRegistry(),
		sem:      make(chan struct{}, opts.MaxSessions),
		sessions: make(map[*session]struct{}),
	}
	s.stats.init(s.reg)
	s.stats.logger = opts.Logger
	for _, slo := range opts.SLOs {
		switch slo.Name {
		case "commit":
			s.stats.sloCommit = append(s.stats.sloCommit, slo)
		case "fsync":
			s.stats.sloFsync = append(s.stats.sloFsync, slo)
		default:
			return nil, fmt.Errorf("server: SLO %q names no latency signal (have commit, fsync)", slo.Name)
		}
		slo.Register(s.reg)
	}
	s.reg.FamilyFunc("td_prover_pred_us",
		"prover time attributed per predicate in microseconds (flat, most-recent-dispatch)",
		"counter", func() []obs.Sample {
			prof := s.proverProfile()
			out := make([]obs.Sample, 0, len(prof))
			for pred, p := range prof {
				out = append(out, obs.Sample{Labels: `pred="` + pred + `"`, Value: p.TimeUs})
			}
			return out
		})
	s.reg.FamilyFunc("td_plan_tabling_eligible",
		"tabling-safety certificate per derived predicate (1 = memoizable per snapshot version)",
		"gauge", func() []obs.Sample {
			s.mu.Lock()
			defer s.mu.Unlock()
			out := make([]obs.Sample, 0, len(s.planPreds))
			for pred, ok := range s.planPreds {
				var v int64
				if ok {
					v = 1
				}
				out = append(out, obs.Sample{Labels: `pred="` + pred + `"`, Value: v})
			}
			return out
		})
	// Seed the eligibility gauge from the initial program before any
	// session connects; session engine builds keep it merged.
	s.notePlan(facts.Plan(), false)
	s.memo = engine.NewMemoStore(opts.TableMaxMB)
	memoCounter := func(pick func(h, m, i, e int64) int64) func() int64 {
		return func() int64 { return pick(s.memo.Counters()) }
	}
	s.reg.CounterFunc("td_memo_hits_total", "tabled calls answered by memo-table replay",
		memoCounter(func(h, _, _, _ int64) int64 { return h }))
	s.reg.CounterFunc("td_memo_misses_total", "tabled calls that filled the memo table",
		memoCounter(func(_, m, _, _ int64) int64 { return m }))
	s.reg.CounterFunc("td_memo_invalidations_total", "memo entries dropped because a region their fill read had changed",
		memoCounter(func(_, _, i, _ int64) int64 { return i }))
	s.reg.CounterFunc("td_memo_evictions_total", "memo entries evicted by the LRU byte bound",
		memoCounter(func(_, _, _, e int64) int64 { return e }))
	s.reg.GaugeFunc("td_memo_bytes", "answer bytes held by the shared memo store", func() int64 {
		b, _ := s.memo.Usage()
		return b
	})
	s.reg.GaugeFunc("td_version", "current commit version of the shared database",
		func() int64 { return int64(s.Version()) })
	s.reg.GaugeFunc("td_db_size", "tuples in the shared database", func() int64 {
		s.commitMu.Lock()
		defer s.commitMu.Unlock()
		return int64(s.frozen.Size())
	})
	s.reg.GaugeFunc("td_wal_bytes", "bytes appended to the write-ahead log", func() int64 {
		if s.store == nil {
			return 0
		}
		return s.store.WALSize()
	})
	s.reg.GaugeFunc("td_uptime_seconds", "seconds since the server started",
		func() int64 { return int64(time.Since(s.start).Seconds()) })
	poolStats := func(hits bool) int64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		var total int64
		for sess := range s.sessions {
			h, m := sess.eng.PoolStats()
			if hits {
				total += h
			} else {
				total += m
			}
		}
		return total
	}
	s.reg.CounterFuncL("td_engine_pool_derivations_total",
		"derivation-state acquisitions by live sessions, by pool outcome",
		`outcome="reuse"`, func() int64 { return poolStats(true) })
	s.reg.CounterFuncL("td_engine_pool_derivations_total",
		"derivation-state acquisitions by live sessions, by pool outcome",
		`outcome="alloc"`, func() int64 { return poolStats(false) })
	if opts.SnapshotPath != "" || opts.WALPath != "" {
		if opts.SnapshotPath == "" || opts.WALPath == "" {
			return nil, errors.New("server: need both SnapshotPath and WALPath for durability")
		}
		store, err := db.OpenStore(opts.SnapshotPath, opts.WALPath)
		if err != nil {
			return nil, err
		}
		s.store = store
		s.head = store.DB
	} else {
		s.head = db.New()
	}
	if err := s.installFacts(prog.Facts); err != nil {
		return nil, err
	}
	s.frozen = db.FreezeDB(s.head)
	if s.store != nil {
		// Commit versions are persistent: the version counter resumes from
		// the recovered LSN so that version N names the same commit across
		// restarts (the property ASOF, CHANGES, and the WAL's commit
		// boundaries all build on). In-memory servers keep counting from 0.
		s.floor = s.store.LastLSN()
		s.version.Store(s.floor)
		rec := s.store.Recovery()
		s.stats.recoveryReplayed.Store(int64(rec.ReplayedRecords))
		// From here on the server owns the tuples; the store keeps only the
		// WAL/checkpoint machinery. ApplyCommit becomes a pure log append.
		s.store.DetachDB()
	}
	s.hist = history.NewWindow(opts.HistoryWindow, s.version.Load(), s.frozen)
	if s.store != nil && !opts.NoSync {
		s.group = newGroupCommit(s.store, &s.stats, opts.CommitMaxBatch, opts.CommitMaxDelay)
	}
	if s.store != nil {
		s.ckptr = history.NewCheckpointer(
			history.CheckpointPolicy{Interval: opts.CheckpointInterval, WALSize: opts.CheckpointWALSize},
			s.store.WALSize,
			func() error { _, err := s.Checkpoint(); return err },
			opts.Logger)
		s.ckptr.Start()
	}
	return s, nil
}

// installFacts seeds the initial program's facts — but only into an EMPTY
// database. A recovered database already reflects every committed
// transaction; re-inserting seed facts that later transactions deleted
// would resurrect stale tuples. Runs at boot, before any session exists.
func (s *Server) installFacts(facts []term.Atom) error {
	for _, f := range facts {
		if !f.IsGround() {
			return fmt.Errorf("server: initial fact %s is not ground", f)
		}
	}
	if s.head.Size() > 0 || len(facts) == 0 {
		return nil
	}
	ops := make([]db.Op, len(facts))
	for i, f := range facts {
		ops[i] = db.Op{Insert: true, Pred: f.Pred, Row: f.Args}
	}
	if s.store != nil {
		// The seed installation is a real commit with a real LSN; recovery
		// must be able to tell it apart from (and order it against) every
		// later commit.
		if _, err := s.store.ApplyCommit(ops, s.store.LastLSN()+1); err != nil {
			return err
		}
		return s.store.Commit()
	}
	s.head.Apply(ops)
	s.head.ResetTrail()
	return nil
}

// Listen starts accepting TCP connections on addr (e.g. ":7077"); the
// returned address carries the bound port when addr uses :0.
func (s *Server) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return nil, errShutdown
	}
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			go s.ServeConn(conn)
		}
	}()
	return ln.Addr(), nil
}

// ServeConn runs one session over conn (any net.Conn — a TCP connection or
// one end of a net.Pipe), blocking until the session ends. Admission
// control applies: beyond MaxSessions the connection is refused with a
// CodeBusy frame.
func (s *Server) ServeConn(conn net.Conn) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.refuse(conn, CodeShutdown, "server shutting down")
		return
	}
	s.wg.Add(1)
	s.mu.Unlock()
	defer s.wg.Done()
	select {
	case s.sem <- struct{}{}:
	default:
		s.stats.rejected.Add(1)
		s.refuse(conn, CodeBusy, "too many sessions")
		return
	}
	defer func() { <-s.sem }()
	sess := s.newSession(conn)
	defer s.dropSession(sess)
	s.stats.sessionsOpen.Add(1)
	s.stats.sessionsTotal.Add(1)
	defer s.stats.sessionsOpen.Add(-1)
	sess.serve()
}

// refuse answers exactly one request with an error frame and closes the
// connection. It reads the request first — synchronous transports
// (net.Pipe) would otherwise deadlock, with the client blocked writing its
// request and the server blocked writing the refusal — under a short
// deadline so a silent client cannot pin the goroutine.
func (s *Server) refuse(conn net.Conn, code, msg string) {
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	var req Request
	readFrame(bufio.NewReader(conn), &req, s.opts.MaxFrame)
	writeFrame(conn, &Response{Code: code, Err: msg})
	conn.Close()
}

// InProcClient connects a client to the server through an in-process pipe
// — the same protocol and session machinery, no sockets.
func (s *Server) InProcClient() *Client {
	c1, c2 := net.Pipe()
	go s.ServeConn(c2)
	return NewClient(c1)
}

// newSession registers a session with a private replica cloned from the
// current head.
func (s *Server) newSession(conn net.Conn) *session {
	sess := &session{
		srv:       s,
		conn:      conn,
		id:        s.sessID.Add(1),
		prog:      s.prog,
		varHigh:   s.prog.VarHigh,
		tableMode: s.opts.Table,
		clkBuf:    stageClock{now: s.stageNow},
	}
	s.rebuildReplica(sess)
	sess.buildEngine()
	s.mu.Lock()
	s.sessions[sess] = struct{}{}
	s.mu.Unlock()
	return sess
}

func (s *Server) dropSession(sess *session) {
	sess.conn.Close()
	s.absorbProfile(sess.eng)
	s.mu.Lock()
	delete(s.sessions, sess)
	s.mu.Unlock()
	s.commitMu.Lock()
	s.pruneLogLocked()
	s.commitMu.Unlock()
}

// absorbProfile folds an engine's per-predicate prover attribution into the
// server-wide aggregate. Sessions close and engines get rebuilt (LOAD,
// TRACE, PROFILE all replace the session engine); the profile outlives both
// by being harvested here first. A nil engine or an unprofiled one
// contributes nothing.
func (s *Server) absorbProfile(eng *engine.Engine) {
	if eng == nil {
		return
	}
	prof := eng.ProfileSnapshot()
	if prof == nil {
		return
	}
	s.mu.Lock()
	if s.deadProf == nil {
		s.deadProf = make(map[string]PredProfile, len(prof))
	}
	for pred, p := range prof {
		agg := s.deadProf[pred]
		agg.Calls += p.Calls
		agg.Fanout += p.Fanout
		agg.TimeUs += p.TimeUs
		s.deadProf[pred] = agg
	}
	s.mu.Unlock()
}

// notePlan folds one computed plan into the server-wide planning state:
// the tabling-eligibility map always, the reorder counter only when the
// plan was installed into a session engine (count). Later plans win per
// predicate, so LOADing a changed program updates the gauge in place.
func (s *Server) notePlan(rep *analysis.PlanReport, count bool) {
	if rep == nil {
		return
	}
	if count {
		s.stats.planReorders.Add(int64(rep.Reorders))
	}
	s.mu.Lock()
	if s.planPreds == nil {
		s.planPreds = make(map[string]bool, len(rep.Predicates))
	}
	for _, pp := range rep.Predicates {
		s.planPreds[pp.Pred] = pp.TablingEligible
	}
	s.mu.Unlock()
}

// proverProfile aggregates per-predicate prover attribution: the retained
// totals of dead engines plus a snapshot of every live session's engine.
// Returns nil when nothing was ever profiled, keeping the STATS section and
// the metric family off for unprofiled servers.
func (s *Server) proverProfile() map[string]PredProfile {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out map[string]PredProfile
	add := func(pred string, p PredProfile) {
		if out == nil {
			out = make(map[string]PredProfile)
		}
		agg := out[pred]
		agg.Calls += p.Calls
		agg.Fanout += p.Fanout
		agg.TimeUs += p.TimeUs
		out[pred] = agg
	}
	for pred, p := range s.deadProf {
		add(pred, p)
	}
	for sess := range s.sessions {
		for pred, p := range sess.eng.ProfileSnapshot() {
			add(pred, PredProfile{Calls: p.Calls, Fanout: p.Fanout, TimeUs: p.TimeUs})
		}
	}
	return out
}

// suffixLocked returns the log's records with version > after, capped so
// later appends stay out of reach of the caller's lock-free scan. The caller
// holds commitMu and has checked after >= floor.
func (s *Server) suffixLocked(after uint64) []commitRecord {
	lo := s.clogLo + int(after-s.floor)
	return s.clog[lo:len(s.clog):len(s.clog)]
}

// rebuildReplica replaces the session's replica with a clone of the head.
func (s *Server) rebuildReplica(sess *session) {
	s.commitMu.Lock()
	sess.d = s.head.Clone()
	sess.version.Store(s.version.Load())
	s.commitMu.Unlock()
}

// syncSession brings a session's replica up to the current head version by
// applying the commit-log suffix it has not seen; a replica already at the
// head costs two atomic loads. A replica the log no longer reaches back to
// (MaxLog stranding) is rebuilt from the head.
func (s *Server) syncSession(sess *session) {
	from := sess.version.Load()
	if s.version.Load() == from {
		return
	}
	s.commitMu.Lock()
	if from < s.floor {
		s.commitMu.Unlock()
		s.rebuildReplica(sess)
		return
	}
	suffix := s.suffixLocked(from)
	ver := s.version.Load()
	s.commitMu.Unlock()
	for i := range suffix {
		sess.d.Apply(suffix[i].ops)
	}
	sess.d.ResetTrail()
	sess.version.Store(ver)
}

// commit validates a transaction's read set against everything that
// committed after the session's replica version and, on success, applies the
// write set to the head, appends it to the WAL, and waits for the
// group-commit flusher to make it durable before returning (unless NoSync).
// On conflict it returns errConflict without touching shared state; the
// session must roll its replica back and resync.
//
// The commit path is a three-stage pipeline around the one commit lock:
//
//  1. Backward validation runs against an immutable snapshot of the commit
//     log taken under a brief lock — the O(history) conflict scan happens
//     with the lock RELEASED, concurrent with other committers.
//  2. The lock is retaken only to re-validate the records that committed
//     during stage 1 (usually none), claim the next LSN, append the WAL
//     block (buffered, not synced), apply the ops to the head, advance the
//     frozen view and the history window, and publish the commit record.
//  3. The committer waits, lock-free, for the flusher goroutine to cover
//     its LSN with a batched WAL fsync (WAL-before-ack per batch: the
//     sync that acknowledges a commit always covers its records).
//
// Stage 2 is one critical section, so LSN order is an admissible serial
// order: every commit ordered before ours published its record (and its
// effects) before we re-validated and applied.
//
// ops is the transaction's net write set (db.DeltaSince), never empty. The
// session's replica must already contain exactly ops on top of its version;
// on success it is caught up to the new head in place.
func (s *Server) commit(sess *session, rs *readSet, ops []db.Op) (uint64, error) {
	started := time.Now()
	clk := sess.clk // nil unless this transaction is stage-sampled
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return 0, errShutdown
	}
	if err := s.group.failed(); err != nil {
		// A WAL sync failed earlier: refuse to apply state that can no
		// longer be made durable.
		return 0, err
	}
	rec := newCommitRecord(ops) // conflict keys, built outside the lock
	if clk != nil {
		clk.ops += len(ops)
	}

	// Stage 1: snapshot the validation view, then scan it without the lock.
	from := sess.version.Load()
	s.commitMu.Lock()
	if from < s.floor {
		// History needed for validation was pruned: conservatively abort.
		s.commitMu.Unlock()
		return 0, s.lostStale(clk)
	}
	view := s.suffixLocked(from)
	snap := s.version.Load()
	s.commitMu.Unlock()
	for i := range view {
		if k := view[i].conflictsWith(rs); k >= 0 {
			return 0, s.lostTo(clk, &view[i], k)
		}
	}
	if clk != nil {
		clk.mark(stageValidate)
	}

	// Stage 2: re-validate the delta that committed meanwhile, then
	// sequence, log, apply and publish — one critical section.
	s.commitMu.Lock()
	if clk != nil {
		clk.mark(stageLockWait)
	}
	if snap < s.floor {
		// The delta was pruned while we validated (MaxLog stranding):
		// conservatively abort.
		s.commitMu.Unlock()
		return 0, s.lostStale(clk)
	}
	delta := s.suffixLocked(snap)
	for i := range delta {
		if k := delta[i].conflictsWith(rs); k >= 0 {
			s.commitMu.Unlock()
			return 0, s.lostTo(clk, &delta[i], k)
		}
	}
	if clk != nil {
		clk.mark(stageValidate) // the delta re-check accumulates onto validate
	}
	lsn := s.version.Load() + 1
	if s.store != nil {
		// The WAL block carries the commit's LSN, so recovery and the
		// checkpointer can name durable prefixes by commit version. It is
		// appended before anything in memory moves, so a failed append
		// leaves the head, the log and the version untouched.
		if _, err := s.store.ApplyCommit(ops, lsn); err != nil {
			s.commitMu.Unlock()
			return 0, err
		}
	}
	s.frozen = s.frozen.ApplyOps(ops)
	// Retain the version for time travel: the ops are the immutable commit
	// record's (net) write set, the snapshot is the O(1)-forked frozen head.
	// Monotonicity is guaranteed under commitMu, so Append cannot fail.
	_ = s.hist.Append(lsn, ops, s.frozen)
	s.group.noteAppend(lsn)
	if clk != nil {
		clk.mark(stageWALAppend)
	}
	// Every op takes effect: the write set is a net effect, each of its
	// tuples was observed by the read set, and validation just showed no
	// winner changed the membership of any.
	s.head.Apply(ops)
	s.head.ResetTrail()
	rec.version = lsn
	s.clog = append(s.clog, rec)
	s.version.Store(lsn)
	sess.version.Store(lsn)
	s.pruneLogLocked()
	s.commitMu.Unlock()

	// The committer's replica holds (its old version + ops); fold in the
	// concurrent but non-overlapping writes it validated against — view
	// covers (from, snap], delta covers (snap, lsn) — making it equal to the
	// new head. sess.d is session-private, so this runs outside the lock;
	// the record slices stay valid even if pruning compacts the log
	// meanwhile, because compaction copies into a fresh array and the
	// records themselves are immutable.
	for i := range view {
		sess.d.Apply(view[i].ops)
	}
	for i := range delta {
		sess.d.Apply(delta[i].ops)
	}
	sess.d.ResetTrail()
	if clk != nil {
		clk.mark(stageApply) // head apply, publish and replica fold-in
	}

	// Stage 3: wait for a batched WAL sync to cover the LSN.
	if s.group != nil {
		batch, err := s.group.waitDurable(lsn)
		if err != nil {
			return 0, err
		}
		if clk != nil {
			clk.batch = batch
			clk.mark(stageFsyncWait)
		}
	}
	s.stats.commits.Add(1)
	s.stats.deltaOps.Add(int64(len(ops)))
	elapsed := time.Since(started)
	s.stats.recordCommitLatency(elapsed)
	s.stats.observeSLOs(s.stats.sloCommit, elapsed)
	return lsn, nil
}

// lostStale counts a validation round lost because the commit log no longer
// reaches back to the replica's version.
func (s *Server) lostStale(clk *stageClock) error {
	s.stats.conflicts.Add(1)
	s.stats.conflictStale.Add(1)
	if clk != nil {
		clk.conflict, clk.conflictLSN, clk.conflictAtom = "stale_replica", 0, ""
	}
	return errConflict
}

// lostTo counts a validation round lost to the committed record rec, whose
// k-th write the read set had observed. The keys are fingerprints, so the
// readable cause is taken from the winner's op: a sampled transaction's
// wide event names the winner's LSN and that op's atom.
func (s *Server) lostTo(clk *stageClock, rec *commitRecord, k int) error {
	s.stats.conflicts.Add(1)
	s.stats.conflictRW.Add(1)
	if clk != nil {
		clk.conflict = "read_write"
		clk.conflictLSN = rec.version
		clk.conflictAtom = term.Atom{Pred: rec.ops[k].Pred, Args: rec.ops[k].Row}.String()
	}
	return errConflict
}

// pruneLogLocked drops log records every live replica has already applied,
// and enforces the MaxLog cap (stranding laggards, who will full resync).
// Pruning only advances the live-window offset — no copying, no allocation;
// dead entries are reclaimed by an occasional compaction into a fresh array
// (entries are never overwritten in place, because commit validation may
// still be scanning a snapshot of the old array outside the lock). Called
// with commitMu held; takes the registry lock to read replica versions.
func (s *Server) pruneLogLocked() {
	head := s.version.Load()
	min := head
	s.mu.Lock()
	for sess := range s.sessions {
		if v := sess.version.Load(); v < min {
			min = v
		}
	}
	s.mu.Unlock()
	if head-min > uint64(s.opts.MaxLog) {
		min = head - uint64(s.opts.MaxLog)
	}
	if min > s.floor {
		s.clogLo += int(min - s.floor)
		s.floor = min
	}
	// Compact once the dead prefix dominates: amortized O(1) per commit.
	if lo := s.clogLo; lo > 64 && lo*2 >= len(s.clog) {
		live := len(s.clog) - lo
		fresh := make([]commitRecord, live, live+live/2+16)
		copy(fresh, s.clog[lo:])
		s.clog = fresh
		s.clogLo = 0
	}
}

// Snapshot returns an immutable snapshot of the current shared database
// (maintained incrementally at each commit; O(1) to take).
func (s *Server) Snapshot() db.FrozenDB {
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	return s.frozen
}

// Version returns the current commit version (lock-free).
func (s *Server) Version() uint64 { return s.version.Load() }

// Checkpoint takes an incremental checkpoint (durable mode only): it
// captures the current frozen view and its LSN under a short lock, writes
// the snapshot file from that immutable view with the commit path
// UNLOCKED — commits keep flowing for the whole write — then truncates the
// WAL prefix the snapshot covers. Returns the checkpoint's LSN. Safe to
// call concurrently (the store serializes checkpoints) and while serving.
func (s *Server) Checkpoint() (uint64, error) {
	if s.store == nil {
		return 0, errors.New("server: in-memory server has no store to checkpoint")
	}
	s.commitMu.Lock()
	frozen := s.frozen
	lsn := s.version.Load()
	s.commitMu.Unlock()
	store := s.store
	started := time.Now()
	if err := store.CheckpointFrom(frozen, lsn); err != nil {
		return 0, err
	}
	s.stats.checkpoints.Add(1)
	s.stats.ckptLat.Observe(time.Since(started).Microseconds())
	return lsn, nil
}

// History exposes the retained-version window backing ASOF and CHANGES.
func (s *Server) History() *history.Window { return s.hist }

// Stats returns a consistent snapshot of the server counters.
func (s *Server) Stats() StatsSnapshot {
	p50, p99 := s.stats.quantiles()
	s.commitMu.Lock()
	version := s.version.Load()
	size := s.frozen.Size()
	s.commitMu.Unlock()
	var walBytes int64
	if s.store != nil {
		walBytes = s.store.WALSize()
	}
	snap := StatsSnapshot{
		SessionsOpen:  s.stats.sessionsOpen.Load(),
		SessionsTotal: s.stats.sessionsTotal.Load(),
		Rejected:      s.stats.rejected.Load(),
		TxnsBegun:     s.stats.txnsBegun.Load(),
		Commits:       s.stats.commits.Load(),
		Aborts:        s.stats.aborts.Load(),
		Conflicts:     s.stats.conflicts.Load(),
		Retries:       s.stats.retries.Load(),
		NoProof:       s.stats.noProof.Load(),
		BudgetHits:    s.stats.budgetHits.Load(),
		Version:       version,
		DBSize:        size,
		WALBytes:      walBytes,
		CommitP50Us:   p50,
		CommitP99Us:   p99,
		UptimeMs:      time.Since(s.start).Milliseconds(),

		FsyncP99Us:         s.stats.fsyncLat.Quantile(0.99),
		Fsyncs:             s.stats.fsyncs.Load(),
		SlowTxns:           s.stats.slowTxns.Load(),
		EngineSteps:        s.stats.engineSteps.Load(),
		EngineUnifications: s.stats.engineUnifs.Load(),
		EngineTableHits:    s.stats.engineTable.Load(),
		DBLookups:          s.stats.dbLookups.Load(),
		DBIndexHits:        s.stats.dbIndexHits.Load(),
		DBScans:            s.stats.dbScans.Load(),
		DBOrderRebuilds:    s.stats.dbRebuilds.Load(),
		DeltaOps:           s.stats.deltaOps.Load(),
		VetRejects:         s.stats.vetRejects.Load(),

		GroupCommits:   s.stats.groupCommits.Load(),
		CommitBatchP99: s.stats.batchSize.Quantile(0.99),

		Checkpoints:      s.stats.checkpoints.Load(),
		CheckpointP99Us:  s.stats.ckptLat.Quantile(0.99),
		RecoveryReplayed: s.stats.recoveryReplayed.Load(),
	}
	if stale, rw := s.stats.conflictStale.Load(), s.stats.conflictRW.Load(); stale > 0 || rw > 0 {
		snap.ConflictCauses = map[string]int64{}
		if stale > 0 {
			snap.ConflictCauses["stale_replica"] = stale
		}
		if rw > 0 {
			snap.ConflictCauses["read_write"] = rw
		}
	}
	for _, v := range statVerbs {
		if h := s.stats.verbLat[v]; h.Count() > 0 {
			if snap.VerbP99Us == nil {
				snap.VerbP99Us = map[string]int64{}
			}
			snap.VerbP99Us[v] = h.Quantile(0.99)
		}
	}
	// Stage quantiles, prover profile, and SLO state ride only when the
	// corresponding feature produced data.
	for i := 0; i < nStages; i++ {
		h := s.stats.stageLat[i]
		if h.Count() == 0 {
			continue
		}
		if snap.StageP50Us == nil {
			snap.StageP50Us = map[string]int64{}
			snap.StageP99Us = map[string]int64{}
		}
		snap.StageP50Us[stageNames[i]] = h.Quantile(0.50)
		snap.StageP99Us[stageNames[i]] = h.Quantile(0.99)
	}
	if prof := s.proverProfile(); len(prof) > 0 {
		snap.ProverProfile = prof
	}
	// Planner counters: zero (and omitted) while the planner found nothing
	// to reorder and no call hit a planned variant.
	snap.PlanReorders = s.stats.planReorders.Load()
	snap.PlanHits = s.stats.planHits.Load()
	s.mu.Lock()
	for _, ok := range s.planPreds {
		if ok {
			snap.PlanTablingEligible++
		}
	}
	s.mu.Unlock()
	// Memo counters: all zero (and omitted) until a tabled goal touches the
	// shared store.
	if ms := s.memo.Snapshot(); ms.Hits+ms.Misses+ms.Invalidations+ms.Evictions+ms.Entries > 0 {
		snap.MemoHits = ms.Hits
		snap.MemoMisses = ms.Misses
		snap.MemoInvalidations = ms.Invalidations
		snap.MemoEvictions = ms.Evictions
		snap.MemoBytes = ms.Bytes
		snap.MemoEntries = ms.Entries
		for _, p := range ms.Preds {
			snap.MemoPreds = append(snap.MemoPreds, MemoPredStat{Pred: p.Pred, Hits: p.Hits, Misses: p.Misses})
		}
	}
	for _, slo := range s.opts.SLOs {
		snap.SLOs = append(snap.SLOs, SLOSnapshot{
			Name:        slo.Name,
			ThresholdUs: slo.Threshold.Microseconds(),
			Objective:   slo.Objective,
			Good:        slo.Good(),
			Total:       slo.Total(),
			BurnRate:    slo.BurnRate(),
		})
	}
	return snap
}

// Metrics returns the server's metric registry, suitable for serving with
// obs.Handler / obs.NewMux.
func (s *Server) Metrics() *obs.Registry { return s.reg }

// Close shuts the server down gracefully: stop accepting, close session
// connections, wait for sessions to unwind, then sync and close the store.
// Committed transactions are durable before their acknowledgment, so
// nothing acknowledged is lost.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	for sess := range s.sessions {
		sess.conn.Close()
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	s.wg.Wait()
	// Stop the checkpointer first: a checkpoint in flight rotates the WAL,
	// and the store should be quiescent before its final sync.
	if s.ckptr != nil {
		s.ckptr.Stop()
	}
	// Sessions have unwound, so no commit is waiting on the flusher; drain
	// it (one final sync covers any appended tail), then close the store.
	s.group.close()
	if s.store != nil {
		return s.store.Close()
	}
	return nil
}
