package server

import (
	"bufio"
	"errors"
	"fmt"
	"log/slog"
	"math/bits"
	"net"
	"runtime"
	"strconv"
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
	// NoVet disables load-time static analysis of uploaded programs. By
	// default LOAD rejects programs whose tdvet report carries
	// error-severity diagnostics (unsafe updates, recursion through '|');
	// the VET verb works either way.
	NoVet bool
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
	// StoreShards partitions the live store and the OCC machinery into this
	// many commit lanes (keyed by predicate, refined by first-argument
	// hash), each with its own apply lock, version counter, and commit-log
	// window. Transactions touching disjoint lanes validate and apply in
	// parallel; cross-lane transactions take every touched lane's lock in
	// index order. Durability is unaffected: all lanes feed one WAL and one
	// group-commit flusher. Default GOMAXPROCS, clamped to [1, 64]; 1
	// reproduces the unsharded behavior exactly. Durable stores pin the
	// count in their checkpoint manifests and refuse to reopen under a
	// different one.
	StoreShards int
	// StageSample enables stage-level latency attribution on every Nth
	// transaction per session: the sampled transaction carries a stage
	// clock from parse to acknowledgment, feeding the
	// td_txn_stage_us{stage=} histograms, the STATS stage quantiles, and
	// the wide-event stream. 0 disables attribution (the default); setting
	// WideSink without a sample rate implies 1 (every transaction).
	StageSample int
	// WideSink receives one "wide event" per sampled transaction: the
	// canonical log line carrying the verb, goal, LSN, retries, touched
	// lanes, conflict cause, fsync batch size, and all stage timings.
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
	// NoPlan disables the tdplan static planner for session engines: rule
	// bodies evaluate in textual order, reproducing pre-planner behavior
	// exactly. Planning is on by default (answer sets are unchanged by
	// construction; only literal order inside sequential conjunctions
	// differs). The PLAN verb works either way.
	NoPlan bool
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
	if o.StoreShards == 0 {
		o.StoreShards = runtime.GOMAXPROCS(0)
	}
	if o.StoreShards < 1 {
		o.StoreShards = 1
	}
	if o.StoreShards > 64 {
		o.StoreShards = 64 // shard masks are uint64 bit sets
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

// shard is one commit lane: a partition of the live store (by predicate,
// refined by first-argument hash — db.ShardOf) with its own apply lock,
// commit-log window, and version counter. Transactions whose read/write
// sets touch disjoint shards validate and apply fully in parallel; only
// the LSN assignment and the WAL append sequence through the global
// sequencer lock, which covers no validation scan and no apply work.
type shard struct {
	idx int

	// mu guards head, clog, clogLo, and floor. Lock ordering: shard locks
	// are only ever taken in ascending index order; the sequencer lock
	// (Server.seqMu) and the registry lock (Server.mu) nest strictly
	// inside shard locks, never around them.
	mu   sync.Mutex
	head *db.DB // the authoritative tuples of this lane

	// The lane's commit log is an append-only slice plus a live-window
	// offset: clog[clogLo:] is the live log; entries below clogLo are dead
	// but never overwritten. Records are immutable once appended, so
	// commit validation can snapshot a subslice under mu and scan it after
	// releasing the lock. Unlike the old monolithic log, a lane's LSN
	// sequence has gaps (it holds only the commits that touched this
	// lane), so lookups binary-search on version instead of indexing by
	// offset. The log holds every record of this lane with version >
	// floor; a replica whose lane version is below floor must full-resync.
	clog   []commitRecord
	clogLo int
	floor  uint64

	// version is the LSN of the newest commit applied to this lane. It is
	// written only under mu but read lock-free by the catch-up fast path.
	version atomic.Uint64

	// commits counts commits whose write set landed in this lane
	// (td_shard_commits_total{shard=}).
	commits atomic.Int64
}

// suffixLocked returns the lane's records with version > after, capped so
// later appends stay out of reach of the caller's lock-free scan. The
// lane's versions are sparse, so this is a binary search, not arithmetic.
func (sh *shard) suffixLocked(after uint64) []commitRecord {
	lo, hi := sh.clogLo, len(sh.clog)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if sh.clog[m].version <= after {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return sh.clog[lo:len(sh.clog):len(sh.clog)]
}

// Server is a concurrent multi-client transaction service over one shared
// Transaction Datalog database.
type Server struct {
	opts  Options
	prog  *ast.Program
	start time.Time
	stats serverStats
	reg   *obs.Registry
	sem   chan struct{}

	// The live store, partitioned into commit lanes. nshards and the slice
	// are immutable after New; all mutable lane state is inside each shard.
	nshards int
	shards  []*shard

	// seqMu is the global sequencer: it assigns each commit its LSN (the
	// next version — LSNs stay contiguous, which ASOF/CHANGES and the
	// history window rely on), appends the WAL block, and advances the
	// frozen view and the history window. It is taken only with the
	// commit's shard locks already held (so the LSN order of any two
	// commits touching a common lane matches their lane apply order) and
	// covers no validation and no store apply.
	seqMu   sync.Mutex
	frozen  db.FrozenDB
	hist    *history.Window // retained versions for ASOF/CHANGES
	version atomic.Uint64   // written under seqMu; read lock-free

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
	// shard locks (lane pruning reads replica positions under it) and must
	// never be held while taking a shard lock or seqMu.
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
	if !opts.NoVet {
		if verr := facts.Vet().Err(); verr != nil {
			return nil, fmt.Errorf("server: initial program: %w", verr)
		}
	}
	s := &Server{
		opts:     opts,
		prog:     prog,
		start:    time.Now(),
		reg:      obs.NewRegistry(),
		sem:      make(chan struct{}, opts.MaxSessions),
		sessions: make(map[*session]struct{}),
		nshards:  opts.StoreShards,
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
	if !opts.NoPlan {
		// Seed the eligibility gauge from the initial program before any
		// session connects; session engine builds keep it merged.
		s.notePlan(facts.Plan(), false)
	}
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
		s.seqMu.Lock()
		defer s.seqMu.Unlock()
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
	var head *db.DB
	if opts.SnapshotPath != "" || opts.WALPath != "" {
		if opts.SnapshotPath == "" || opts.WALPath == "" {
			return nil, errors.New("server: need both SnapshotPath and WALPath for durability")
		}
		store, err := db.OpenStore(opts.SnapshotPath, opts.WALPath)
		if err != nil {
			return nil, err
		}
		// A checkpoint taken under one shard count must not be reopened
		// under another (the manifest records it; PinShards checks).
		if err := store.PinShards(s.nshards); err != nil {
			store.Close()
			return nil, err
		}
		s.store = store
		head = store.DB
	} else {
		head = db.New()
	}
	if err := s.installFacts(head, prog.Facts); err != nil {
		return nil, err
	}
	s.frozen = db.FreezeDB(head)
	var boot uint64
	if s.store != nil {
		// Commit versions are persistent: the version counter resumes from
		// the recovered LSN so that version N names the same commit across
		// restarts (the property ASOF, CHANGES, and the WAL's commit
		// boundaries all build on). In-memory servers keep counting from 0.
		boot = s.store.LastLSN()
		s.version.Store(boot)
		rec := s.store.Recovery()
		s.stats.recoveryReplayed.Store(int64(rec.ReplayedRecords))
		// From here on the server owns the tuples, partitioned into lanes;
		// the store keeps only the WAL/checkpoint machinery. ApplyCommit
		// becomes a pure log append.
		s.store.DetachDB()
	}
	heads := db.Split(head, s.nshards)
	s.shards = make([]*shard, s.nshards)
	for i, h := range heads {
		sh := &shard{idx: i, head: h, floor: boot}
		sh.version.Store(boot)
		s.shards[i] = sh
	}
	for i := range s.shards {
		sh := s.shards[i]
		s.reg.CounterFuncL("td_shard_commits_total", "commits applied per store shard (commit lane)",
			`shard="`+strconv.Itoa(i)+`"`, sh.commits.Load)
	}
	s.reg.CounterFunc("td_cross_shard_commits_total",
		"commits whose read/write touch-set spanned more than one shard", s.stats.crossShardCommits.Load)
	s.reg.GaugeFuncF("td_cross_shard_fraction",
		"fraction of commits that spanned more than one shard", func() float64 {
			total := s.stats.commits.Load()
			if total == 0 {
				return 0
			}
			return float64(s.stats.crossShardCommits.Load()) / float64(total)
		})
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
// would resurrect stale tuples. Runs at boot, before the head is split
// into lanes.
func (s *Server) installFacts(head *db.DB, facts []term.Atom) error {
	for _, f := range facts {
		if !f.IsGround() {
			return fmt.Errorf("server: initial fact %s is not ground", f)
		}
	}
	if head.Size() > 0 || len(facts) == 0 {
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
	head.Apply(ops)
	head.ResetTrail()
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

// newSession registers a session with a private replica built from the
// current lane heads.
func (s *Server) newSession(conn net.Conn) *session {
	sess := &session{
		srv:       s,
		conn:      conn,
		id:        s.sessID.Add(1),
		prog:      s.prog,
		varHigh:   s.prog.VarHigh,
		applied:   make([]atomic.Uint64, s.nshards),
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
	for _, sh := range s.shards {
		sh.mu.Lock()
		s.pruneShardLocked(sh)
		sh.mu.Unlock()
	}
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

// rebuildReplica builds the session's replica from scratch out of the lane
// heads, one lane at a time — the per-lane positions may be torn across
// lanes, which is fine: validation and catch-up are per lane. The global
// version is read FIRST, so by the time each lane is absorbed it holds at
// least every commit with LSN <= that version.
func (s *Server) rebuildReplica(sess *session) {
	head := s.version.Load()
	fresh := db.New()
	for i, sh := range s.shards {
		sh.mu.Lock()
		ver := sh.version.Load()
		fresh.AbsorbFrom(sh.head)
		sh.mu.Unlock()
		sess.applied[i].Store(ver)
	}
	sess.d = fresh
	sess.version = head
}

// syncSession brings a session's replica up to the current head version:
// every lane that advanced past the replica's position on it is caught up
// under its own lane lock; a lane that did not costs two atomic loads.
// sess.version cannot stand in for the per-lane positions — after the
// session's own commit it is that commit's LSN, while only the lanes the
// commit touched were caught up, so "head == sess.version" would keep
// skipping the others until some other session committed.
func (s *Server) syncSession(sess *session) {
	head := s.version.Load()
	for i := range s.shards {
		if !s.catchUpShard(sess, i) {
			// A lane's log was pruned past the replica: full resync.
			s.rebuildReplica(sess)
			return
		}
	}
	sess.version = head
}

// catchUpShard applies lane i's commit-log suffix the session has not seen.
// It reports false when the lane's log no longer reaches back far enough
// (the caller must full-resync).
func (s *Server) catchUpShard(sess *session, i int) bool {
	sh := s.shards[i]
	from := sess.applied[i].Load()
	if sh.version.Load() == from {
		return true
	}
	sh.mu.Lock()
	if from < sh.floor {
		sh.mu.Unlock()
		return false
	}
	suffix := sh.suffixLocked(from)
	ver := sh.version.Load()
	sh.mu.Unlock()
	for j := range suffix {
		sess.d.Apply(suffix[j].ops)
	}
	sess.d.ResetTrail()
	sess.applied[i].Store(ver)
	return true
}

// commit validates a transaction's read/write sets against everything that
// committed after the session's replica positions and, on success, applies
// the write set to the touched lanes, appends it to the WAL, and waits for
// the group-commit flusher to make it durable before returning (unless
// NoSync). On conflict it returns errConflict without touching shared
// state; the session must roll its replica back and resync.
//
// The commit path is the three-stage pipeline of the monolithic design,
// run per commit lane:
//
//  1. Backward validation runs against immutable snapshots of the touched
//     lanes' commit logs, each taken under a brief lane lock — the
//     O(history) conflict scans happen with every lock RELEASED,
//     concurrent with other committers.
//  2. The locks of ALL touched lanes (reads and writes — a lane we only
//     read from must not admit a winner between our validation and our
//     LSN) are taken in ascending index order; each lane re-validates
//     only the records that committed during stage 1 (usually none). A
//     clean commit applies its ops to the write lanes' heads, then takes
//     the sequencer lock just long enough to claim the next LSN, append
//     the WAL block (buffered, not synced), and advance the frozen view
//     and the history window; the commit records are published to the
//     write lanes' logs before the lane locks drop. Commits touching
//     disjoint lanes never meet on any of this except the sequencer,
//     which does O(ops) map-free work.
//  3. The committer waits, lock-free, for the flusher goroutine to cover
//     its LSN with a batched WAL fsync (WAL-before-ack per batch: the
//     sync that acknowledges a commit always covers its records).
//
// Because every lane in the read OR write mask is locked through LSN
// assignment, LSN order is an admissible serial order: any commit ordered
// before ours on a lane we touched published its lane records (and its
// effects) before we validated or applied there.
//
// ops is the transaction's net write set (db.DeltaSince), never empty. The
// session's replica must already contain exactly ops on top of its
// per-lane positions; on success it is caught up to the new head in place.
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
	in := newCommitIntent(s.nshards, rs, ops) // conflict keys + lane split, outside every lock
	if clk != nil {
		clk.lanes |= in.mask
		clk.ops += len(ops)
		clk.crossShard = clk.crossShard || in.crossShard()
	}

	// Stage 1a: snapshot each touched lane's validation view.
	views := make([][]commitRecord, s.nshards)
	snaps := make([]uint64, s.nshards)
	for i := 0; i < s.nshards; i++ {
		if in.mask&(1<<uint(i)) == 0 {
			continue
		}
		sh := s.shards[i]
		from := sess.applied[i].Load()
		sh.mu.Lock()
		if from < sh.floor {
			// History needed for validation was pruned: conservatively abort.
			sh.mu.Unlock()
			return 0, s.lostStale(clk)
		}
		views[i] = sh.suffixLocked(from)
		snaps[i] = sh.version.Load()
		sh.mu.Unlock()
	}

	// Stage 1b: validate against committed history without any lock.
	for i := range views {
		for j := range views[i] {
			if k := views[i][j].conflictsWith(rs); k >= 0 {
				return 0, s.lostTo(clk, &views[i][j], k)
			}
		}
	}
	if clk != nil {
		clk.mark(stageValidate)
	}

	// Stage 2: lock every touched lane in index order, re-validate the
	// deltas that committed meanwhile, then apply and sequence.
	locked := make([]*shard, 0, bits.OnesCount64(in.mask))
	unlockAll := func() {
		for _, sh := range locked {
			sh.mu.Unlock()
		}
	}
	for i := 0; i < s.nshards; i++ {
		if in.mask&(1<<uint(i)) != 0 {
			s.shards[i].mu.Lock()
			locked = append(locked, s.shards[i])
		}
	}
	if clk != nil {
		clk.mark(stageLaneWait)
	}
	deltas := make([][]commitRecord, s.nshards)
	for _, sh := range locked {
		if sess.applied[sh.idx].Load() < sh.floor {
			// The lane pruned past us while we validated (MaxLog stranding):
			// conservatively abort.
			unlockAll()
			return 0, s.lostStale(clk)
		}
		delta := sh.suffixLocked(snaps[sh.idx])
		for j := range delta {
			if k := delta[j].conflictsWith(rs); k >= 0 {
				unlockAll()
				return 0, s.lostTo(clk, &delta[j], k)
			}
		}
		deltas[sh.idx] = delta
	}
	if clk != nil {
		clk.mark(stageValidate) // delta re-checks accumulate onto validate
	}

	// Apply to the write lanes' heads. Every op takes effect: the write set
	// is a net effect, each of its tuples was observed by the read set, and
	// validation just showed no winner changed the membership of any.
	for k := range ops {
		s.shards[in.rec.writes[k].shard].head.ApplyOne(&ops[k])
	}
	for _, sh := range locked {
		if in.writeMask&(1<<uint(sh.idx)) != 0 {
			sh.head.ResetTrail()
		}
	}
	if clk != nil {
		clk.mark(stageApply)
	}

	// Sequence: claim the LSN, append the WAL block, advance the global
	// views. LSNs stay contiguous — every commit sequences here.
	s.seqMu.Lock()
	lsn := s.version.Load() + 1
	if s.store != nil {
		// The WAL block carries the commit's LSN, so recovery and the
		// checkpointer can name durable prefixes by commit version.
		if _, err := s.store.ApplyCommit(ops, lsn); err != nil {
			s.seqMu.Unlock()
			unlockAll()
			return 0, err
		}
	}
	s.frozen = s.frozen.ApplyOps(ops)
	// Retain the version for time travel: the ops are the immutable commit
	// record's (net) write set, the snapshot is the O(1)-forked frozen head.
	// Monotonicity is guaranteed under seqMu, so Append cannot fail.
	_ = s.hist.Append(lsn, ops, s.frozen)
	s.version.Store(lsn)
	s.group.noteAppend(lsn)
	s.seqMu.Unlock()
	if clk != nil {
		clk.mark(stageWALAppend)
	}

	// Publish the commit records to the write lanes and advance the
	// session's positions on every touched lane (a read-only lane cannot
	// have moved — we held its lock), then release the lanes.
	for _, sh := range locked {
		if in.writeMask&(1<<uint(sh.idx)) == 0 {
			continue
		}
		rec := in.rec
		if in.shardOps != nil {
			rec = commitRecord{ops: in.shardOps[sh.idx], writes: in.shardWrites[sh.idx]}
		}
		rec.version = lsn
		sh.clog = append(sh.clog, rec)
		sh.version.Store(lsn)
		sh.commits.Add(1)
		s.pruneShardLocked(sh)
	}
	for _, sh := range locked {
		sess.applied[sh.idx].Store(lsn)
	}
	sess.version = lsn
	unlockAll()

	// The committer's replica holds (its old per-lane positions + ops);
	// fold in the concurrent but non-overlapping writes it validated
	// against — per lane, view covers (applied, snap] and delta covers
	// (snap, lsn) — making it equal to the new head on every touched lane.
	// Ops in different lanes touch disjoint tuples, so the lane-by-lane
	// order is immaterial. sess.d is session-private, so this runs outside
	// every lock; the record slices stay valid even if pruning compacts a
	// log meanwhile, because compaction copies into a fresh array and the
	// records themselves are immutable.
	for i := range views {
		for j := range views[i] {
			sess.d.Apply(views[i][j].ops)
		}
	}
	for i := range deltas {
		for j := range deltas[i] {
			sess.d.Apply(deltas[i][j].ops)
		}
	}
	sess.d.ResetTrail()
	if clk != nil {
		clk.mark(stageApply) // publish + replica fold-in accumulate onto apply
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
	if in.crossShard() {
		s.stats.crossShardCommits.Add(1)
	}
	s.stats.deltaOps.Add(int64(len(ops)))
	elapsed := time.Since(started)
	s.stats.recordCommitLatency(elapsed)
	s.stats.observeSLOs(s.stats.sloCommit, elapsed)
	return lsn, nil
}

// lostStale counts a validation round lost because a lane's history no
// longer reaches back to the replica's position.
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

// pruneShardLocked drops lane records every live replica has already
// applied, and enforces the MaxLog cap (stranding laggards, who will full
// resync). Pruning only advances the live-window offset — no copying, no
// allocation; dead entries are reclaimed by an occasional compaction into
// a fresh array (entries are never overwritten in place, because commit
// validation may still be scanning a snapshot of the old array outside the
// lock). Called with sh.mu held; takes the registry lock to read replica
// positions (lane lock → registry lock, never the reverse).
func (s *Server) pruneShardLocked(sh *shard) {
	min := sh.version.Load()
	s.mu.Lock()
	for sess := range s.sessions {
		if v := sess.applied[sh.idx].Load(); v < min {
			min = v
		}
	}
	s.mu.Unlock()
	lo := sh.clogLo
	for lo < len(sh.clog) && sh.clog[lo].version <= min {
		lo++
	}
	if keep := len(sh.clog) - lo; keep > s.opts.MaxLog {
		lo = len(sh.clog) - s.opts.MaxLog
	}
	// floor is the version of the newest dropped record: the log then holds
	// exactly the lane's records above it (lane LSNs are sparse, so
	// "clog[lo].version - 1" would claim coverage it cannot prove).
	if lo > sh.clogLo {
		sh.floor = sh.clog[lo-1].version
	}
	sh.clogLo = lo
	// Compact once the dead prefix dominates: amortized O(1) per commit.
	if lo > 64 && lo*2 >= len(sh.clog) {
		live := len(sh.clog) - lo
		fresh := make([]commitRecord, live, live+live/2+16)
		copy(fresh, sh.clog[lo:])
		sh.clog = fresh
		sh.clogLo = 0
	}
}

// Snapshot returns an immutable snapshot of the current shared database
// (maintained incrementally at each commit; O(1) to take).
func (s *Server) Snapshot() db.FrozenDB {
	s.seqMu.Lock()
	defer s.seqMu.Unlock()
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
	s.seqMu.Lock()
	frozen := s.frozen
	lsn := s.version.Load()
	s.seqMu.Unlock()
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
	s.seqMu.Lock()
	version := s.version.Load()
	size := s.frozen.Size()
	s.seqMu.Unlock()
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
	// Sharding fields ride only on actually-sharded servers, so single-lane
	// deployments (and the golden wire-compat fixtures) see an unchanged
	// STATS payload.
	if s.nshards > 1 {
		snap.Shards = s.nshards
		snap.ShardCommits = make([]int64, s.nshards)
		for i, sh := range s.shards {
			snap.ShardCommits[i] = sh.commits.Load()
		}
		snap.CrossShardCommits = s.stats.crossShardCommits.Load()
		if c := s.stats.commits.Load(); c > 0 {
			snap.CrossShardFraction = float64(snap.CrossShardCommits) / float64(c)
		}
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
	// Stage quantiles, prover profile, and SLO state (PR 8) ride only when
	// the corresponding feature produced data, so servers running with
	// everything off keep emitting the pre-PR-8 frame byte for byte.
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
	// Planner counters (PR 9): zero (and omitted) under NoPlan, so such
	// servers keep the pre-planner payload.
	snap.PlanReorders = s.stats.planReorders.Load()
	snap.PlanHits = s.stats.planHits.Load()
	s.mu.Lock()
	for _, ok := range s.planPreds {
		if ok {
			snap.PlanTablingEligible++
		}
	}
	s.mu.Unlock()
	// Memo counters (PR 10): all zero (and omitted) until a tabled goal
	// touches the shared store, so untabled servers keep the pre-PR-10
	// payload byte for byte.
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
