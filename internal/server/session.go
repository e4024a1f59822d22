package server

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/analysis"
	"repro/internal/ast"
	"repro/internal/db"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/term"
)

// errGoalTime is the wall-clock budget violation, delivered through the
// engine's Watch hook (checked at every database-changing step).
var errGoalTime = errors.New("goal wall-clock budget exhausted")

// session is one client connection: a private database replica at a known
// version, a rulebase, and at most one open transaction.
type session struct {
	srv  *Server
	conn net.Conn
	id   uint64 // session serial, stamped into wide events

	d *db.DB
	// version is the LSN of the newest commit folded into the replica — the
	// session's one position. Written by the owning session; read lock-free
	// by log pruning, which uses it to size the live commit-log window.
	version atomic.Uint64
	prog    *ast.Program
	varHigh int64
	eng     *engine.Engine

	inTxn     bool
	beginMark int
	rs        *readSet  // active transaction's read set (nil outside one)
	rsBuf     *readSet  // recycled storage; see freshReadSet
	deadline  time.Time // wall-clock bound for the currently running goal

	// ASOF pinning: while asOf is non-nil, QUERY reads this thawed
	// historical version instead of the live replica, and writes are
	// refused (the past is read-only).
	asOf    *db.DB
	asOfLSN uint64

	traceOn bool // session-level TRACE on/off toggle
	profOn  bool // session-level PROFILE on/off toggle
	// tableMode is the session's tabling mode ("auto", "all", "none", a
	// predicate list, or "" = server default off), set by the TABLE verb;
	// lastMemoHits/lastMemoMisses/lastMemoStale carry the most recent
	// goal's memo counters and the region behind its last invalidation
	// into its wide event.
	tableMode      string
	lastMemoHits   int64
	lastMemoMisses int64
	lastMemoStale  string
	lastSpan       *obs.Span // span tree of the most recent successful goal
	// spanFresh marks lastSpan as produced by the request being served, so
	// stage spans attach only to their own transaction's tree.
	spanFresh bool

	// Stage-level latency attribution. clk points at clkBuf while the
	// current transaction is sampled (nil otherwise — every mark site is
	// nil-guarded); sampleN drives the 1-in-StageSample decision. All
	// session-goroutine-private, no atomics.
	clk     *stageClock
	clkBuf  stageClock
	sampleN uint64
}

// tracing reports whether goals run with structured execution tracing:
// either the session toggled it with TRACE, or a server-level option
// (Trace, SlowTxn, TraceSink) demands span trees for every goal.
func (sess *session) tracing() bool {
	o := &sess.srv.opts
	return sess.traceOn || o.Trace || o.SlowTxn > 0 || o.TraceSink != nil
}

// freshReadSet returns an empty read set, recycling the session's map
// storage: a session runs one transaction at a time, and the read set is
// only read synchronously inside commit, so reuse across attempts is safe.
func (sess *session) freshReadSet() *readSet {
	if sess.rsBuf == nil {
		sess.rsBuf = newReadSet()
		return sess.rsBuf
	}
	return sess.rsBuf.reset()
}

// buildEngine (re)builds the session engine for the current program.
func (sess *session) buildEngine() { sess.installEngine(sess.newEngine(sess.prog, false)) }

// installEngine makes eng the session engine. The outgoing engine's prover
// profile (if any) is folded into the server-wide aggregate first, so
// rebuilds never lose attribution.
func (sess *session) installEngine(eng *engine.Engine) {
	sess.srv.absorbProfile(sess.eng)
	sess.eng = eng
	sess.srv.notePlan(eng.PlanReport(), true)
}

// newEngine builds an engine for prog under the session's current switches.
// With vet set the engine's one load-time analysis also produces the tdvet
// report (Engine.VetReport), which LOAD inspects before installing anything.
func (sess *session) newEngine(prog *ast.Program, vet bool) *engine.Engine {
	opts := engine.Options{
		LoopCheck: true,
		Table:     true,
		MaxSteps:  sess.srv.opts.MaxSteps,
		Profile:   sess.profOn || sess.srv.opts.Profile,
		// tdplan literal reordering: every session engine plans (answer
		// sets are unchanged; plan_test.go checks it against the library's
		// unplanned default).
		Plan: true,
		// Span emission is handled by the session (it stamps wall-clock
		// duration and owns slow-transaction reporting), not an engine sink.
		Trace: sess.tracing(),
		Vet:   vet,
	}
	if mode := sess.tableMode; mode != "" && mode != "none" {
		// Tabled evaluation: the session engine fills and replays through
		// the server's shared memo store (per-entry content fingerprints of
		// what each fill read keep replicas sound without an invalidation
		// protocol). Auto mode
		// selects by the absorbed server-wide prover profile, so predicates
		// that burned time in any session get tabled in the next engine.
		opts.Memo = &engine.MemoOptions{
			Mode:    mode,
			Store:   sess.srv.memo,
			Profile: engineProfile(sess.srv.proverProfile()),
		}
	}
	if sess.srv.opts.MaxGoalTime > 0 {
		opts.Watch = func(*db.DB) error {
			if time.Now().After(sess.deadline) {
				return errGoalTime
			}
			return nil
		}
	}
	return engine.New(prog, opts)
}

// engineProfile converts the server-wide prover profile into the engine's
// wire-free twin, feeding auto-mode tabling selection.
func engineProfile(prof map[string]PredProfile) map[string]engine.PredProfile {
	if len(prof) == 0 {
		return nil
	}
	out := make(map[string]engine.PredProfile, len(prof))
	for pred, p := range prof {
		out[pred] = engine.PredProfile{Calls: p.Calls, Fanout: p.Fanout, TimeUs: p.TimeUs}
	}
	return out
}

// serve is the request loop: one frame in, one frame out, until the
// connection drops or the server shuts down.
func (sess *session) serve() {
	r := bufio.NewReader(sess.conn)
	w := bufio.NewWriter(sess.conn)
	for {
		if t := sess.srv.opts.IdleTimeout; t > 0 {
			sess.conn.SetReadDeadline(time.Now().Add(t))
		}
		var req Request
		if err := readFrame(r, &req, sess.srv.opts.MaxFrame); err != nil {
			break // EOF, deadline, or protocol garbage: drop the session
		}
		began := time.Now()
		sess.spanFresh = false
		resp := sess.handle(&req)
		if h := sess.srv.stats.verbLat[req.Op]; h != nil {
			h.Observe(time.Since(began).Microseconds())
		}
		if err := writeFrame(w, resp); err != nil {
			break
		}
		if err := w.Flush(); err != nil {
			break
		}
		// A sampled transaction's clock survives its handler so that the
		// ack stage covers response serialization and the socket write.
		if clk := sess.clk; clk != nil {
			sess.clk = nil
			clk.mark(stageAck)
			sess.finishStages(clk, &req, resp)
		}
	}
	// An open transaction dies with its session.
	if sess.inTxn {
		sess.d.Undo(sess.beginMark)
		sess.inTxn = false
		sess.srv.stats.aborts.Add(1)
	}
}

func fail(code, format string, args ...any) *Response {
	return &Response{Code: code, Err: fmt.Sprintf(format, args...)}
}

func (sess *session) handle(req *Request) *Response {
	switch req.Op {
	case OpPing:
		return &Response{OK: true}
	case OpStats:
		st := sess.srv.Stats()
		return &Response{OK: true, Stats: &st}
	case OpLoad:
		return sess.handleLoad(req)
	case OpBegin:
		return sess.handleBegin()
	case OpRun:
		return sess.handleRun(req)
	case OpCommit:
		return sess.handleCommit()
	case OpAbort:
		return sess.handleAbort()
	case OpExec:
		return sess.handleExec(req)
	case OpQuery:
		return sess.handleQuery(req)
	case OpTrace:
		return sess.handleTrace(req)
	case OpVet:
		return sess.handleVet(req)
	case OpCheckpoint:
		return sess.handleCheckpoint()
	case OpAsOf:
		return sess.handleAsOf(req)
	case OpChanges:
		return sess.handleChanges(req)
	case OpProfile:
		return sess.handleProfile(req)
	case OpPlan:
		return sess.handlePlan(req)
	case OpTable:
		return sess.handleTable(req)
	default:
		return fail(CodeBadRequest, "unknown op %q", req.Op)
	}
}

// handleLoad installs a program for this session and commits its facts to
// the shared database (as an ordinary transaction, so it is validated and
// WAL-logged like any other write).
func (sess *session) handleLoad(req *Request) *Response {
	if sess.inTxn {
		return fail(CodeBadRequest, "LOAD inside an open transaction")
	}
	if sess.asOf != nil {
		return fail(CodeBadRequest, "LOAD while pinned AS OF %d (the past is read-only; ASOF off first)", sess.asOfLSN)
	}
	prog, err := parser.Parse(req.Program)
	if err != nil {
		return fail(CodeParse, "program: %v", err)
	}
	for _, f := range prog.Facts {
		if !f.IsGround() {
			return fail(CodeParse, "fact %s is not ground", f)
		}
	}
	// One analysis serves the vet gate and the engine: the candidate engine
	// is built first and installed only if its report carries no error.
	eng := sess.newEngine(prog, true)
	if rep := eng.VetReport(); rep.Err() != nil {
		sess.srv.stats.vetRejects.Add(1)
		resp := fail(CodeVet, "program rejected by static analysis: %v", rep.Err())
		resp.Diagnostics = rep.Diags
		resp.Fragment = rep.Fragment
		return resp
	}
	sess.prog = prog
	sess.varHigh = prog.VarHigh
	sess.installEngine(eng)
	if resp := sess.commitFacts(prog.Facts); resp != nil {
		return resp
	}
	return &Response{OK: true, Version: sess.version.Load()}
}

// commitFacts installs facts through the OCC commit path, retrying on
// conflicts. Returns nil on success.
func (sess *session) commitFacts(facts []term.Atom) *Response {
	for attempt := 0; ; attempt++ {
		sess.srv.syncSession(sess)
		rs := sess.freshReadSet()
		mark := sess.d.Mark()
		sess.d.SetReadHook(rs.observe)
		for _, f := range facts {
			sess.d.Insert(f.Pred, f.Args)
		}
		sess.d.SetReadHook(nil)
		ops := sess.d.DeltaSince(mark)
		if len(ops) == 0 {
			sess.d.Undo(mark)
			return nil // everything already present
		}
		_, err := sess.srv.commit(sess, rs, ops)
		switch {
		case err == nil:
			return nil
		case errors.Is(err, errConflict):
			sess.d.Undo(mark)
			if attempt >= sess.srv.opts.MaxRetries {
				return fail(CodeConflict, "fact installation kept conflicting")
			}
			sess.srv.stats.retries.Add(1)
		default:
			sess.d.Undo(mark)
			return fail(CodeInternal, "%v", err)
		}
	}
}

func (sess *session) handleBegin() *Response {
	if sess.inTxn {
		return fail(CodeBadRequest, "transaction already open")
	}
	if sess.asOf != nil {
		return fail(CodeBadRequest, "BEGIN while pinned AS OF %d (the past is read-only; ASOF off first)", sess.asOfLSN)
	}
	sess.srv.syncSession(sess)
	sess.varHigh = sess.prog.VarHigh
	sess.inTxn = true
	sess.beginMark = sess.d.Mark()
	sess.rs = sess.freshReadSet()
	sess.srv.stats.txnsBegun.Add(1)
	return &Response{OK: true, Version: sess.version.Load()}
}

// addEngineStats folds a finished goal's engine statistics and the read
// database's counter delta into the server-wide aggregates. d is whichever
// database the goal ran against (the live replica, or an ASOF pin).
func (sess *session) addEngineStats(d *db.DB, st engine.Stats, before db.Counters) {
	s := &sess.srv.stats
	s.engineSteps.Add(st.Steps)
	s.engineUnifs.Add(st.Unifications)
	s.engineTable.Add(st.TableHits)
	s.planHits.Add(st.PlanHits)
	// Remembered per goal (not summed): the wide event of a sampled
	// transaction reports the memo traffic of its final proof attempt.
	sess.lastMemoHits = st.MemoHits
	sess.lastMemoMisses = st.MemoMisses
	sess.lastMemoStale = st.MemoStale
	after := d.Counters()
	s.dbLookups.Add(after.Lookups - before.Lookups)
	s.dbIndexHits.Add(after.IndexHits - before.IndexHits)
	s.dbScans.Add(after.Scans - before.Scans)
	s.dbRebuilds.Add(after.OrderRebuilds - before.OrderRebuilds)
}

// finishSpans stamps wall-clock duration onto a traced goal's span tree,
// remembers it for TRACE dump, forwards it to the configured sink, and
// writes the slow-transaction report when the goal blew the threshold.
func (sess *session) finishSpans(sp *obs.Span, elapsed time.Duration) {
	if sp == nil {
		return
	}
	sp.DurUs = elapsed.Microseconds()
	sess.lastSpan = sp
	sess.spanFresh = true
	if sink := sess.srv.opts.TraceSink; sink != nil {
		sink.Emit(sp)
	}
	if slow := sess.srv.opts.SlowTxn; slow > 0 && elapsed >= slow {
		sess.srv.stats.slowTxns.Add(1)
		sess.srv.opts.Logger.Warn("slow transaction",
			"goal", sp.Label,
			"elapsed", elapsed,
			"threshold", slow,
			"steps", sp.Steps,
			"spans", "\n"+sp.Tree())
	}
}

// beginStageClock decides whether the transaction that is starting is
// sampled (1-in-StageSample per session) and, if so, arms the session's
// stage clock. Unsampled transactions get a nil clock: every downstream
// mark site is a nil check and nothing else.
func (sess *session) beginStageClock() *stageClock {
	n := sess.srv.opts.StageSample
	if n <= 0 {
		return nil
	}
	sess.sampleN++
	if sess.sampleN%uint64(n) != 0 {
		return nil
	}
	sess.clkBuf.reset()
	return &sess.clkBuf
}

// finishStages settles a sampled transaction after its response is on the
// wire: stage durations feed the td_txn_stage_us histograms, the wide event
// goes to the sink, and the stage breakdown is grafted onto the goal's span
// tree for TRACE dump.
func (sess *session) finishStages(clk *stageClock, req *Request, resp *Response) {
	sess.srv.stats.recordStages(clk)
	sess.emitWide(clk, req, resp)
	sess.attachStageSpans(clk)
}

// emitWide writes the transaction's one-line summary — identity, outcome,
// commit-path facts, and the full stage breakdown — to the wide-event sink.
func (sess *session) emitWide(clk *stageClock, req *Request, resp *Response) {
	sink := sess.srv.opts.WideSink
	if sink == nil {
		return
	}
	ev := obs.WideEvent{
		Event:      "txn",
		Trace:      sess.srv.traceID.Add(1),
		Session:    sess.id,
		Verb:       req.Op,
		Goal:       req.Goal,
		LSN:        resp.Version,
		Retries:    resp.Retries,
		Conflict:   clk.conflict,
		Ops:        clk.ops,
		Batch:      clk.batch,
		TotalUs:    clk.total().Microseconds(),
		MemoHits:   sess.lastMemoHits,
		MemoMisses: sess.lastMemoMisses,
		MemoStale:  sess.lastMemoStale,

		ConflictLSN:  clk.conflictLSN,
		ConflictAtom: clk.conflictAtom,
	}
	for i, d := range clk.dur {
		if us := d.Microseconds(); us > 0 {
			if ev.StageUs == nil {
				ev.StageUs = make(map[string]int64, nStages)
			}
			ev.StageUs[stageNames[i]] = us
		}
	}
	sink.EmitWide(&ev)
}

// attachStageSpans grafts the stage breakdown onto the span tree the
// transaction just produced, so TRACE dump shows where the wall-clock went
// alongside the proof structure. The tree is shallow-cloned first: the
// original may already be in the trace sink's hands.
func (sess *session) attachStageSpans(clk *stageClock) {
	sp := sess.lastSpan
	if sp == nil || !sess.spanFresh {
		return
	}
	clone := *sp
	clone.Children = append([]*obs.Span{}, sp.Children...)
	for i, d := range clk.dur {
		if us := d.Microseconds(); us > 0 {
			clone.Children = append(clone.Children, &obs.Span{
				Kind:  "stage",
				Label: stageNames[i],
				DurUs: us,
			})
		}
	}
	sess.lastSpan = &clone
}

// runGoal executes one parsed goal inside the open transaction, recording
// reads into the transaction's read set. It returns the goal's net write
// set beside the result.
func (sess *session) runGoal(g ast.Goal) (*engine.Result, []db.Op, *Response) {
	began := time.Now()
	sess.deadline = began.Add(sess.srv.opts.MaxGoalTime)
	before := sess.d.Counters()
	sess.d.SetReadHook(sess.rs.observe)
	res, ops, err := sess.eng.ProveDelta(g, sess.d)
	sess.d.SetReadHook(nil)
	if res != nil {
		sess.addEngineStats(sess.d, res.Stats, before)
	}
	if err != nil {
		var wv *engine.WatchViolation
		switch {
		case errors.As(err, &wv) && errors.Is(wv.Cause, errGoalTime):
			sess.srv.stats.budgetHits.Add(1)
			return nil, nil, fail(CodeBudget, "goal exceeded wall-clock budget %v", sess.srv.opts.MaxGoalTime)
		case errors.Is(err, engine.ErrBudget), errors.Is(err, engine.ErrDepth):
			sess.srv.stats.budgetHits.Add(1)
			return nil, nil, fail(CodeBudget, "%v", err)
		default:
			return nil, nil, fail(CodeInternal, "%v", err)
		}
	}
	if !res.Success {
		sess.srv.stats.noProof.Add(1)
		return nil, nil, fail(CodeNoProof, "no execution of the goal commits")
	}
	sess.finishSpans(res.Spans, time.Since(began))
	return res, ops, nil
}

func (sess *session) parseGoal(src string) (ast.Goal, *Response) {
	g, high, err := parser.ParseGoal(src, sess.varHigh)
	if err != nil {
		return nil, fail(CodeParse, "goal: %v", err)
	}
	sess.varHigh = high
	return g, nil
}

func bindingsWire(b map[string]term.Term) map[string]string {
	if len(b) == 0 {
		return nil
	}
	out := make(map[string]string, len(b))
	for k, v := range b {
		out[k] = v.String()
	}
	return out
}

func (sess *session) handleRun(req *Request) *Response {
	if !sess.inTxn {
		return fail(CodeBadRequest, "RUN outside a transaction (use BEGIN, or EXEC for one-shots)")
	}
	g, errResp := sess.parseGoal(req.Goal)
	if errResp != nil {
		return errResp
	}
	res, _, errResp := sess.runGoal(g)
	if errResp != nil {
		return errResp // goal rolled back; transaction stays open
	}
	return &Response{OK: true, Bindings: bindingsWire(res.Bindings)}
}

func (sess *session) handleCommit() *Response {
	if !sess.inTxn {
		return fail(CodeBadRequest, "COMMIT outside a transaction")
	}
	sess.inTxn = false
	// An interactive transaction's proof time was spent in earlier RUN
	// frames; the clock armed here covers validate through ack only.
	sess.clk = sess.beginStageClock()
	ops := sess.d.DeltaSince(sess.beginMark)
	if len(ops) == 0 {
		// Read-only — no update, or updates that cancelled out: the
		// transaction is the identity on the database, so it is serializable
		// at its snapshot point with nothing to validate or log.
		sess.d.ResetTrail()
		return &Response{OK: true, Version: sess.version.Load()}
	}
	version, err := sess.srv.commit(sess, sess.rs, ops)
	switch {
	case err == nil:
		return &Response{OK: true, Version: version}
	case errors.Is(err, errConflict):
		sess.d.Undo(sess.beginMark)
		sess.srv.syncSession(sess)
		sess.srv.stats.aborts.Add(1)
		return fail(CodeConflict, "commit conflict: a concurrent transaction won; retry")
	default:
		sess.d.Undo(sess.beginMark)
		sess.srv.stats.aborts.Add(1)
		return fail(CodeInternal, "%v", err)
	}
}

func (sess *session) handleAbort() *Response {
	if !sess.inTxn {
		return fail(CodeBadRequest, "ABORT outside a transaction")
	}
	sess.d.Undo(sess.beginMark)
	sess.inTxn = false
	sess.rs = nil
	sess.srv.stats.aborts.Add(1)
	return &Response{OK: true, Version: sess.version.Load()}
}

// handleExec is BEGIN + RUN + COMMIT with server-side conflict retries:
// the paper's iso(goal), executed as one serializable unit.
func (sess *session) handleExec(req *Request) *Response {
	if sess.inTxn {
		return fail(CodeBadRequest, "EXEC inside an open transaction")
	}
	if sess.asOf != nil {
		return fail(CodeBadRequest, "EXEC while pinned AS OF %d (the past is read-only; ASOF off first)", sess.asOfLSN)
	}
	sess.varHigh = sess.prog.VarHigh
	sess.clk = sess.beginStageClock()
	g, errResp := sess.parseGoal(req.Goal)
	if errResp != nil {
		return errResp
	}
	if clk := sess.clk; clk != nil {
		clk.mark(stageParse)
	}
	for attempt := 0; ; attempt++ {
		sess.srv.syncSession(sess)
		sess.srv.stats.txnsBegun.Add(1)
		sess.rs = sess.freshReadSet()
		mark := sess.d.Mark()
		res, ops, errResp := sess.runGoal(g)
		// Replica sync and proof search both charge to prove; retries
		// accumulate (attempt N's proof time adds to attempt N-1's).
		if clk := sess.clk; clk != nil {
			clk.mark(stageProve)
		}
		if errResp != nil {
			sess.srv.stats.aborts.Add(1)
			return errResp
		}
		if len(ops) == 0 {
			// Read-only (an empty net effect): serializable at its snapshot
			// point.
			sess.d.ResetTrail()
			return &Response{OK: true, Version: sess.version.Load(), Retries: attempt, Bindings: bindingsWire(res.Bindings)}
		}
		version, err := sess.srv.commit(sess, sess.rs, ops)
		switch {
		case err == nil:
			return &Response{OK: true, Version: version, Retries: attempt, Bindings: bindingsWire(res.Bindings)}
		case errors.Is(err, errConflict):
			sess.d.Undo(mark)
			if attempt >= sess.srv.opts.MaxRetries {
				sess.srv.stats.aborts.Add(1)
				return fail(CodeConflict, "gave up after %d conflict retries", attempt)
			}
			sess.srv.stats.retries.Add(1)
		default:
			sess.d.Undo(mark)
			sess.srv.stats.aborts.Add(1)
			return fail(CodeInternal, "%v", err)
		}
	}
}

// handleQuery enumerates solutions without keeping effects. Inside a
// transaction it reads the transaction's state (and its reads count toward
// validation); outside, it reads a fresh snapshot — or, when the session is
// pinned with ASOF, the thawed historical version.
func (sess *session) handleQuery(req *Request) *Response {
	if !sess.inTxn {
		sess.srv.syncSession(sess)
		sess.varHigh = sess.prog.VarHigh
	}
	g, errResp := sess.parseGoal(req.Goal)
	if errResp != nil {
		return errResp
	}
	d := sess.d
	if sess.asOf != nil && !sess.inTxn {
		d = sess.asOf
	}
	if sess.inTxn {
		sess.d.SetReadHook(sess.rs.observe)
		defer sess.d.SetReadHook(nil)
	}
	sess.deadline = time.Now().Add(sess.srv.opts.MaxGoalTime)
	before := d.Counters()
	var sols []map[string]string
	res, err := sess.eng.Enumerate(g, d, req.Max, func(b map[string]term.Term) bool {
		m := bindingsWire(b)
		if m == nil {
			m = map[string]string{}
		}
		sols = append(sols, m)
		return true
	})
	if res != nil {
		sess.addEngineStats(d, res.Stats, before)
	}
	if err != nil {
		var wv *engine.WatchViolation
		if errors.As(err, &wv) && errors.Is(wv.Cause, errGoalTime) {
			sess.srv.stats.budgetHits.Add(1)
			return fail(CodeBudget, "query exceeded wall-clock budget %v", sess.srv.opts.MaxGoalTime)
		}
		if errors.Is(err, engine.ErrBudget) || errors.Is(err, engine.ErrDepth) {
			sess.srv.stats.budgetHits.Add(1)
			return fail(CodeBudget, "%v", err)
		}
		return fail(CodeInternal, "%v", err)
	}
	return &Response{OK: true, Solutions: sols}
}

// handleVet statically analyzes a program without installing it: the
// server-side twin of the tdvet CLI, returning the same diagnostics for
// the same source. It never touches the session's loaded program or the
// shared database.
func (sess *session) handleVet(req *Request) *Response {
	rep, err := analysis.VetSource(req.Program)
	if err != nil {
		return fail(CodeParse, "program: %v", err)
	}
	return &Response{OK: true, Diagnostics: rep.Diags, Fragment: rep.Fragment}
}

// handlePlan runs the tdplan static planner — adornment dataflow, literal
// reorder decisions, and tabling-safety certificates — over a submitted
// program without installing it, or, when no program is submitted, over
// the session's loaded rulebase. Pure analysis: it never touches the
// session engine or the shared database.
func (sess *session) handlePlan(req *Request) *Response {
	if req.Program != "" {
		rep, err := analysis.PlanSource(req.Program)
		if err != nil {
			return fail(CodeParse, "program: %v", err)
		}
		return &Response{OK: true, Plan: rep}
	}
	return &Response{OK: true, Plan: analysis.Plan(sess.prog)}
}

// handleTrace toggles session-level tracing or dumps the span tree of the
// most recent successfully proved goal.
func (sess *session) handleTrace(req *Request) *Response {
	switch req.Arg {
	case "on":
		sess.traceOn = true
		sess.buildEngine()
		return &Response{OK: true}
	case "off":
		sess.traceOn = false
		sess.buildEngine()
		return &Response{OK: true}
	case "", "dump":
		if sess.lastSpan == nil {
			return fail(CodeBadRequest, "no traced goal yet (TRACE on, then RUN/EXEC a goal)")
		}
		return &Response{OK: true, Trace: sess.lastSpan}
	default:
		return fail(CodeBadRequest, "TRACE takes on, off, or dump; got %q", req.Arg)
	}
}

// handleProfile toggles per-predicate prover profiling for this session or
// dumps the server-wide attribution (live sessions' counters folded with
// those absorbed from closed sessions and engine rebuilds).
func (sess *session) handleProfile(req *Request) *Response {
	switch req.Arg {
	case "on":
		sess.profOn = true
		sess.buildEngine()
		return &Response{OK: true}
	case "off":
		sess.profOn = false
		sess.buildEngine()
		return &Response{OK: true}
	case "", "dump":
		prof := sess.srv.proverProfile()
		if prof == nil {
			return fail(CodeBadRequest, "no profiled predicates yet (PROFILE on, then RUN/EXEC a goal)")
		}
		return &Response{OK: true, Profile: prof}
	default:
		return fail(CodeBadRequest, "PROFILE takes on, off, or dump; got %q", req.Arg)
	}
}

// handleTable sets the session's tabling mode — "auto" (profile-driven
// top-K), "all" (every eligible predicate), "none" (off), or a
// comma-separated predicate list — rebuilding the session engine, or
// reports status: the mode, the predicates the engine tables, and the
// shared memo store's counters. "on"/"off" alias "auto"/"none".
func (sess *session) handleTable(req *Request) *Response {
	switch req.Arg {
	case "", "status", "dump":
		// Pure read: no engine rebuild.
	case "on", "auto":
		sess.tableMode = "auto"
		sess.buildEngine()
	case "off", "none":
		sess.tableMode = "none"
		sess.buildEngine()
	case "all":
		sess.tableMode = "all"
		sess.buildEngine()
	default:
		// A predicate list ("hot" or "hot/1", comma-separated). Anything
		// naming no eligible predicate simply tables nothing.
		sess.tableMode = req.Arg
		sess.buildEngine()
	}
	return &Response{OK: true, Memo: sess.memoStatus()}
}

// memoStatus assembles the TABLE response: session mode and tabled set,
// shared-store counters.
func (sess *session) memoStatus() *MemoStatus {
	mode := sess.tableMode
	if mode == "" {
		mode = "none"
	}
	st := &MemoStatus{Mode: mode, Tabled: sess.eng.MemoTabled()}
	ms := sess.srv.memo.Snapshot()
	st.Hits, st.Misses = ms.Hits, ms.Misses
	st.Invalidations, st.Evictions = ms.Invalidations, ms.Evictions
	st.Bytes, st.Entries = ms.Bytes, ms.Entries
	for _, p := range ms.Preds {
		st.Preds = append(st.Preds, MemoPredStat{Pred: p.Pred, Hits: p.Hits, Misses: p.Misses})
	}
	return st
}

// handleCheckpoint triggers an incremental checkpoint and reports its LSN.
// Commits keep flowing while it runs; only durable servers can checkpoint.
func (sess *session) handleCheckpoint() *Response {
	lsn, err := sess.srv.Checkpoint()
	if err != nil {
		if sess.srv.store == nil {
			return fail(CodeBadRequest, "%v", err)
		}
		return fail(CodeInternal, "checkpoint: %v", err)
	}
	return &Response{OK: true, LSN: lsn}
}

// handleAsOf pins the session's reads to a historical version ("ASOF 42"),
// or unpins them ("ASOF off"). While pinned, QUERY answers from the thawed
// version and every write verb is refused.
func (sess *session) handleAsOf(req *Request) *Response {
	if sess.inTxn {
		return fail(CodeBadRequest, "ASOF inside an open transaction")
	}
	if req.Arg == "off" {
		sess.asOf = nil
		sess.asOfLSN = 0
		return &Response{OK: true}
	}
	lsn, err := strconv.ParseUint(req.Arg, 10, 64)
	if err != nil {
		return fail(CodeBadRequest, "ASOF takes a decimal LSN or %q; got %q", "off", req.Arg)
	}
	snap, served, err := sess.srv.hist.At(lsn)
	if err != nil {
		return fail(CodeOutOfWindow, "%v", err)
	}
	sess.asOf = snap.Thaw()
	sess.asOfLSN = served
	return &Response{OK: true, LSN: served}
}

// handleChanges streams the committed op deltas since an LSN — the exact
// write sets, in commit order, that take the state at that LSN to the
// current state. Out-of-window and not-yet-committed LSNs are refused with
// CodeOutOfWindow.
func (sess *session) handleChanges(req *Request) *Response {
	lsn, err := strconv.ParseUint(req.Arg, 10, 64)
	if err != nil {
		return fail(CodeBadRequest, "CHANGES takes the decimal LSN to stream from; got %q", req.Arg)
	}
	deltas, err := sess.srv.hist.Since(lsn)
	if err != nil {
		return fail(CodeOutOfWindow, "%v", err)
	}
	out := make([]CommitDelta, len(deltas))
	for i, d := range deltas {
		ops := make([]WireOp, len(d.Ops))
		for j := range d.Ops {
			o := &d.Ops[j]
			verb := "del"
			if o.Insert {
				verb = "ins"
			}
			ops[j] = WireOp{Op: verb, Atom: term.Atom{Pred: o.Pred, Args: o.Row}.String()}
		}
		out[i] = CommitDelta{LSN: d.LSN, Ops: ops}
	}
	return &Response{OK: true, Changes: out, Version: sess.srv.Version()}
}
