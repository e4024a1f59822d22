package engine

// Transactional entry point: running a goal against a forked database and
// extracting its write set, for callers (the transaction server) that
// manage commit and rollback themselves.

import (
	"errors"

	"repro/internal/ast"
	"repro/internal/db"
	"repro/internal/term"
)

// ProveDelta is Prove for transactional callers. It searches for a
// successful execution of goal from d exactly like Prove, but on success it
// leaves the witness execution's changes on d's undo trail — instead of
// committing them with ResetTrail — and returns them as an ordered write
// set. The caller owns the trail: Undo back to its own mark to abort, or
// ResetTrail to commit. On failure or error, d is rolled back to the state
// at entry (changes from earlier ProveDelta calls on the same trail are
// untouched).
func (e *Engine) ProveDelta(goal ast.Goal, d *db.DB) (*Result, []db.Op, error) {
	if e.vetErr != nil {
		return nil, nil, e.vetErr
	}
	goal, err := e.prog.ResolveGoal(goal)
	if err != nil {
		return nil, nil, err
	}
	dv := newDeriv(e, d, goal)
	defer dv.release()
	res := &Result{}
	dbMark := d.Mark()
	found := false
	cont := dv.explore(goal, 0, func() bool {
		found = true
		return false // stop at first success, keeping the state
	})
	res.Stats = dv.stats()
	if dv.err != nil {
		d.Undo(dbMark)
		res.Stats.Truncated = errors.Is(dv.err, ErrBudget) || errors.Is(dv.err, ErrDepth)
		return res, nil, dv.err
	}
	if cont || !found {
		d.Undo(dbMark)
		return res, nil, nil
	}
	res.Success = true
	res.Stats.Successes = 1
	res.Bindings = bindingsOf(goal, dv.env)
	if e.opts.Trace {
		res.Trace = append([]TraceEntry(nil), dv.trace...)
		res.Spans = dv.buildSpans(goal.String(), res.Stats)
		if e.opts.SpanSink != nil {
			e.opts.SpanSink.Emit(res.Spans)
		}
	}
	return res, d.DeltaSince(dbMark), nil
}

// Enumerate runs emit once per successful execution of goal with that
// execution's answer bindings, up to max of them (max <= 0 means all), and
// rolls d back afterwards. Unlike Solutions it does not clone final
// database states, so it is the right shape for query serving.
func (e *Engine) Enumerate(goal ast.Goal, d *db.DB, max int, emit func(map[string]term.Term) bool) (*Result, error) {
	if e.vetErr != nil {
		return nil, e.vetErr
	}
	goal, err := e.prog.ResolveGoal(goal)
	if err != nil {
		return nil, err
	}
	dv := newDeriv(e, d, goal)
	defer dv.release()
	dbMark := d.Mark()
	n := 0
	dv.explore(goal, 0, func() bool {
		n++
		if !emit(bindingsOf(goal, dv.env)) {
			return false
		}
		return max <= 0 || n < max
	})
	d.Undo(dbMark)
	res := &Result{Success: n > 0}
	res.Stats = dv.stats()
	res.Stats.Successes = int64(n)
	if dv.err != nil {
		res.Stats.Truncated = errors.Is(dv.err, ErrBudget) || errors.Is(dv.err, ErrDepth)
		return res, dv.err
	}
	return res, nil
}
