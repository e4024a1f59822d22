package engine

import (
	"errors"
	"sync"
	"sync/atomic"

	"repro/internal/ast"
	"repro/internal/db"
	"repro/internal/term"
)

// ProvePar is Prove with parallel search: the goal's first-level successor
// configurations (one per interleaving choice × rule choice × tuple choice
// available at the start) are materialized with cloned databases and
// explored concurrently by up to workers goroutines. The first successful
// worker wins; its final database is written back into d, which is
// otherwise rolled back.
//
// Parallel search pays off when top-level branching is wide and subtrees
// are expensive (large interleaving spaces); for narrow or cheap searches,
// Prove's single depth-first pass avoids the cloning overhead. Answers
// agree with Prove's up to the choice among successful executions. The
// step budget is shared across workers.
func (e *Engine) ProvePar(goal ast.Goal, d *db.DB, workers int) (*Result, error) {
	if e.vetErr != nil {
		return nil, e.vetErr
	}
	goal, err := e.prog.ResolveGoal(goal)
	if err != nil {
		return nil, err
	}
	if workers < 1 {
		workers = 1
	}

	sucs, err := e.collectSuccessors(goal, d)
	if err != nil {
		return nil, err
	}
	if len(sucs) == 0 {
		// No transitions: success iff the goal is already done.
		if _, done := goal.(ast.True); done {
			return &Result{Success: true, Bindings: map[string]term.Term{}}, nil
		}
		return &Result{}, nil
	}

	var sharedSteps atomic.Int64
	type outcome struct {
		suc     successor
		success bool
		bind    map[string]term.Term
		depth   int
		err     error
	}
	results := make(chan outcome, len(sucs))
	var cancel atomic.Bool
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for _, st := range sucs {
		wg.Add(1)
		go func(st successor) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if cancel.Load() {
				results <- outcome{suc: st}
				return
			}
			dv := newDeriv(e, st.d, st.tree)
			dv.shared = &sharedSteps
			found := false
			dv.explore(st.tree, 1, func() bool {
				found = true
				return false
			})
			if dv.err != nil {
				results <- outcome{suc: st, err: dv.err, depth: dv.maxDepth}
				return
			}
			if found {
				cancel.Store(true)
				// Merge first-step bindings with the subtree's.
				bind := make(map[string]term.Term, len(st.bound))
				for k, v := range st.bound {
					bind[k] = v
				}
				for k, v := range bindingsOf(st.tree, dv.env) {
					bind[k] = v
				}
				results <- outcome{suc: st, success: true, bind: bind, depth: dv.maxDepth}
				return
			}
			results <- outcome{suc: st, depth: dv.maxDepth}
		}(st)
	}
	wg.Wait()
	close(results)

	agg := &Result{}
	var firstErr error
	for o := range results {
		if o.depth > agg.Stats.MaxDepth {
			agg.Stats.MaxDepth = o.depth
		}
		if o.err != nil && firstErr == nil {
			firstErr = o.err
		}
		if o.success && !agg.Success {
			agg.Success = true
			agg.Bindings = o.bind
			replaceDB(d, o.suc.d)
		}
	}
	agg.Stats.Steps = sharedSteps.Load()
	if agg.Success {
		return agg, nil
	}
	if firstErr != nil {
		agg.Stats.Truncated = errors.Is(firstErr, ErrBudget) || errors.Is(firstErr, ErrDepth)
		return agg, firstErr
	}
	return agg, nil
}

// successor is one first-level transition target: a residual tree with the
// step's bindings substituted in, the database after the step (cloned),
// and the bindings the step gave to the original goal's named variables.
type successor struct {
	tree  ast.Goal
	d     *db.DB
	bound map[string]term.Term
}

// collectSuccessors enumerates the single-step successors of goal from d
// using the engine's own transition relation: a depth-limited exploration
// whose cutoff hook captures each frontier configuration. d is rolled
// back afterwards.
func (e *Engine) collectSuccessors(goal ast.Goal, d *db.DB) ([]successor, error) {
	dv := newDeriv(e, d, goal)
	var out []successor
	mark := d.Mark()
	dv.depthLimit = 1
	dv.frontier = func(res ast.Goal) {
		out = append(out, successor{
			tree:  resolveGoalEng(res, dv.env),
			d:     d.Clone(),
			bound: bindingsOf(goal, dv.env),
		})
	}
	// Initial depth 1: residuals arrive at depth 2 > depthLimit and hit
	// the cutoff hook. A goal that is already True emits instead.
	done := false
	dv.explore(goal, 1, func() bool { done = true; return true })
	d.Undo(mark)
	if dv.err != nil {
		return nil, dv.err
	}
	if done && len(out) == 0 {
		// Zero-step completion (goal was True): signal via empty frontier;
		// ProvePar handles it from the goal shape.
		return nil, nil
	}
	return out, nil
}

// resolveGoalEng substitutes current bindings into g, leaving unbound
// variables in place (the engine-side twin of the simulator's resolver).
func resolveGoalEng(g ast.Goal, env *term.Env) ast.Goal {
	switch g := g.(type) {
	case ast.True:
		return g
	case *ast.Lit:
		return &ast.Lit{Op: g.Op, Atom: env.ResolveAtom(g.Atom)}
	case *ast.Empty:
		return g
	case *ast.Builtin:
		return &ast.Builtin{Name: g.Name, Args: env.ResolveArgs(g.Args)}
	case *ast.Seq:
		goals := make([]ast.Goal, len(g.Goals))
		for i, sub := range g.Goals {
			goals[i] = resolveGoalEng(sub, env)
		}
		return &ast.Seq{Goals: goals}
	case *ast.Conc:
		goals := make([]ast.Goal, len(g.Goals))
		for i, sub := range g.Goals {
			goals[i] = resolveGoalEng(sub, env)
		}
		return &ast.Conc{Goals: goals}
	case *ast.Iso:
		return &ast.Iso{Body: resolveGoalEng(g.Body, env)}
	default:
		return g
	}
}

// replaceDB makes dst's contents equal src's, keeping dst's identity.
func replaceDB(dst, src *db.DB) {
	for _, ra := range dst.Relations() {
		for _, row := range dst.Tuples(ra.Pred, ra.Arity) {
			dst.Delete(ra.Pred, row)
		}
	}
	for _, ra := range src.Relations() {
		for _, row := range src.Tuples(ra.Pred, ra.Arity) {
			dst.Insert(ra.Pred, row)
		}
	}
	dst.ResetTrail()
}
