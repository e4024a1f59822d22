package parser

import (
	"errors"
	"fmt"
	"os"

	"repro/internal/ast"
	"repro/internal/term"
)

// parser is a recursive-descent parser over the token stream.
type parser struct {
	lx   *lexer
	tok  token
	peek *token

	// vars maps variable names to ids, scoped per clause; "_" is always
	// fresh.
	vars    map[string]int64
	nextVar int64

	// depth counts the open '(' and 'iso(' around the current goal.
	depth int
}

// maxGoalDepth bounds goal nesting. Each level costs a few frames of Go
// stack in goal → seqGoal → unary, so without a bound a goal nested some
// millions of levels deep overflows the stack and kills the process; past
// the bound the parser returns a positioned *Error instead.
const maxGoalDepth = 1000

// Parse parses a complete TD program (facts, rules, and ?- directives) and
// runs ast.Program.Analyze on the result.
func Parse(src string) (*ast.Program, error) {
	p := &parser{lx: newLexer(src), vars: make(map[string]int64)}
	if err := p.advance(); err != nil {
		return nil, err
	}
	prog := &ast.Program{}
	for p.tok.kind != tokEOF {
		if err := p.statement(prog); err != nil {
			return nil, err
		}
	}
	prog.VarHigh = p.nextVar
	prog.Pragmas = p.lx.pragmas
	if err := prog.Analyze(); err != nil {
		var pe *ast.PosError
		if errors.As(err, &pe) && pe.Pos.IsValid() {
			return nil, &Error{Line: pe.Pos.Line, Col: pe.Pos.Col, Msg: pe.Msg}
		}
		return nil, err
	}
	return prog, nil
}

// ParseFile reads and parses path.
func ParseFile(path string) (*ast.Program, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	prog, err := Parse(string(data))
	if err != nil {
		return nil, fmt.Errorf("%s:%w", path, err)
	}
	return prog, nil
}

// ParseGoal parses a standalone goal formula such as a transaction
// invocation typed at a REPL. Variable ids start at startVar so they do not
// collide with a previously parsed program; the returned high-water mark
// accounts for the goal's variables.
func ParseGoal(src string, startVar int64) (ast.Goal, int64, error) {
	p := &parser{lx: newLexer(src), vars: make(map[string]int64), nextVar: startVar}
	if err := p.advance(); err != nil {
		return nil, startVar, err
	}
	g, err := p.goal()
	if err != nil {
		return nil, startVar, err
	}
	if p.tok.kind == tokDot {
		if err := p.advance(); err != nil {
			return nil, startVar, err
		}
	}
	if p.tok.kind != tokEOF {
		return nil, startVar, p.errHere("unexpected %s after goal", p.tok.kind)
	}
	return g, p.nextVar, nil
}

// MustParse is Parse that panics on error; for tests and package examples.
func MustParse(src string) *ast.Program {
	prog, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return prog
}

// MustParseGoal is ParseGoal that panics on error.
func MustParseGoal(src string, startVar int64) ast.Goal {
	g, _, err := ParseGoal(src, startVar)
	if err != nil {
		panic(err)
	}
	return g
}

func (p *parser) advance() error {
	if p.peek != nil {
		p.tok = *p.peek
		p.peek = nil
		return nil
	}
	t, err := p.lx.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *parser) peekTok() (token, error) {
	if p.peek == nil {
		t, err := p.lx.next()
		if err != nil {
			return token{}, err
		}
		p.peek = &t
	}
	return *p.peek, nil
}

func (p *parser) errHere(format string, args ...any) *Error {
	return &Error{Line: p.tok.line, Col: p.tok.col, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) expect(k tokKind) error {
	if p.tok.kind != k {
		return p.errHere("expected %s, found %s", k, p.tok.kind)
	}
	return p.advance()
}

// statement parses one clause:  fact. | head :- body. | ?- goal.
func (p *parser) statement(prog *ast.Program) error {
	// Variable scope is per clause.
	p.vars = make(map[string]int64)
	if p.tok.kind == tokQuery {
		if err := p.advance(); err != nil {
			return err
		}
		g, err := p.goal()
		if err != nil {
			return err
		}
		prog.Queries = append(prog.Queries, g)
		return p.expect(tokDot)
	}
	headPos := ast.Pos{Line: p.tok.line, Col: p.tok.col}
	head, err := p.atom()
	if err != nil {
		return err
	}
	switch p.tok.kind {
	case tokDot:
		if !head.IsGround() {
			return &Error{Line: headPos.Line, Col: headPos.Col,
				Msg: fmt.Sprintf("fact %s must be ground", head)}
		}
		prog.Facts = append(prog.Facts, head)
		prog.FactPos = append(prog.FactPos, headPos)
		return p.advance()
	case tokImplies:
		if err := p.advance(); err != nil {
			return err
		}
		body, err := p.goal()
		if err != nil {
			return err
		}
		prog.Rules = append(prog.Rules, ast.Rule{Head: head, Body: body, Pos: headPos})
		return p.expect(tokDot)
	default:
		return p.errHere("expected '.' or ':-' after %s, found %s", head, p.tok.kind)
	}
}

// goal := seqGoal ("|" seqGoal)*        — "|" binds loosest
func (p *parser) goal() (ast.Goal, error) {
	first, err := p.seqGoal()
	if err != nil {
		return nil, err
	}
	if p.tok.kind != tokBar {
		return first, nil
	}
	goals := []ast.Goal{first}
	for p.tok.kind == tokBar {
		if err := p.advance(); err != nil {
			return nil, err
		}
		g, err := p.seqGoal()
		if err != nil {
			return nil, err
		}
		goals = append(goals, g)
	}
	return ast.NewConc(goals...), nil
}

// seqGoal := unary ("," unary)*
func (p *parser) seqGoal() (ast.Goal, error) {
	first, err := p.unary()
	if err != nil {
		return nil, err
	}
	if p.tok.kind != tokComma {
		return first, nil
	}
	goals := []ast.Goal{first}
	for p.tok.kind == tokComma {
		if err := p.advance(); err != nil {
			return nil, err
		}
		g, err := p.unary()
		if err != nil {
			return nil, err
		}
		goals = append(goals, g)
	}
	return ast.NewSeq(goals...), nil
}

// unary parses one operand of a composition. Every atomic node it builds
// carries the source position of its first token.
func (p *parser) unary() (ast.Goal, error) {
	pos := ast.Pos{Line: p.tok.line, Col: p.tok.col}
	switch p.tok.kind {
	case tokLParen:
		if err := p.enter(); err != nil {
			return nil, err
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		g, err := p.goal()
		if err != nil {
			return nil, err
		}
		p.depth--
		return g, p.expect(tokRParen)
	case tokInsDot, tokDelDot:
		op := ast.OpIns
		if p.tok.kind == tokDelDot {
			op = ast.OpDel
		}
		pred := p.tok.text
		if err := p.advance(); err != nil {
			return nil, err
		}
		args, err := p.optionalArgs()
		if err != nil {
			return nil, err
		}
		return &ast.Lit{Op: op, Atom: term.Atom{Pred: pred, Args: args}, Pos: pos}, nil
	case tokEmptyDot:
		pred := p.tok.text
		if err := p.advance(); err != nil {
			return nil, err
		}
		return &ast.Empty{Pred: pred, Pos: pos}, nil
	case tokIdent:
		if p.tok.text == "true" {
			if err := p.advance(); err != nil {
				return nil, err
			}
			return ast.True{}, nil
		}
		if p.tok.text == "iso" {
			nx, err := p.peekTok()
			if err != nil {
				return nil, err
			}
			if nx.kind == tokLParen {
				if err := p.enter(); err != nil {
					return nil, err
				}
				if err := p.advance(); err != nil { // over 'iso'
					return nil, err
				}
				if err := p.advance(); err != nil { // over '('
					return nil, err
				}
				body, err := p.goal()
				if err != nil {
					return nil, err
				}
				p.depth--
				if err := p.expect(tokRParen); err != nil {
					return nil, err
				}
				return &ast.Iso{Body: body, Pos: pos}, nil
			}
		}
		a, err := p.atom()
		if err != nil {
			return nil, err
		}
		// A bare symbol followed by a comparison operator is the left side
		// of an infix builtin: amt > 0 etc.
		if p.tok.kind == tokOp && len(a.Args) == 0 {
			return p.comparison(term.NewSym(a.Pred), pos)
		}
		return &ast.Lit{Op: ast.OpCall, Atom: a, Pos: pos}, nil
	case tokVar, tokInt, tokString:
		left, err := p.simpleTerm()
		if err != nil {
			return nil, err
		}
		return p.comparison(left, pos)
	default:
		return nil, p.errHere("expected a goal, found %s", p.tok.kind)
	}
}

// enter opens one more level of goal nesting at the current token, failing
// past maxGoalDepth.
func (p *parser) enter() error {
	p.depth++
	if p.depth > maxGoalDepth {
		return p.errHere("goal nested deeper than %d levels", maxGoalDepth)
	}
	return nil
}

// comparison parses `left OP right` where OP was looked up in the lexer.
// pos is the position of the left operand, anchoring the whole comparison.
func (p *parser) comparison(left term.Term, pos ast.Pos) (ast.Goal, error) {
	if p.tok.kind != tokOp {
		return nil, p.errHere("expected comparison operator after %s, found %s", left, p.tok.kind)
	}
	name := p.tok.text
	if err := p.advance(); err != nil {
		return nil, err
	}
	right, err := p.term()
	if err != nil {
		return nil, err
	}
	return &ast.Builtin{Name: name, Args: []term.Term{left, right}, Pos: pos}, nil
}

// atom := ident optionalArgs
func (p *parser) atom() (term.Atom, error) {
	if p.tok.kind != tokIdent {
		return term.Atom{}, p.errHere("expected predicate name, found %s", p.tok.kind)
	}
	pred := p.tok.text
	if err := p.advance(); err != nil {
		return term.Atom{}, err
	}
	args, err := p.optionalArgs()
	if err != nil {
		return term.Atom{}, err
	}
	return term.Atom{Pred: pred, Args: args}, nil
}

func (p *parser) optionalArgs() ([]term.Term, error) {
	if p.tok.kind != tokLParen {
		return nil, nil
	}
	if err := p.advance(); err != nil {
		return nil, err
	}
	var args []term.Term
	for {
		t, err := p.term()
		if err != nil {
			return nil, err
		}
		args = append(args, t)
		if p.tok.kind == tokComma {
			if err := p.advance(); err != nil {
				return nil, err
			}
			continue
		}
		break
	}
	return args, p.expect(tokRParen)
}

// term := VAR | INT | STRING | ident
func (p *parser) term() (term.Term, error) {
	if p.tok.kind == tokIdent {
		t := term.NewSym(p.tok.text)
		return t, p.advance()
	}
	return p.simpleTerm()
}

func (p *parser) simpleTerm() (term.Term, error) {
	switch p.tok.kind {
	case tokVar:
		name := p.tok.text
		var id int64
		if name == "_" {
			id = p.nextVar
			p.nextVar++
		} else if got, ok := p.vars[name]; ok {
			id = got
		} else {
			id = p.nextVar
			p.nextVar++
			p.vars[name] = id
		}
		t := term.NewVar(name, id)
		return t, p.advance()
	case tokInt:
		t := term.NewInt(p.tok.num)
		return t, p.advance()
	case tokString:
		t := term.NewStr(p.tok.text)
		return t, p.advance()
	default:
		return term.Term{}, p.errHere("expected a term, found %s", p.tok.kind)
	}
}
