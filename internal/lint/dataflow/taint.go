package dataflow

import (
	"fmt"
	"go/token"
	"go/types"
	"strings"
)

// TaintConfig parameterizes one forward taint analysis over the call graph.
type TaintConfig struct {
	// Source classifies a called function as a taint source, returning a
	// non-empty description ("wall clock", "global rand", …) when it is.
	// It is consulted for every call target, module-internal or not.
	Source func(fn *types.Func) string
	// Sanitizer marks functions whose results are trusted clean: a
	// sanitizer never becomes tainted, and calling one never taints the
	// caller, whatever its body does.
	Sanitizer func(fn *types.Func) bool
	// MapRangeSource treats `range` over a map as a source unless the
	// enclosing function also calls a sorting function.
	MapRangeSource bool
	// MultiSelectSource treats a select with two or more communication
	// cases and no default as a source (ready-case choice is randomized).
	MultiSelectSource bool
	// WriterTaintsFields additionally taints every field a tainted
	// function writes, even when the written expression itself looks
	// clean (the coarse but sound closure over locals the engine does not
	// track).
	WriterTaintsFields bool
	// TrimPrefix is stripped from package paths in rendered taint paths.
	TrimPrefix string
}

// Taint is one hop of a taint chain. The chain reads from the tainted
// function's own body down to the root source: each hop's Pos lies inside
// the function (or field write) the previous hop pointed into.
type Taint struct {
	// Desc describes the hop ("calls live.now", "reads field t.dirty",
	// "map iteration order", "time.Now (wall clock)").
	Desc string
	// Pos locates the hop.
	Pos token.Pos
	// Fn is the tainted function this hop calls into, when the hop is a
	// call; nil for sources, syntax forms and field reads.
	Fn *types.Func
	// Next is the hop one level deeper, nil at the root source.
	Next *Taint
}

// Root returns the chain's final hop — the source itself.
func (t *Taint) Root() *Taint {
	for t.Next != nil {
		t = t.Next
	}
	return t
}

// Engine runs one taint configuration over a call graph. Build it with
// NewEngine after every package has been added; the solve happens once, in
// NewEngine, so a built engine is safe for concurrent queries.
type Engine struct {
	g     *Graph
	cfg   TaintConfig
	funcs map[*types.Func]*Taint
	field map[*types.Var]*Taint
}

// NewEngine resolves the graph and solves the taint fixpoint.
func NewEngine(g *Graph, cfg TaintConfig) *Engine {
	e := &Engine{
		g:     g,
		cfg:   cfg,
		funcs: make(map[*types.Func]*Taint),
		field: make(map[*types.Var]*Taint),
	}
	g.Resolve()
	e.solve()
	return e
}

// TaintOf returns fn's taint chain, or nil when fn is clean.
func (e *Engine) TaintOf(fn *types.Func) *Taint { return e.funcs[fn] }

// solve iterates functions and fields to a fixpoint. A function's taint,
// once set, is never replaced, so the reported chain is the first (most
// proximate) cause found under deterministic iteration order.
func (e *Engine) solve() {
	for changed := true; changed; {
		changed = false
		for _, n := range e.g.Nodes() {
			if e.sanitized(n.Fn) {
				continue
			}
			if e.funcs[n.Fn] == nil {
				if t := e.directTaint(n); t != nil {
					e.funcs[n.Fn] = t
					changed = true
				}
			}
			for i := range n.Writes {
				w := &n.Writes[i]
				if e.field[w.Field] != nil {
					continue
				}
				if t := e.writeTaint(n, w); t != nil {
					e.field[w.Field] = t
					changed = true
				}
			}
		}
	}
}

func (e *Engine) sanitized(fn *types.Func) bool {
	return e.cfg.Sanitizer != nil && e.cfg.Sanitizer(fn)
}

// directTaint finds the first cause of taint in n's own body: a source
// call, a nondeterministic syntax form, a call to a tainted function, or a
// read of a tainted field — in that priority order, so reported chains
// prefer the shortest explanation.
func (e *Engine) directTaint(n *Node) *Taint {
	if e.cfg.Source != nil {
		for _, c := range n.Calls {
			for _, tgt := range e.g.Callees(c) {
				if e.sanitized(tgt) {
					continue
				}
				if s := e.cfg.Source(tgt); s != "" {
					return &Taint{Desc: fmt.Sprintf("%s (%s)", e.label(tgt), s), Pos: c.Pos}
				}
			}
		}
	}
	if e.cfg.MapRangeSource && !n.CallsSort && len(n.MapRanges) > 0 {
		return &Taint{Desc: "map iteration order (randomized per run; no sort call in this function)", Pos: n.MapRanges[0]}
	}
	if e.cfg.MultiSelectSource && len(n.MultiSelects) > 0 {
		return &Taint{Desc: "select with multiple communication cases (ready-case choice is randomized)", Pos: n.MultiSelects[0]}
	}
	for _, c := range n.Calls {
		for _, tgt := range e.g.Callees(c) {
			if e.sanitized(tgt) {
				continue
			}
			if t := e.funcs[tgt]; t != nil {
				return &Taint{Desc: "calls " + e.label(tgt), Pos: c.Pos, Fn: tgt, Next: t}
			}
		}
	}
	for _, r := range n.Reads {
		if t := e.field[r.Field]; t != nil {
			return &Taint{Desc: "reads field " + r.Field.Name(), Pos: r.Pos, Next: t}
		}
	}
	return nil
}

// writeTaint decides whether one field write taints the field: the written
// expression calls a source or tainted function, reads a tainted field, or
// (under WriterTaintsFields) the writing function is itself tainted.
func (e *Engine) writeTaint(n *Node, w *FieldWrite) *Taint {
	for _, fn := range w.RHSCalls {
		if e.sanitized(fn) {
			continue
		}
		if e.cfg.Source != nil {
			if s := e.cfg.Source(fn); s != "" {
				return &Taint{Desc: fmt.Sprintf("%s (%s)", e.label(fn), s), Pos: w.Pos}
			}
		}
		if t := e.funcs[fn]; t != nil {
			return &Taint{Desc: "assigned from " + e.label(fn), Pos: w.Pos, Fn: fn, Next: t}
		}
	}
	for _, f := range w.RHSReads {
		if f == w.Field {
			continue
		}
		if t := e.field[f]; t != nil {
			return &Taint{Desc: "assigned from field " + f.Name(), Pos: w.Pos, Next: t}
		}
	}
	if e.cfg.WriterTaintsFields {
		if t := e.funcs[n.Fn]; t != nil {
			return &Taint{Desc: "written by nondeterministic " + e.label(n.Fn), Pos: w.Pos, Next: t}
		}
	}
	return nil
}

// label renders a function as pkg.Name (receiver included for methods),
// with the configured prefix trimmed.
func (e *Engine) label(fn *types.Func) string {
	name := fn.FullName()
	if e.cfg.TrimPrefix != "" {
		name = strings.ReplaceAll(name, e.cfg.TrimPrefix, "")
	}
	return name
}

// PathString renders a taint chain as "hop @ file:line → … → source",
// capped at limit hops (0 = no cap).
func (e *Engine) PathString(t *Taint, fset *token.FileSet, limit int) string {
	var parts []string
	for hop := t; hop != nil; hop = hop.Next {
		if limit > 0 && len(parts) == limit {
			parts = append(parts, "…")
			break
		}
		pos := fset.Position(hop.Pos)
		file := pos.Filename
		if i := strings.LastIndexByte(file, '/'); i >= 0 {
			file = file[i+1:]
		}
		parts = append(parts, fmt.Sprintf("%s @ %s:%d", hop.Desc, file, pos.Line))
	}
	return strings.Join(parts, " -> ")
}
