package dataflow

import (
	"fmt"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockID canonically names one lock *class* across the program: a mutex
// struct field is "pkgpath.Type.field", a package-level mutex variable is
// "pkgpath.var". Two instances of the same class share an ID — static
// lock-order analysis reasons about classes, not instances.
type LockID string

// AcqStep is one hop of the call chain by which a function transitively
// acquires a lock.
type AcqStep struct {
	// Desc describes the hop ("calls live.flush", "locks live.node.mu").
	Desc string
	// Pos locates the hop.
	Pos token.Pos
	// Next is the hop one call deeper, nil at the Lock call itself.
	Next *AcqStep
}

// LockEdge records that Inner is (possibly transitively) acquired while
// Outer is held.
type LockEdge struct {
	// Outer is the lock already held, Inner the one acquired under it.
	Outer, Inner LockID
	// Pos locates the acquisition (or the call leading to it) in Fn.
	Pos token.Pos
	// Fn is the function holding Outer at Pos.
	Fn *types.Func
	// Via is the call chain from Pos down to the Inner lock call; nil for
	// a direct nested Lock in Fn's own body.
	Via *AcqStep
}

// LockCycle is one potential-deadlock cycle of the lock-order graph.
type LockCycle struct {
	// Edges closes the cycle: Edges[i].Inner == Edges[i+1].Outer, and the
	// last edge's Inner is the first edge's Outer.
	Edges []LockEdge
}

// Locks renders the cycle's lock sequence ("a -> b -> a").
func (c LockCycle) Locks() string {
	parts := make([]string, 0, len(c.Edges)+1)
	for _, e := range c.Edges {
		parts = append(parts, string(e.Outer))
	}
	parts = append(parts, string(c.Edges[0].Outer))
	return strings.Join(parts, " -> ")
}

// lockedCall is one call site executed while locks are held.
type lockedCall struct {
	fn   *types.Func
	call Call
	held []LockID
}

// LockGraph accumulates the flow-sensitive lock observations the lock
// analyzers' shared export pass makes, and solves them against the call
// graph into lock-order cycles. Records are added serially (the export pass
// is dependency-ordered and single-threaded); Solve is called once.
type LockGraph struct {
	direct map[*types.Func][]struct {
		lock LockID
		pos  token.Pos
	}
	pairs   []LockEdge
	calls   []lockedCall
	helpers map[*types.Func]map[int]HelperLock
	walked  map[string]bool
}

// HelperLock is what a lock-wrapping helper holds when it invokes one of
// its func-typed parameters (the withLock pattern).
type HelperLock struct {
	// Locks are the held lock classes.
	Locks []LockID
	// Held renders the held mutexes as the helper's source spells them
	// ("n.mu"), for messages.
	Held string
}

// NewLockGraph returns an empty lock graph.
func NewLockGraph() *LockGraph {
	return &LockGraph{
		direct: make(map[*types.Func][]struct {
			lock LockID
			pos  token.Pos
		}),
		helpers: make(map[*types.Func]map[int]HelperLock),
		walked:  make(map[string]bool),
	}
}

// FirstWalk reports whether the package at path has not yet had its lock
// observations recorded, and marks it recorded: the records serve every
// analyzer that reads them, so each package is walked once per run.
func (lg *LockGraph) FirstWalk(path string) bool {
	if lg.walked[path] {
		return false
	}
	lg.walked[path] = true
	return true
}

// AddDirect records that fn's own body acquires lock at pos.
func (lg *LockGraph) AddDirect(fn *types.Func, lock LockID, pos token.Pos) {
	lg.direct[fn] = append(lg.direct[fn], struct {
		lock LockID
		pos  token.Pos
	}{lock, pos})
}

// AddPair records a directly nested acquisition: inner locked at pos while
// outer is held, both in fn's own body.
func (lg *LockGraph) AddPair(fn *types.Func, outer, inner LockID, pos token.Pos) {
	lg.pairs = append(lg.pairs, LockEdge{Outer: outer, Inner: inner, Pos: pos, Fn: fn})
}

// AddLockedCall records that fn makes call while holding held.
func (lg *LockGraph) AddLockedCall(fn *types.Func, call Call, held []LockID) {
	if len(held) == 0 {
		return
	}
	lg.calls = append(lg.calls, lockedCall{fn: fn, call: call, held: held})
}

// SetHelperParam records that fn invokes its func-typed parameter i while
// holding h (the withLock pattern), so callers can analyze literal
// arguments with those locks seeded.
func (lg *LockGraph) SetHelperParam(fn *types.Func, i int, h HelperLock) {
	m := lg.helpers[fn]
	if m == nil {
		m = make(map[int]HelperLock)
		lg.helpers[fn] = m
	}
	m[i] = h
}

// HelperParams returns fn's locked func-parameter map, or nil.
func (lg *LockGraph) HelperParams(fn *types.Func) map[int]HelperLock {
	return lg.helpers[fn]
}

// Solve resolves the call graph, closes acquisitions transitively, builds
// the lock-order digraph and returns its cycles (deterministically ordered).
// Self-cycles — the same lock class re-acquired while held, usually two
// instances locked in a deliberate global order — are reported only when
// includeSelf is set.
func (lg *LockGraph) Solve(g *Graph, includeSelf bool) []LockCycle {
	g.Resolve()
	// Transitive acquisition sets with one representative path each.
	acq := make(map[*types.Func]map[LockID]*AcqStep)
	at := func(fn *types.Func) map[LockID]*AcqStep {
		m := acq[fn]
		if m == nil {
			m = make(map[LockID]*AcqStep)
			acq[fn] = m
		}
		return m
	}
	for fn, list := range lg.direct {
		m := at(fn)
		for _, d := range list {
			if m[d.lock] == nil {
				m[d.lock] = &AcqStep{Desc: "locks " + string(d.lock), Pos: d.pos}
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, n := range g.Nodes() {
			for _, c := range n.Calls {
				for _, tgt := range g.Callees(c) {
					for lock, path := range acq[tgt] {
						m := at(n.Fn)
						if m[lock] == nil {
							m[lock] = &AcqStep{Desc: "calls " + tgt.FullName(), Pos: c.Pos, Next: path}
							changed = true
						}
					}
				}
			}
		}
	}
	// Lock-order edges: directly nested pairs plus held-across-call
	// acquisitions.
	edges := make(map[LockID]map[LockID]LockEdge)
	addEdge := func(e LockEdge) {
		m := edges[e.Outer]
		if m == nil {
			m = make(map[LockID]LockEdge)
			edges[e.Outer] = m
		}
		if _, ok := m[e.Inner]; !ok {
			m[e.Inner] = e
		}
	}
	for _, e := range lg.pairs {
		addEdge(e)
	}
	for _, lc := range lg.calls {
		for _, tgt := range g.Callees(lc.call) {
			for lock, path := range acq[tgt] {
				for _, h := range lc.held {
					addEdge(LockEdge{
						Outer: h, Inner: lock, Pos: lc.call.Pos, Fn: lc.fn,
						Via: &AcqStep{Desc: "calls " + tgt.FullName(), Pos: lc.call.Pos, Next: path},
					})
				}
			}
		}
	}
	return cycles(edges, includeSelf)
}

// cycles enumerates one representative cycle per strongly connected
// component of the lock digraph (plus self-loops when requested), in
// deterministic lock-ID order.
func cycles(edges map[LockID]map[LockID]LockEdge, includeSelf bool) []LockCycle {
	ids := make([]LockID, 0, len(edges))
	seen := make(map[LockID]bool)
	for from, m := range edges {
		if !seen[from] {
			seen[from] = true
			ids = append(ids, from)
		}
		for to := range m {
			if !seen[to] {
				seen[to] = true
				ids = append(ids, to)
			}
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	succ := func(id LockID) []LockID {
		m := edges[id]
		out := make([]LockID, 0, len(m))
		for to := range m {
			out = append(out, to)
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}
	var out []LockCycle
	reported := make(map[string]bool)
	for _, start := range ids {
		if e, ok := edges[start][start]; ok && includeSelf {
			key := string(start)
			if !reported[key] {
				reported[key] = true
				out = append(out, LockCycle{Edges: []LockEdge{e}})
			}
		}
		// DFS for a path start -> … -> start of length ≥ 2.
		var path []LockID
		onPath := map[LockID]bool{}
		var dfs func(id LockID) []LockID
		dfs = func(id LockID) []LockID {
			path = append(path, id)
			onPath[id] = true
			for _, next := range succ(id) {
				if next == start && len(path) >= 2 {
					return append([]LockID(nil), path...)
				}
				if !onPath[next] && next > start {
					// Only visit IDs greater than start: every cycle is
					// found from its smallest member exactly once.
					if found := dfs(next); found != nil {
						return found
					}
				}
			}
			path = path[:len(path)-1]
			onPath[id] = false
			return nil
		}
		cyc := dfs(start)
		if cyc == nil {
			continue
		}
		key := fmt.Sprint(cyc)
		if reported[key] {
			continue
		}
		reported[key] = true
		var es []LockEdge
		for i, from := range cyc {
			to := cyc[(i+1)%len(cyc)]
			es = append(es, edges[from][to])
		}
		out = append(out, LockCycle{Edges: es})
	}
	return out
}
