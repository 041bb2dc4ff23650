// Package dataflow is the interprocedural layer under internal/lint: a
// whole-program call graph over go/types, a forward taint engine with
// configurable sources, sinks and sanitizers, and a lock-acquisition graph
// for static deadlock detection. It exists because the repository's
// determinism contract — byte-identical campaign output, differential
// naive-vs-coordinated comparisons, chaos-soak invariants — is a
// whole-program property: a wall-clock read three call hops away from a
// campaign result path breaks it just as surely as one written inline, and
// no per-function AST check can see the hop.
//
// The package is deliberately stdlib-only (go/ast, go/token, go/types) and
// does not import internal/lint; the lint framework adapts its packages into
// the Package mirror below and stores one shared State in its cross-package
// fact store, so every dataflow-based analyzer sees a single call graph
// built exactly once per run.
//
// Precision model: the graph is an over-approximation. Function literals
// are attributed to their enclosing declaration, a function value passed or
// stored anywhere is assumed callable by whoever receives it (a Ref edge),
// and a call through an interface method fans out to every concrete method
// of every module type implementing that interface. Over-approximation is
// the right polarity for lint — a spurious edge at worst asks a human for a
// //lint:ignore with a reason; a missing edge silently voids the
// determinism proofs.
package dataflow

import (
	"go/ast"
	"go/token"
	"go/types"
	"sync"
)

// Package mirrors the slice of internal/lint.Package the dataflow layer
// needs, so this package can stay import-free of the lint framework.
type Package struct {
	// Path is the package's import path.
	Path string
	// Fset maps AST positions to source locations.
	Fset *token.FileSet
	// Files holds the package's parsed files.
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// Info carries the type-checker's resolution maps.
	Info *types.Info
}

// State is the shared whole-program dataflow state for one lint run. The
// lint framework creates one per fact store; analyzers add packages during
// their (serial, dependency-ordered) export pass and solve lazily — and
// concurrency-safely — during the parallel check pass.
type State struct {
	// Graph is the whole-program call graph, grown one package at a time.
	Graph *Graph
	// Locks accumulates flow-sensitive lock-acquisition records (the
	// lockorder and lockedblocking analyzers' shared export pass fills it
	// in).
	Locks *LockGraph

	mu   sync.Mutex
	memo map[string]any
}

// NewState returns an empty dataflow state.
func NewState() *State {
	return &State{
		Graph: NewGraph(),
		Locks: NewLockGraph(),
		memo:  make(map[string]any),
	}
}

// Memo returns the value built once for key, building it under the state's
// lock on first use. Analyzers use it to run their whole-program solve
// exactly once even when package checks execute in parallel.
func (s *State) Memo(key string, build func() any) any {
	s.mu.Lock()
	defer s.mu.Unlock()
	if v, ok := s.memo[key]; ok {
		return v
	}
	v := build()
	s.memo[key] = v
	return v
}
