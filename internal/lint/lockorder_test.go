package lint

import "testing"

// Two package-level mutexes taken in opposite orders by two functions: the
// seeded deadlock the rule exists for. The cycle is reported once, at its
// earliest edge.
func TestLockOrderTwoMutexCycle(t *testing.T) {
	got := runFixture(t, &LockOrder{}, map[string]map[string]string{
		"example.com/locks": {"locks.go": `package locks

import "sync"

var muA sync.Mutex
var muB sync.Mutex

func AB() {
	muA.Lock()
	muB.Lock()
	muB.Unlock()
	muA.Unlock()
}

func BA() {
	muB.Lock()
	muA.Lock()
	muA.Unlock()
	muB.Unlock()
}
`},
	})
	wantFindings(t, got, []struct {
		line int
		rule string
		msg  string
	}{{10, "lockorder", "lock-order cycle"}})
}

func TestLockOrderConsistentOrderIsClean(t *testing.T) {
	got := runFixture(t, &LockOrder{}, map[string]map[string]string{
		"example.com/locks": {"locks.go": `package locks

import "sync"

var muA sync.Mutex
var muB sync.Mutex

func First() {
	muA.Lock()
	muB.Lock()
	muB.Unlock()
	muA.Unlock()
}

func Second() {
	muA.Lock()
	muB.Lock()
	muB.Unlock()
	muA.Unlock()
}
`},
	})
	wantFindings(t, got, nil)
}

// One leg of the cycle is transitive — a call made under the node lock into
// a package that takes its own lock — and crosses a package boundary; the
// finding's message carries the call chain.
func TestLockOrderCrossPackageTransitiveCycle(t *testing.T) {
	got := runFixture(t, &LockOrder{}, map[string]map[string]string{
		"example.com/store": {"store.go": `package store

import "sync"

var Mu sync.Mutex

func Append() {
	Mu.Lock()
	Mu.Unlock()
}
`},
		"example.com/node": {"node.go": `package node

import (
	"sync"

	"example.com/store"
)

var Mu sync.Mutex

func Flush() {
	Mu.Lock()
	store.Append()
	Mu.Unlock()
}

func Pin() {
	store.Mu.Lock()
	Mu.Lock()
	Mu.Unlock()
	store.Mu.Unlock()
}
`},
	})
	wantFindings(t, got, []struct {
		line int
		rule string
		msg  string
	}{{13, "lockorder", "via"}})
}

// Two instances of one lock class acquired together form a self-cycle the
// class abstraction cannot judge: suppressed by default, surfaced with
// IncludeSelf.
func TestLockOrderSelfClassCycle(t *testing.T) {
	fixture := map[string]map[string]string{
		"example.com/pair": {"pair.go": `package pair

import "sync"

type T struct{ mu sync.Mutex }

func Swap(a, b *T) {
	a.mu.Lock()
	b.mu.Lock()
	b.mu.Unlock()
	a.mu.Unlock()
}
`},
	}
	wantFindings(t, runFixture(t, &LockOrder{}, fixture), nil)
	wantFindings(t, runFixture(t, &LockOrder{IncludeSelf: true}, fixture), []struct {
		line int
		rule string
		msg  string
	}{{9, "lockorder", "example.com/pair.T.mu -> example.com/pair.T.mu"}})
}
