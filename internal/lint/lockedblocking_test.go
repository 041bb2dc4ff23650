package lint

import "testing"

func TestLockedBlocking(t *testing.T) {
	a := NewLockedBlocking()
	cases := []struct {
		name string
		pkgs map[string]map[string]string
		want []struct {
			line int
			rule string
			msg  string
		}
	}{
		{
			name: "channel send and receive under mutex fire",
			pkgs: map[string]map[string]string{
				"example.com/tr": {"tr.go": `package tr

import "sync"

type T struct {
	mu sync.Mutex
	ch chan int
}

func (t *T) Push(v int) {
	t.mu.Lock()
	t.ch <- v
	t.mu.Unlock()
}

func (t *T) Pop() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return <-t.ch
}
`}},
			want: []struct {
				line int
				rule string
				msg  string
			}{
				{12, "lockedblocking", "channel send while holding t.mu"},
				{19, "lockedblocking", "channel receive while holding t.mu"},
			},
		},
		{
			name: "send after unlock is fine",
			pkgs: map[string]map[string]string{
				"example.com/tr": {"tr.go": `package tr

import "sync"

type T struct {
	mu sync.Mutex
	ch chan int
}

func (t *T) Push(v int) {
	t.mu.Lock()
	t.mu.Unlock()
	t.ch <- v
}
`}},
		},
		{
			name: "non-blocking select with default is the sanctioned pattern",
			pkgs: map[string]map[string]string{
				"example.com/tr": {"tr.go": `package tr

import "sync"

type T struct {
	mu sync.Mutex
	ch chan int
}

func (t *T) TryPush(v int) {
	t.mu.Lock()
	select {
	case t.ch <- v:
	default:
	}
	t.mu.Unlock()
}
`}},
		},
		{
			name: "blocking select under lock fires",
			pkgs: map[string]map[string]string{
				"example.com/tr": {"tr.go": `package tr

import "sync"

type T struct {
	mu sync.Mutex
	a  chan int
	b  chan int
}

func (t *T) Wait() {
	t.mu.Lock()
	defer t.mu.Unlock()
	select {
	case <-t.a:
	case <-t.b:
	}
}
`}},
			want: []struct {
				line int
				rule string
				msg  string
			}{{14, "lockedblocking", "blocking select while holding t.mu"}},
		},
		{
			name: "early unlock-and-return branch does not poison the fall-through",
			pkgs: map[string]map[string]string{
				"example.com/tr": {"tr.go": `package tr

import "sync"

type T struct {
	mu     sync.Mutex
	closed bool
	ch     chan int
}

func (t *T) Push(v int) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.ch <- v
	t.mu.Unlock()
}
`}},
			want: []struct {
				line int
				rule string
				msg  string
			}{{17, "lockedblocking", "channel send while holding t.mu"}},
		},
		{
			name: "unlock in both branches clears the state",
			pkgs: map[string]map[string]string{
				"example.com/tr": {"tr.go": `package tr

import "sync"

type T struct {
	mu   sync.Mutex
	fast bool
	ch   chan int
}

func (t *T) Push(v int) {
	t.mu.Lock()
	if t.fast {
		t.mu.Unlock()
	} else {
		t.mu.Unlock()
	}
	t.ch <- v
}
`}},
		},
		{
			name: "goroutine body does not inherit the critical section",
			pkgs: map[string]map[string]string{
				"example.com/tr": {"tr.go": `package tr

import "sync"

type T struct {
	mu sync.Mutex
	ch chan int
}

func (t *T) Async(v int) {
	t.mu.Lock()
	go func() { t.ch <- v }()
	t.mu.Unlock()
}
`}},
		},
		{
			name: "time.Sleep and net dial under RWMutex read lock fire",
			pkgs: map[string]map[string]string{
				"example.com/tr": {"tr.go": `package tr

import (
	"net"
	"sync"
	"time"
)

type T struct {
	mu sync.RWMutex
}

func (t *T) Slow() {
	t.mu.RLock()
	time.Sleep(time.Millisecond)
	_, _ = net.Dial("tcp", "127.0.0.1:1")
	t.mu.RUnlock()
}
`}},
			want: []struct {
				line int
				rule string
				msg  string
			}{
				{15, "lockedblocking", "time.Sleep while holding t.mu"},
				{16, "lockedblocking", "net.Dial while holding t.mu"},
			},
		},
		{
			name: "conn write and waitgroup wait under lock fire",
			pkgs: map[string]map[string]string{
				"example.com/tr": {"tr.go": `package tr

import (
	"net"
	"sync"
)

type T struct {
	mu   sync.Mutex
	wg   sync.WaitGroup
	conn net.Conn
}

func (t *T) Flush(buf []byte) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.wg.Wait()
	_, err := t.conn.Write(buf)
	return err
}
`}},
			want: []struct {
				line int
				rule string
				msg  string
			}{
				{17, "lockedblocking", "sync wait while holding t.mu"},
				{18, "lockedblocking", "net I/O Write while holding t.mu"},
			},
		},
		{
			name: "range over channel under lock fires",
			pkgs: map[string]map[string]string{
				"example.com/tr": {"tr.go": `package tr

import "sync"

type T struct {
	mu sync.Mutex
	ch chan int
}

func (t *T) Drain() (n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for v := range t.ch {
		n += v
	}
	return n
}
`}},
			want: []struct {
				line int
				rule string
				msg  string
			}{{13, "lockedblocking", "range over channel while holding t.mu"}},
		},
		{
			name: "lock helper methods on non-sync types are not locks",
			pkgs: map[string]map[string]string{
				"example.com/tr": {"tr.go": `package tr

type fakeMu struct{}

func (fakeMu) Lock()   {}
func (fakeMu) Unlock() {}

type T struct {
	mu fakeMu
	ch chan int
}

func (t *T) Push(v int) {
	t.mu.Lock()
	t.ch <- v
	t.mu.Unlock()
}
`}},
		},
		{
			name: "lint ignore with reason suppresses",
			pkgs: map[string]map[string]string{
				"example.com/tr": {"tr.go": `package tr

import "sync"

type T struct {
	mu sync.Mutex
	ch chan int
}

func (t *T) Push(v int) {
	t.mu.Lock()
	t.ch <- v //lint:ignore lockedblocking buffered channel sized to peer count
	t.mu.Unlock()
}
`}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wantFindings(t, runFixture(t, a, tc.pkgs), tc.want)
		})
	}
}

func TestWithLock(t *testing.T) {
	// Fixture node package: WithLock runs its closure inside the critical
	// section; Visit runs it with no lock held.
	nodeSrc := `package node

import "sync"

type Node struct {
	mu sync.Mutex
}

func (n *Node) WithLock(fn func()) {
	n.mu.Lock()
	defer n.mu.Unlock()
	fn()
}

func (n *Node) Visit(fn func()) {
	fn()
}
`
	a := NewLockedBlocking()

	withUser := func(src string) map[string]map[string]string {
		return map[string]map[string]string{
			"example.com/node": {"node.go": nodeSrc},
			"example.com/user": {"user.go": src},
		}
	}

	cases := []struct {
		name string
		pkgs map[string]map[string]string
		want []struct {
			line int
			rule string
			msg  string
		}
	}{
		{
			name: "blocking send in a closure handed to a cross-package lock helper fires",
			pkgs: withUser(`package user

import "example.com/node"

func Flush(n *node.Node, ch chan int) {
	n.WithLock(func() {
		ch <- 1
	})
}
`),
			want: []struct {
				line int
				rule string
				msg  string
			}{{7, "lockedblocking", "channel send while holding n.mu"}},
		},
		{
			name: "same-package helper is summarized too",
			pkgs: map[string]map[string]string{
				"example.com/node": {"node.go": nodeSrc, "bad.go": `package node

import "time"

func (n *Node) Tick() {
	n.WithLock(func() {
		time.Sleep(1)
	})
}
`},
			},
			want: []struct {
				line int
				rule string
				msg  string
			}{{7, "lockedblocking", "(lock held by the wrapping helper)"}},
		},
		{
			name: "lock-free helper and non-blocking closure bodies are silent",
			pkgs: withUser(`package user

import "example.com/node"

func Fine(n *node.Node, ch chan int) int {
	n.Visit(func() {
		ch <- 1
	})
	total := 0
	n.WithLock(func() {
		total++
		select {
		case ch <- total:
		default:
		}
	})
	return total
}
`),
		},
		{
			name: "lint ignore with reason suppresses",
			pkgs: withUser(`package user

import "example.com/node"

func Waived(n *node.Node, ch chan int) {
	n.WithLock(func() {
		//lint:ignore lockedblocking channel buffered to the worker count, send cannot block
		ch <- 1
	})
}
`),
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wantFindings(t, runFixture(t, a, tc.pkgs), tc.want)
		})
	}
}

// The helper-lock facts live in the lock graph lockorder keeps, recorded by
// one export walk per package whichever lock rule runs; the walk also
// replays closures handed to helpers, so a helper that forwards its own
// parameter into another helper's closure counts as lock-wrapping too.
func TestLockedBlockingSharesLockGraph(t *testing.T) {
	pkgs := map[string]map[string]string{
		"example.com/node": {"node.go": `package node

import "sync"

type Node struct {
	mu sync.Mutex
}

func (n *Node) WithLock(fn func()) {
	n.mu.Lock()
	defer n.mu.Unlock()
	fn()
}

func (n *Node) Guarded(fn func()) {
	n.WithLock(func() { fn() })
}
`},
		"example.com/user": {"user.go": `package user

import "example.com/node"

func Flush(n *node.Node, ch chan int) {
	n.WithLock(func() {
		ch <- 1
	})
	n.Guarded(func() {
		ch <- 2
	})
}
`},
	}
	want := []struct {
		line int
		rule string
		msg  string
	}{
		{7, "lockedblocking", "channel send while holding n.mu"},
		{10, "lockedblocking", "channel send while holding example.com/node.Node.mu"},
	}
	t.Run("alone", func(t *testing.T) {
		wantFindings(t, runFixture(t, NewLockedBlocking(), pkgs), want)
	})
	t.Run("with lockorder", func(t *testing.T) {
		loaded := loadFixture(t, pkgs)
		all := make([]*Package, 0, len(loaded))
		for _, p := range loaded {
			all = append(all, p)
		}
		wantFindings(t, Run(all, []Analyzer{NewLockOrder(), NewLockedBlocking()}), want)
	})
}
