//go:build !race

package cluster

import (
	"slices"
	"testing"
	"time"

	"github.com/synergy-ft/synergy/internal/chaos"
)

// The simulator runs on one goroutine, so the race detector has nothing to
// watch here and would only multiply a hundred seeds' run time by eight.

// TestSettledValidVectorsAgree is the cluster's oracle for the gossip layer:
// whatever dissemination drops, duplicates, delays or — on a member that
// already holds a newer vector from the same origin — never delivers, once
// the workload stops and the cluster settles every live node must hold the
// same valid vector, the max-merge of every validation anyone broadcast. One
// seed in four runs the 100-node ring instead of the 10-node one.
func TestSettledValidVectorsAgree(t *testing.T) {
	ch := chaos.Spec{Drop: 0.02, Duplicate: 0.02, MaxExtraDelay: time.Millisecond}
	for seed := int64(1); seed <= 100; seed++ {
		cfg := specConfig(seed, 7, 3, 120, 60, ch)
		if seed%4 == 0 {
			cfg = specConfig(seed, 70, 30, 50, 5, ch)
		}
		s, err := NewSim(cfg)
		if err != nil {
			t.Fatalf("NewSim: %v", err)
		}
		s.Start()
		s.RunFor(time.Second)
		s.Settle()
		s.Stop()
		var first *cnode
		for _, id := range s.asg.Nodes {
			n := s.nodes[id]
			if n.failed.Load() {
				continue
			}
			if first == nil {
				first = n
			} else if !slices.Equal(n.valid, first.valid) {
				t.Fatalf("seed %d: node %d settled with valid %v, node %d with %v", seed, n.id, n.valid, first.id, first.valid)
			}
		}
		if st := s.Stats(); st.ATsPassed == 0 || slices.Max(first.valid) == 0 {
			t.Fatalf("seed %d: nothing validated (%d ATs passed)", seed, st.ATsPassed)
		}
	}
}
