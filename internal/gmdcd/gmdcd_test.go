package gmdcd

import (
	"testing"

	"github.com/synergy-ft/synergy/internal/at"
)

// chainTopology builds C1 → C2 → … → Cn (each sends to the next; the last
// sends back to the first so influence circulates), with the given guarded
// set.
func chainTopology(n int, guarded map[int]bool, test at.Test) Topology {
	topo := Topology{Test: test}
	for i := 1; i <= n; i++ {
		peer := ComponentID(i%n + 1)
		topo.Components = append(topo.Components, ComponentSpec{
			ID:           ComponentID(i),
			Guarded:      guarded[i],
			Peers:        []ComponentID{peer},
			InternalRate: 2,
			ExternalRate: 0.5,
		})
	}
	return topo
}

func TestTopologyValidate(t *testing.T) {
	ok := chainTopology(3, map[int]bool{1: true}, at.Perfect())
	tests := []struct {
		name    string
		mutate  func(*Topology)
		wantErr bool
	}{
		{name: "ok", mutate: func(*Topology) {}},
		{name: "too few", mutate: func(tp *Topology) { tp.Components = tp.Components[:1] }, wantErr: true},
		{name: "nil test", mutate: func(tp *Topology) { tp.Test = nil }, wantErr: true},
		{name: "duplicate id", mutate: func(tp *Topology) { tp.Components[1].ID = 1 }, wantErr: true},
		{name: "unknown peer", mutate: func(tp *Topology) { tp.Components[0].Peers = []ComponentID{9} }, wantErr: true},
		{name: "self peer", mutate: func(tp *Topology) { tp.Components[0].Peers = []ComponentID{1} }, wantErr: true},
		{name: "no guarded", mutate: func(tp *Topology) { tp.Components[0].Guarded = false }, wantErr: true},
		{name: "negative rate", mutate: func(tp *Topology) { tp.Components[2].InternalRate = -1 }, wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			topo := chainTopology(3, map[int]bool{1: true}, at.Perfect())
			tt.mutate(&topo)
			err := topo.Validate()
			if (err != nil) != tt.wantErr {
				t.Fatalf("Validate = %v, wantErr=%v", err, tt.wantErr)
			}
		})
	}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
}
