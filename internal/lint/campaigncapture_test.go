package lint

import "testing"

func TestCampaignCapture(t *testing.T) {
	// Fixture campaign package: the fan-out entry point and its Cell.
	campaignSrc := `package campaign

type Cell struct {
	Index int
	Seed  uint64
}

func Run(cells, workers int, fn func(Cell) (int, error)) ([]int, error) {
	out := make([]int, cells)
	for i := range out {
		v, err := fn(Cell{Index: i})
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}
`
	a := &CampaignCapture{
		Pkg:   "example.com/campaign",
		Funcs: map[string]bool{"Run": true},
	}

	withUser := func(src string) map[string]map[string]string {
		return map[string]map[string]string{
			"example.com/campaign": {"campaign.go": campaignSrc},
			"example.com/user":     {"user.go": src},
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
			name: "write to a captured variable fires",
			pkgs: withUser(`package user

import "example.com/campaign"

func Total(n int) int {
	total := 0
	campaign.Run(n, 4, func(c campaign.Cell) (int, error) {
		total += c.Index
		return 0, nil
	})
	return total
}
`),
			want: []struct {
				line int
				rule string
				msg  string
			}{{8, "campaigncapture", `writes captured variable "total"`}},
		},
		{
			// The same shape internal/campaign's edge-case test demonstrates
			// at runtime: a mutex-guarded append is race-detector-clean, yet
			// the slice's final order still depends on which cell finished
			// first. The analyzer must flag it anyway.
			name: "mutex-guarded append to a captured slice still fires",
			pkgs: withUser(`package user

import (
	"sync"

	"example.com/campaign"
)

func Order(n int) []int {
	var mu sync.Mutex
	order := make([]int, 0, n)
	campaign.Run(n, 2, func(c campaign.Cell) (int, error) {
		mu.Lock()
		order = append(order, c.Index)
		mu.Unlock()
		return c.Index, nil
	})
	return order
}
`),
			want: []struct {
				line int
				rule string
				msg  string
			}{{14, "campaigncapture", `writes captured variable "order"`}},
		},
		{
			name: "captured slice written at a non-Cell-derived index fires",
			pkgs: withUser(`package user

import "example.com/campaign"

func Slots(n int) []int {
	out := make([]int, n)
	next := 0
	campaign.Run(n, 4, func(c campaign.Cell) (int, error) {
		out[next] = c.Index
		return 0, nil
	})
	return out
}
`),
			want: []struct {
				line int
				rule string
				msg  string
			}{{9, "campaigncapture", `writes captured "out" at an index not derived from its Cell.Index`}},
		},
		{
			name: "captured pointer is shared mutable state even without a write",
			pkgs: withUser(`package user

import "example.com/campaign"

func Count(n int, hits *int) {
	campaign.Run(n, 4, func(c campaign.Cell) (int, error) {
		return *hits, nil
	})
}
`),
			want: []struct {
				line int
				rule string
				msg  string
			}{{7, "campaigncapture", `captures pointer "hits"`}},
		},
		{
			name: "per-cell slots, read-only parameters and captured funcs are silent",
			pkgs: withUser(`package user

import "example.com/campaign"

func Fine(rates []int, body func(int) int, n int) []int {
	slots := make([]int, n)
	campaign.Run(n, 2, func(c campaign.Cell) (int, error) {
		i := c.Index
		slots[i] = body(rates[i%len(rates)])
		return slots[i], nil
	})
	return slots
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
