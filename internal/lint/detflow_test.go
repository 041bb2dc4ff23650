package lint

import "testing"

// fixtureDetFlow returns a DetFlow wired for fixture package paths instead of
// the real module's.
func fixtureDetFlow(protected ...string) *DetFlow {
	p := make(map[string]bool, len(protected))
	for _, path := range protected {
		p[path] = true
	}
	return &DetFlow{
		Protected:        p,
		SanitizerPkgs:    map[string]bool{},
		SanitizerFuncs:   map[string]bool{},
		TimeFuncs:        map[string]bool{"Now": true, "Since": true},
		RandConstructors: map[string]bool{"New": true, "NewSource": true},
	}
}

// Three call hops from time.Now to a protected result path, across three
// packages: the finding lands where the taint enters the protected zone and
// names the root source.
func TestDetFlowThreeHopClockLeak(t *testing.T) {
	got := runFixture(t, fixtureDetFlow("example.com/campaign"), map[string]map[string]string{
		"example.com/clockutil": {"clockutil.go": `package clockutil

import "time"

func Stamp() int64 { return time.Now().UnixNano() }
`},
		"example.com/mid": {"mid.go": `package mid

import "example.com/clockutil"

func Label() int64 { return clockutil.Stamp() }
`},
		"example.com/campaign": {"campaign.go": `package campaign

import "example.com/mid"

func Result() int64 {
	return mid.Label()
}
`},
	})
	wantFindings(t, got, []struct {
		line int
		rule string
		msg  string
	}{{6, "detflow", "wall clock"}})
}

func TestDetFlowUnsortedMapRange(t *testing.T) {
	got := runFixture(t, fixtureDetFlow("example.com/campaign"), map[string]map[string]string{
		"example.com/campaign": {"campaign.go": `package campaign

func Total(samples map[string]int64) int64 {
	var total int64
	for _, v := range samples {
		total += v
	}
	return total
}
`},
	})
	wantFindings(t, got, []struct {
		line int
		rule string
		msg  string
	}{{5, "detflow", "map iteration order"}})
}

// A sort call in the ranging function is the canonical sanitizer for
// map-iteration order; injected inputs are clean by construction.
func TestDetFlowSortedRangeIsClean(t *testing.T) {
	got := runFixture(t, fixtureDetFlow("example.com/campaign"), map[string]map[string]string{
		"example.com/campaign": {"campaign.go": `package campaign

import "sort"

func Keys(samples map[string]int64) []string {
	keys := make([]string, 0, len(samples))
	for k := range samples {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
`},
	})
	wantFindings(t, got, nil)
}

// A taint cascade inside the protected zone collapses to its entry point:
// the wrapper calling an already-reported protected function stays silent.
func TestDetFlowCascadeCollapsesToEntryPoint(t *testing.T) {
	got := runFixture(t, fixtureDetFlow("example.com/campaign"), map[string]map[string]string{
		"example.com/campaign": {"campaign.go": `package campaign

import "time"

func entry() int64 {
	return time.Now().UnixNano()
}

func Wrapper() int64 {
	return entry()
}
`},
	})
	wantFindings(t, got, []struct {
		line int
		rule string
		msg  string
	}{{6, "detflow", "wall clock"}})
}

// A sanitizer package stops propagation even when its body reads the clock.
func TestDetFlowSanitizerPackageTrusted(t *testing.T) {
	a := fixtureDetFlow("example.com/campaign")
	a.SanitizerPkgs["example.com/clockutil"] = true
	got := runFixture(t, a, map[string]map[string]string{
		"example.com/clockutil": {"clockutil.go": `package clockutil

import "time"

func Stamp() int64 { return time.Now().UnixNano() }
`},
		"example.com/campaign": {"campaign.go": `package campaign

import "example.com/clockutil"

func Result() int64 {
	return clockutil.Stamp()
}
`},
	})
	wantFindings(t, got, nil)
}
