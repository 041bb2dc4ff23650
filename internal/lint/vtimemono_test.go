package lint

import "testing"

func TestVTimeMono(t *testing.T) {
	// Fixture virtual-time package; exempt from the arithmetic rules (it is
	// the one place instant/duration algebra lives).
	vtSrc := `package vt

type Time int64

func (t Time) Add(d int64) Time  { return t + Time(d) }
func (t Time) Before(o Time) bool { return t < o }
`
	// Fixture engine: now is a protected clock, advanced only by Step.
	engSrc := `package eng

import "example.com/vt"

type Engine struct{ now vt.Time }

func (e *Engine) Step(t vt.Time) {
	if e.now.Before(t) {
		e.now = t
	}
}

func (e *Engine) Now() vt.Time { return e.now }
`
	// Fixture seam: per-pair high-waters in rows made on first use, written
	// two index levels below the protected field.
	seamSrc := `package sm

import "example.com/vt"

type Sim struct{ lastArrival [4]*[4]vt.Time }

func (r *Sim) Deliver(from, to int, at vt.Time) {
	if r.lastArrival[to] == nil {
		r.lastArrival[to] = new([4]vt.Time)
	}
	r.lastArrival[to][from] = at + 1
	(*r.lastArrival[to])[from] = at + 1
}
`
	a := &VTimeMono{
		TimePkg: "example.com/vt",
		Clocks: []DirtyBitRule{
			{Pkg: "example.com/eng", Type: "Engine", Field: "now",
				Writers: map[string]bool{"example.com/eng.Step": true}},
			{Pkg: "example.com/sm", Type: "Sim", Field: "lastArrival",
				Writers: map[string]bool{"example.com/sm.Deliver": true}},
		},
	}

	withUser := func(src string) map[string]map[string]string {
		return map[string]map[string]string{
			"example.com/vt":   {"vt.go": vtSrc},
			"example.com/eng":  {"eng.go": engSrc},
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
			name: "decrement, subtract-assign and negative Add fire",
			pkgs: withUser(`package user

import "example.com/vt"

func Rewind(t vt.Time) vt.Time {
	t--
	t -= 5
	return t.Add(-10)
}
`),
			want: []struct {
				line int
				rule string
				msg  string
			}{
				{6, "vtimemono", "decrement"},
				{7, "vtimemono", "subtract-assignment"},
				{8, "vtimemono", "negative constant"},
			},
		},
		{
			name: "subtraction yielding an instant fires; converting it away does not",
			pkgs: withUser(`package user

import "example.com/vt"

func Span(a, b vt.Time) (vt.Time, int64) {
	earlier := a - b
	elapsed := int64(a - b)
	return earlier, elapsed
}
`),
			want: []struct {
				line int
				rule string
				msg  string
			}{{6, "vtimemono", "earlier clock value"}},
		},
		{
			name: "protected clock written outside its advance path fires",
			pkgs: map[string]map[string]string{
				"example.com/vt": {"vt.go": vtSrc},
				"example.com/eng": {"eng.go": engSrc, "bad.go": `package eng

import "example.com/vt"

func (e *Engine) Reset(t vt.Time) {
	e.now = t
}
`},
			},
			want: []struct {
				line int
				rule string
				msg  string
			}{{6, "vtimemono", "eng.Engine.now"}},
		},
		{
			name: "a row written two index levels down inside its writer is silent",
			pkgs: map[string]map[string]string{
				"example.com/vt": {"vt.go": vtSrc},
				"example.com/sm": {"sm.go": seamSrc},
			},
		},
		{
			name: "a row written two index levels down outside its writer fires",
			pkgs: map[string]map[string]string{
				"example.com/vt": {"vt.go": vtSrc},
				"example.com/sm": {"sm.go": seamSrc, "bad.go": `package sm

func (r *Sim) Reset() {
	r.lastArrival[1][2] = 0
	(*r.lastArrival[3])[0] = 0
}
`},
			},
			want: []struct {
				line int
				rule string
				msg  string
			}{
				{4, "vtimemono", "sm.Sim.lastArrival"},
				{5, "vtimemono", "sm.Sim.lastArrival"},
			},
		},
		{
			name: "forward arithmetic and the allowed writer are silent",
			pkgs: withUser(`package user

import "example.com/vt"

func Advance(t vt.Time) vt.Time {
	t++
	return t.Add(10)
}
`),
		},
		{
			name: "lint ignore with reason suppresses",
			pkgs: withUser(`package user

import "example.com/vt"

func Replay(t vt.Time) vt.Time {
	//lint:ignore vtimemono deterministic replay rewinds the cursor on purpose
	t--
	return t
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
