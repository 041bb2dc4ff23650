package lint

import "testing"

// The stale-ignore audit: a //lint:ignore that suppresses nothing is itself
// a finding, but only when the rule it names actually ran — a directive for
// a registered analyzer outside the run set might still be earning its keep.
// A directive naming no registered rule at all can never earn it.
func TestStaleIgnoreAudit(t *testing.T) {
	a := &WallClock{
		Allowed: map[string]bool{},
		Funcs:   map[string]bool{"Now": true},
	}
	t.Run("unused directive for an active rule is flagged", func(t *testing.T) {
		got := runFixture(t, a, map[string]map[string]string{
			"example.com/det": {"det.go": `package det

func Pure() int {
	return 1 //lint:ignore wallclock the call this excused was removed
}
`}})
		wantFindings(t, got, []struct {
			line int
			rule string
			msg  string
		}{{4, "staleignore", "suppresses no finding"}})
	})
	t.Run("directive for an inactive rule is left alone", func(t *testing.T) {
		got := runFixture(t, a, map[string]map[string]string{
			"example.com/det": {"det.go": `package det

func Pure() int {
	return 1 //lint:ignore globalrand that rule is not in this run
}
`}})
		wantFindings(t, got, nil)
	})
	t.Run("directive naming an unregistered rule is reported", func(t *testing.T) {
		got := runFixture(t, a, map[string]map[string]string{
			"example.com/det": {"det.go": `package det

func Pure() int {
	//lint:ignore nosuchrule a typo suppresses nothing
	return 1 //lint:ignore withlock retired rules suppress nothing either
}
`}})
		wantFindings(t, got, []struct {
			line int
			rule string
			msg  string
		}{{4, "lint-directive", "nosuchrule names no registered rule"}, {5, "lint-directive", "withlock names no registered rule"}})
	})
	t.Run("a directive that suppresses is not stale", func(t *testing.T) {
		got := runFixture(t, a, map[string]map[string]string{
			"example.com/det": {"det.go": `package det

import "time"

func Stamp() int64 {
	return time.Now().UnixNano() //lint:ignore wallclock boot banner only
}
`}})
		wantFindings(t, got, nil)
	})
	t.Run("standalone stale directive reports at its own line", func(t *testing.T) {
		got := runFixture(t, a, map[string]map[string]string{
			"example.com/det": {"det.go": `package det

func Pure() int {
	//lint:ignore wallclock nothing below draws the clock anymore
	return 1
}
`}})
		wantFindings(t, got, []struct {
			line int
			rule string
			msg  string
		}{{4, "staleignore", "suppresses no finding"}})
	})
}
