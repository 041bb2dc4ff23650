package coord

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"github.com/synergy-ft/synergy/internal/msg"
)

// censusGolden pins the count of each known defect, one row per seed. A
// count that moves, up or down, fails TestP1Census until the row is re-pinned
// here and the re-pin is recorded in CHANGES.md, so every change in a
// defect's reach is on purpose.
const censusGolden = "testdata/census.golden"

// p1Seeds are the rebootConfig seeds on which exactly one stable write was
// aborted before the takeover; the rest of seeds 1–40 read no violation.
var p1Seeds = []int64{6, 10, 26, 30, 38, 39}

// p1Census counts, for one seed, the points at which a hardware fault right
// after a software takeover restores a line that loses messages. The run
// reaches 0.5 s, activates the software fault and steps the engine until the
// shadow has taken over; then, for k = 0, 29, …, 2 987 further steps, a
// fresh run injects a hardware fault at P2 or at P1sdw and checks the line it
// restores. It returns the violating points, all points, and the first
// violation seen.
func p1Census(t *testing.T, seed int64) (violating, points int, first string) {
	t.Helper()
	for k := 0; k < 3000; k += 29 {
		for _, victim := range []msg.ProcID{msg.P2, msg.P1Sdw} {
			s := newSystem(t, rebootConfig(seed))
			s.Start()
			s.RunFor(0.5)
			s.ActivateSoftwareFault()
			for s.ActiveC1() != msg.P1Sdw {
				if !s.Engine().Step() {
					t.Fatalf("seed %d: the engine ran dry before the shadow took over", seed)
				}
			}
			for i := 0; i < k; i++ {
				s.Engine().Step()
			}
			if err := s.InjectHardwareFault(msg.NodeID(victim)); err != nil {
				t.Fatalf("seed %d k %d victim %v: %v", seed, k, victim, err)
			}
			line, err := s.RecoveryLine()
			if err != nil {
				t.Fatalf("seed %d k %d victim %v: %v", seed, k, victim, err)
			}
			points++
			if vs, _ := line.CheckDetailed(); len(vs) > 0 {
				violating++
				if first == "" {
					first = fmt.Sprintf("seed %d k %d victim %v: %d violation(s), first %v", seed, k, victim, len(vs), vs[0])
				}
			}
		}
	}
	return violating, points, first
}

// TestP1Census is the census row of ROADMAP probe P1: a restore after a
// takeover loses messages on every seed where exactly one stable write was
// aborted. The row reads its pinned count until the defect is mended. The
// simulator is single-threaded, so the race detector has nothing to find
// here: under it only the first seed runs, against its own row.
func TestP1Census(t *testing.T) {
	want := readCensus(t, "P1")
	seeds := p1Seeds
	if raceEnabled {
		seeds = seeds[:1]
	}
	var total, totalPoints int
	for _, seed := range seeds {
		violating, points, first := p1Census(t, seed)
		total += violating
		totalPoints += points
		if first != "" {
			t.Logf("first violation: %s", first)
		}
		w, ok := want[seed]
		if !ok {
			t.Errorf("seed %d: no P1 row in %s", seed, censusGolden)
			continue
		}
		if violating != w[0] || points != w[1] {
			t.Errorf("seed %d: %d of %d points violate, %s pins %d of %d; re-pin the row and record it in CHANGES.md (first violation: %s)",
				seed, violating, points, censusGolden, w[0], w[1], first)
		}
	}
	t.Logf("P1: %d of %d points violate over seeds %v", total, totalPoints, seeds)
}

// readCensus returns the rows of one defect in the census golden: seed →
// {violating points, points}. A row reads "<defect> <seed> <violating>
// <points>"; lines starting with # are comments.
func readCensus(t *testing.T, defect string) map[int64][2]int {
	t.Helper()
	f, err := os.Open(censusGolden)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows := make(map[int64][2]int)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 || strings.HasPrefix(fields[0], "#") || fields[0] != defect {
			continue
		}
		if len(fields) != 4 {
			t.Fatalf("%s: malformed row %q", censusGolden, sc.Text())
		}
		var nums [3]int64
		for i := range nums {
			if nums[i], err = strconv.ParseInt(fields[i+1], 10, 64); err != nil {
				t.Fatalf("%s: malformed row %q: %v", censusGolden, sc.Text(), err)
			}
		}
		rows[nums[0]] = [2]int{int(nums[1]), int(nums[2])}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return rows
}
