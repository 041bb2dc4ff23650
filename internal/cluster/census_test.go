package cluster

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"
)

// censusGolden pins the count of each known defect of the N-node runtime,
// one row per seed. A count that moves, up or down, fails its census test
// until the row is re-pinned here and the re-pin is recorded in CHANGES.md.
const censusGolden = "testdata/census.golden"

// p6Census samples one seed's chaos-free 10-node ring every 17 ms, 54 times,
// and counts the samples whose recovery line holds only because the
// dedup-aware rule absorbed a gap, and the gaps absorbed over all samples. A
// sample whose line violates is counted apart, and the first is returned.
func p6Census(t *testing.T, seed int64) (absorbedOnly, gaps, violating int, first string) {
	t.Helper()
	s, err := NewSim(ringConfig(7, 3, seed, 120, 60))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	s.Start()
	for i := 0; i < 54; i++ {
		s.RunFor(17 * time.Millisecond)
		round, violations, absorbed, err := s.CheckInvariants()
		if err != nil {
			continue // no common committed round yet
		}
		gaps += len(absorbed)
		switch {
		case len(violations) > 0:
			violating++
			if first == "" {
				first = fmt.Sprintf("seed %d sample %d round %d: %d violation(s), first %v", seed, i, round, len(violations), violations[0])
			}
		case len(absorbed) > 0:
			absorbedOnly++
		}
	}
	return absorbedOnly, gaps, violating, first
}

// TestP6ClusterCensus is the cluster row of ROADMAP probe P6: cnode.ingest
// acknowledges a message at once, even while the node is dirty, so the line
// sampler finds gaps it can only call absorbed. The row reads its pinned
// count until that is mended; a line that violates fails it outright.
func TestP6ClusterCensus(t *testing.T) {
	want := readCensus(t, "P6")
	var total, totalGaps int
	for seed := int64(1); seed <= 10; seed++ {
		absorbedOnly, gaps, violating, first := p6Census(t, seed)
		total += absorbedOnly
		totalGaps += gaps
		if violating > 0 {
			t.Errorf("seed %d: %d of 54 samples violate (first violation: %s)", seed, violating, first)
		}
		w, ok := want[seed]
		if !ok {
			t.Errorf("seed %d: no P6 row in %s", seed, censusGolden)
			continue
		}
		if absorbedOnly != w[0] || gaps != w[1] {
			t.Errorf("seed %d: %d of 54 samples pass only through absorbed gaps (%d gaps), %s pins %d (%d gaps); re-pin the row and record it in CHANGES.md",
				seed, absorbedOnly, gaps, censusGolden, w[0], w[1])
		}
	}
	t.Logf("P6: %d of 540 samples pass only through absorbed gaps, %d gaps", total, totalGaps)
}

// readCensus returns the rows of one defect in the census golden: seed →
// its two counts. A row reads "<defect> <seed> <count> <count>"; lines
// starting with # are comments.
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
			var err error
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
