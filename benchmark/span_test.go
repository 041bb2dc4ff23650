package benchmark

import "testing"

func TestSelfTimeIsDurationMinusChildCoverage(t *testing.T) {
	var s Spans
	root := s.Add("recover", 0, 0, 100e6, "r1")
	s.Add("kill", root, 0, 10e6, "r1")
	// Two overlapping children cover 40..80 once, not twice.
	s.Add("restore", root, 40e6, 70e6, "r1")
	s.Add("restore", root, 60e6, 80e6, "r1")
	// A child sticking out of its parent counts only for the part inside.
	s.Add("resend", root, 95e6, 130e6, "r1")
	other := s.Add("recover", 0, 200e6, 220e6, "r2") // no children: all self
	if other != 6 {
		t.Fatalf("span ids are not sequential: %d", other)
	}

	got := map[string]SelfTime{}
	for _, st := range SelfTimes(s.List()) {
		got[st.Name] = st
	}
	// recover: 100 − (10 + 40 + 5) = 45 ms, plus 20 ms for the second.
	if r := got["recover"]; r.Count != 2 || r.Total != 120 || r.SelfMs != 65 {
		t.Errorf("recover = %+v, want count 2, total 120, self 65", r)
	}
	if r := got["restore"]; r.Count != 2 || r.Total != 50 || r.SelfMs != 50 {
		t.Errorf("restore = %+v, want count 2, total 50, self 50", r)
	}
	if r := got["resend"]; r.SelfMs != 35 {
		t.Errorf("resend self = %g, want its full 35 ms", r.SelfMs)
	}
}

func TestSetEnd(t *testing.T) {
	var s Spans
	id := s.Add("pass", 0, 5, 5, "")
	s.Add("step", id, 5, 9, "")
	s.SetEnd(id, 12)
	if sp := s.List()[0]; sp.End != 12 {
		t.Errorf("End = %d, want 12", sp.End)
	}
}
