package benchmark

import "sort"

// Span is one timed interval at a layer boundary. Times are nanoseconds on
// the run's clock; Parent is the ID of the span that caused this one (0 for
// a root); Ref identifies the message, round or recovery the span belongs
// to, so the spans of one of them can be read together.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Ref    string `json:"ref,omitempty"`
}

// Spans collects spans in memory; the driver writes them out when the run
// ends. The zero value is ready to use. It is not safe for concurrent use.
type Spans struct {
	list []Span
}

// Add records a span and returns its ID.
func (s *Spans) Add(name string, parent int, start, end int64, ref string) int {
	id := len(s.list) + 1
	s.list = append(s.list, Span{ID: id, Parent: parent, Name: name, Start: start, End: end, Ref: ref})
	return id
}

// SetEnd closes a span opened with a provisional end, once its children have
// run and its real end is known.
func (s *Spans) SetEnd(id int, end int64) { s.list[id-1].End = end }

// List returns the recorded spans in recording order.
func (s *Spans) List() []Span { return s.list }

// SelfTime is the time a span name spent outside its children.
type SelfTime struct {
	Name   string  `json:"name"`
	Count  int     `json:"count"`
	Total  float64 `json:"total_ms"`
	SelfMs float64 `json:"self_ms"`
}

// SelfTimes sums, per span name, the spans' durations and their self time: a
// span's duration minus the part of its interval its child spans cover
// (overlapping children are counted once, and only inside the parent).
func SelfTimes(spans []Span) []SelfTime {
	children := make(map[int][]Span)
	for _, sp := range spans {
		if sp.Parent != 0 {
			children[sp.Parent] = append(children[sp.Parent], sp)
		}
	}
	byName := make(map[string]*SelfTime)
	var names []string
	for _, sp := range spans {
		st := byName[sp.Name]
		if st == nil {
			st = &SelfTime{Name: sp.Name}
			byName[sp.Name] = st
			names = append(names, sp.Name)
		}
		dur := sp.End - sp.Start
		st.Count++
		st.Total += float64(dur) / 1e6
		st.SelfMs += float64(dur-covered(sp, children[sp.ID])) / 1e6
	}
	sort.Strings(names)
	out := make([]SelfTime, len(names))
	for i, n := range names {
		out[i] = *byName[n]
	}
	return out
}

// covered returns how much of parent's interval the child intervals cover.
func covered(parent Span, kids []Span) int64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	edge := parent.Start
	for _, k := range kids {
		start, end := k.Start, k.End
		if start < edge {
			start = edge
		}
		if end > parent.End {
			end = parent.End
		}
		if end > start {
			total += end - start
			edge = end
		}
	}
	return total
}
