package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"
)

// This file is the subsystem's export surface: the Prometheus text
// exposition format (what `curl /metrics` returns during a soak), a JSON
// rendering of the same snapshot (what a failed scenario leaves as its
// metrics artifact), and an HTTP server that also mounts net/http/pprof — so
// one metrics address buys both scraping and live profiling.

// WritePrometheus renders the registry's snapshot in the Prometheus text
// exposition format (version 0.0.4). A nil registry writes nothing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	return writeProm(w, r.Snapshot())
}

func writeProm(w io.Writer, s Snapshot) error {
	for _, f := range s.Families {
		if f.Help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.Name, f.Help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.Name, f.Kind); err != nil {
			return err
		}
		for _, ss := range f.Series {
			if f.Kind == kindHistogram {
				if err := writePromHistogram(w, f.Name, ss); err != nil {
					return err
				}
				continue
			}
			if _, err := fmt.Fprintf(w, "%s%s %s\n", f.Name, promLabels(ss.Labels), formatValue(ss.Value)); err != nil {
				return err
			}
		}
	}
	return nil
}

func writePromHistogram(w io.Writer, name string, ss SeriesSnapshot) error {
	for _, b := range ss.Buckets {
		le := "+Inf"
		if !math.IsInf(b.UpperBound, 1) {
			le = formatValue(b.UpperBound)
		}
		labels := ss.Labels
		if labels != "" {
			labels += ","
		}
		labels += `le="` + le + `"`
		if _, err := fmt.Fprintf(w, "%s_bucket{%s} %d\n", name, labels, b.Count); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, promLabels(ss.Labels), formatValue(ss.Sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, promLabels(ss.Labels), ss.Count)
	return err
}

// promLabels wraps a canonical label string in braces (empty stays empty).
func promLabels(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}

// formatValue renders a float the way Prometheus clients expect: integers
// without an exponent, everything else in shortest-roundtrip form.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// jsonSnapshot is the JSON exporter's schema: the snapshot plus the scrape
// timestamp (the one wall-clock read the detflow sanitizer entry for this
// package exists for, besides latency timers).
type jsonSnapshot struct {
	ScrapedAt time.Time    `json:"scraped_at"`
	Families  []jsonFamily `json:"families"`
}

type jsonFamily struct {
	Name   string       `json:"name"`
	Help   string       `json:"help,omitempty"`
	Kind   string       `json:"kind"`
	Series []jsonSeries `json:"series"`
}

type jsonSeries struct {
	Labels  string       `json:"labels,omitempty"`
	Value   *float64     `json:"value,omitempty"`
	Buckets []jsonBucket `json:"buckets,omitempty"`
	Sum     *float64     `json:"sum,omitempty"`
	Count   *uint64      `json:"count,omitempty"`
}

type jsonBucket struct {
	LE    string `json:"le"`
	Count uint64 `json:"count"`
}

// WriteJSON renders the registry's snapshot as indented JSON with a scrape
// timestamp. A nil registry writes an empty snapshot.
func (r *Registry) WriteJSON(w io.Writer) error {
	return r.Snapshot().WriteJSON(w)
}

// WriteJSON renders a snapshot already taken — a finished run's final
// reading — in the same shape; the timestamp is the time of writing.
func (s Snapshot) WriteJSON(w io.Writer) error {
	out := jsonSnapshot{ScrapedAt: time.Now().UTC(), Families: make([]jsonFamily, 0, len(s.Families))}
	for _, f := range s.Families {
		jf := jsonFamily{Name: f.Name, Help: f.Help, Kind: f.Kind}
		for _, ss := range f.Series {
			js := jsonSeries{Labels: ss.Labels}
			if f.Kind == kindHistogram {
				sum, count := ss.Sum, ss.Count
				js.Sum, js.Count = &sum, &count
				for _, b := range ss.Buckets {
					le := "+Inf"
					if !math.IsInf(b.UpperBound, 1) {
						le = formatValue(b.UpperBound)
					}
					js.Buckets = append(js.Buckets, jsonBucket{LE: le, Count: b.Count})
				}
			} else {
				v := ss.Value
				js.Value = &v
			}
			jf.Series = append(jf.Series, js)
		}
		out.Families = append(out.Families, jf)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// Handler returns the subsystem's HTTP mux: the Prometheus exposition at
// /metrics, the JSON snapshot at /metrics.json, and the net/http/pprof
// endpoints under /debug/pprof/ — profiling belongs to the same
// observability address.
func (r *Registry) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = r.WriteJSON(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Server serves a registry's Handler on a TCP address.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// NewServer listens on addr (e.g. "127.0.0.1:0") and serves the registry's
// metrics and pprof endpoints until Close. The returned server is already
// accepting; Addr reports the bound address (useful with port 0).
func NewServer(addr string, r *Registry) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	s := &Server{ln: ln, srv: &http.Server{Handler: r.Handler()}}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// Addr returns the server's bound address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server. Idempotent.
func (s *Server) Close() error { return s.srv.Close() }
