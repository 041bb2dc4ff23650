package synergy

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestQuickstartFlow(t *testing.T) {
	sys, err := NewSimulation(Config{Seed: 1, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	sys.Start()
	sys.RunFor(60)
	if err := sys.InjectHardwareFault(PeerP2); err != nil {
		t.Fatal(err)
	}
	sys.RunFor(60)
	sys.ActivateSoftwareFault()
	sys.RunFor(300)
	sys.Quiesce()

	r := sys.Report()
	if r.Failed != "" {
		t.Fatalf("run failed: %s", r.Failed)
	}
	if r.HardwareFaults != 1 {
		t.Fatalf("HardwareFaults = %d", r.HardwareFaults)
	}
	if r.SoftwareRecoveries != 1 || !r.ShadowPromoted {
		t.Fatalf("software recovery missing: %+v", r)
	}
	if r.MeanRollbackSeconds <= 0 || r.MeanRollbackSeconds > 60 {
		t.Fatalf("MeanRollbackSeconds = %v", r.MeanRollbackSeconds)
	}
	if tl := sys.Timeline(60); !strings.Contains(tl, "P1act") {
		t.Fatalf("timeline missing lanes:\n%s", tl)
	}
}

func TestDefaultsAndOverrides(t *testing.T) {
	sys, err := NewSimulation(Config{
		Seed:               2,
		Scheme:             Coordinated,
		CheckpointInterval: 5 * time.Second,
		InternalRate1:      2,
		ExternalRate1:      0.2,
		ATCoverage:         0.9,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.Start()
	sys.RunFor(40)
	if got := sys.StableRounds(PeerP2); got < 6 {
		t.Fatalf("StableRounds = %d, want ≥6 with Δ=5s over 40s", got)
	}
}

func TestInvariantsCleanOnCoordinated(t *testing.T) {
	sys, err := NewSimulation(Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	sys.Start()
	sys.RunFor(60)
	vs, err := sys.CheckInvariants()
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 0 {
		t.Fatalf("violations: %v", vs)
	}
}

func TestShadowConvergenceAtQuiescence(t *testing.T) {
	sys, err := NewSimulation(Config{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	sys.Start()
	sys.RunFor(50)
	sys.Quiesce()
	if !sys.ShadowConverged() {
		t.Fatal("replicas diverged at quiescence")
	}
}

func TestTimelineWithoutTrace(t *testing.T) {
	sys, err := NewSimulation(Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if got := sys.Timeline(40); !strings.Contains(got, "disabled") {
		t.Fatalf("Timeline without trace = %q", got)
	}
}

func TestUnknownProcessFault(t *testing.T) {
	sys, err := NewSimulation(Config{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.InjectHardwareFault(Process(99)); err == nil {
		t.Fatal("unknown process should error")
	}
}

func TestSchemeAndProcessStrings(t *testing.T) {
	if Coordinated.String() != "coordinated" || WriteThrough.String() != "write-through" {
		t.Fatal("scheme names wrong")
	}
	if ActiveP1.String() != "P1act" || ShadowP1.String() != "P1sdw" || PeerP2.String() != "P2" {
		t.Fatal("process names wrong")
	}
}

func TestExperimentAccess(t *testing.T) {
	ids := Experiments()
	if len(ids) < 10 {
		t.Fatalf("Experiments() = %v", ids)
	}
	r, err := RunExperiment("table1", 1, true)
	if err != nil {
		t.Fatal(err)
	}
	if r.ID != "table1" || !strings.Contains(r.String(), "Blocking period") {
		t.Fatalf("result = %+v", r)
	}
	if _, err := RunExperiment("nope", 1, true); err == nil {
		t.Fatal("unknown experiment should error")
	}
}

func TestMiddlewareFacade(t *testing.T) {
	mw, err := NewMiddleware(MiddlewareConfig{Seed: 7, ExternalRate: 40})
	if err != nil {
		t.Fatal(err)
	}
	mw.Start()
	time.Sleep(300 * time.Millisecond)
	if err := mw.InjectHardwareFault(PeerP2); err != nil {
		t.Fatal(err)
	}
	time.Sleep(150 * time.Millisecond)
	mw.ActivateSoftwareFault()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) && !mw.Report().ShadowPromoted {
		time.Sleep(20 * time.Millisecond)
	}
	mw.Stop()
	r := mw.Report()
	if r.Failed != "" {
		t.Fatalf("middleware failed: %s", r.Failed)
	}
	if r.HardwareFaults != 1 || !r.ShadowPromoted {
		t.Fatalf("report = %+v", r)
	}
	if mw.StableRounds(ActiveP1) == 0 {
		t.Fatal("no stable rounds committed")
	}
}

// TestMiddlewareServesMetrics drives the façade's MetricsAddr path end to
// end: a configured address yields a bound listener serving a well-typed
// Prometheus exposition and a JSON snapshot of the live families while the
// middleware runs, and Stop closes it.
func TestMiddlewareServesMetrics(t *testing.T) {
	mw, err := NewMiddleware(MiddlewareConfig{Seed: 7, MetricsAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer mw.Stop()
	addr := mw.MetricsAddr()
	if addr == "" {
		t.Fatal("MetricsAddr is empty: NewMiddleware started no metrics server")
	}
	mw.Start()

	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		return body
	}
	const want = "# TYPE synergy_live_msgs_sent_total counter"
	if body := get("/metrics"); !strings.Contains(string(body), want) {
		t.Fatalf("/metrics lacks %q:\n%s", want, body)
	}
	var snap struct {
		Families []json.RawMessage `json:"families"`
	}
	if err := json.Unmarshal(get("/metrics.json"), &snap); err != nil {
		t.Fatalf("/metrics.json: %v", err)
	}
	if len(snap.Families) == 0 {
		t.Fatal("/metrics.json carries no metric families")
	}

	mw.Stop()
	if conn, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		conn.Close()
		t.Fatalf("metrics listener on %s still accepts after Stop", addr)
	}
}

// restartFamilies are the per-process families the benchmark reads; a
// killed and restarted node's series must carry on from where its old
// incarnation left them.
var restartFamilies = []string{
	"synergy_mdcd_checkpoints_total", "synergy_mdcd_ats_total",
	"synergy_mdcd_ndc_deferred_total", "synergy_mdcd_duplicates_total",
	"synergy_tb_stable_commits_total", "synergy_tb_blocking_seconds",
	"synergy_tb_stable_replaces_total", "synergy_tb_skipped_busy_total",
	"synergy_tb_commit_retries_total",
}

// TestMetricsContinueAcrossRestart kills P2's node under traffic and restarts
// it from its durable log while the metrics endpoint is scraped throughout:
// no series of restartFamilies may ever read lower than it did before.
func TestMetricsContinueAcrossRestart(t *testing.T) {
	mw, err := NewMiddleware(MiddlewareConfig{Seed: 9, CheckpointInterval: 20 * time.Millisecond,
		InternalRate: 400, ExternalRate: 40, StableDir: t.TempDir(), MetricsAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer mw.Stop()
	scrape := func() (map[string]float64, error) {
		resp, err := http.Get("http://" + mw.MetricsAddr() + "/metrics.json")
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		var snap struct {
			Families []struct {
				Name   string
				Series []struct {
					Labels string
					Value  *float64
					Count  *uint64
				}
			}
		}
		if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
			return nil, err
		}
		out := make(map[string]float64)
		for _, f := range snap.Families {
			if !slices.Contains(restartFamilies, f.Name) {
				continue
			}
			for _, ss := range f.Series {
				switch {
				case ss.Value != nil:
					out[f.Name+"{"+ss.Labels+"}"] = *ss.Value
				case ss.Count != nil:
					out[f.Name+"{"+ss.Labels+"}"] = float64(*ss.Count)
				}
			}
		}
		return out, nil
	}
	var (
		mu      sync.Mutex
		scrapes []map[string]float64
	)
	record := func() { // one scrape at a time, so the list is in reading order
		mu.Lock()
		defer mu.Unlock()
		got, err := scrape()
		if err != nil {
			t.Error(err)
			return
		}
		scrapes = append(scrapes, got)
	}
	mw.Start()
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			case <-time.After(5 * time.Millisecond):
				record()
			}
		}
	}()
	time.Sleep(300 * time.Millisecond)
	record()
	if err := mw.KillNode(PeerP2); err != nil {
		t.Fatal(err)
	}
	time.Sleep(60 * time.Millisecond)
	record()
	if err := mw.RestartNode(PeerP2); err != nil {
		t.Fatal(err)
	}
	record()
	mu.Lock()
	restarted := len(scrapes)
	mu.Unlock()
	time.Sleep(300 * time.Millisecond)
	close(done)
	wg.Wait()
	record()
	mw.Stop()

	for _, name := range restartFamilies {
		if _, ok := scrapes[0][name+`{proc="P2"}`]; !ok && !strings.HasPrefix(name, "synergy_mdcd_checkpoints") {
			t.Errorf("no %s series for P2", name)
		}
	}
	for i := 1; i < len(scrapes); i++ {
		for series, was := range scrapes[i-1] {
			if now, ok := scrapes[i][series]; !ok || now < was {
				t.Fatalf("scrape %d of %d (restart at %d): %s went from %v to %v", i, len(scrapes), restarted, series, was, now)
			}
		}
	}
	key := `synergy_tb_stable_commits_total{proc="P2"}`
	if first, last := scrapes[restarted-1][key], scrapes[len(scrapes)-1][key]; last <= first {
		t.Fatalf("P2 committed nothing after its restart: %s %v then %v", key, first, last)
	}
}

func TestCrashRepairViaFacade(t *testing.T) {
	sys, err := NewSimulation(Config{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	sys.Start()
	sys.RunFor(60)
	if err := sys.CrashNode(PeerP2); err != nil {
		t.Fatal(err)
	}
	sys.RunFor(40)
	if err := sys.RepairNode(PeerP2); err != nil {
		t.Fatal(err)
	}
	sys.RunFor(30)
	sys.Quiesce()
	r := sys.Report()
	if r.Failed != "" {
		t.Fatalf("run failed: %s", r.Failed)
	}
	if r.HardwareFaults != 1 {
		t.Fatalf("HardwareFaults = %d", r.HardwareFaults)
	}
	if r.MaxRollbackSeconds < 40 {
		t.Fatalf("rollback %vs should cover the downtime", r.MaxRollbackSeconds)
	}
	if err := sys.CrashNode(Process(99)); err == nil {
		t.Fatal("unknown process should error")
	}
	if err := sys.RepairNode(Process(99)); err == nil {
		t.Fatal("unknown process should error")
	}
}
