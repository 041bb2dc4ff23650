package synergy

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"strings"
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

func TestCrashRepairViaFacade(t *testing.T) {
	sys, err := NewSimulation(Config{Seed: 8, MaxRepair: time.Minute})
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
