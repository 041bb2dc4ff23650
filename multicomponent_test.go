package synergy

import "testing"

func multiCfg(seed int64) MultiConfig {
	return MultiConfig{
		Seed: seed,
		Components: []Component{
			{Name: "a", Guarded: true, SendsTo: []string{"b"}},
			{Name: "b", SendsTo: []string{"c"}},
			{Name: "c", SendsTo: []string{"a"}},
		},
	}
}

func TestMultiComponentSteadyState(t *testing.T) {
	sys, err := NewMultiComponent(multiCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	sys.Start()
	sys.RunFor(60)
	sys.Quiesce()
	if got := sys.Status("b").Checkpoints; got == 0 {
		t.Fatal("downstream component never checkpointed at contamination boundaries")
	}
	if sys.Report().ATsPassed == 0 {
		t.Fatal("no acceptance tests ran")
	}
}

func TestMultiComponentFaultRecovery(t *testing.T) {
	sys, err := NewMultiComponent(multiCfg(2))
	if err != nil {
		t.Fatal(err)
	}
	sys.Start()
	sys.RunFor(20)
	sys.ActivateSoftwareFault("a")
	sys.RunFor(200)
	sys.Quiesce()
	st := sys.Status("a")
	if !st.ShadowPromoted {
		t.Fatal("shadow did not take over")
	}
	r := sys.Report()
	if r.Recoveries == 0 || r.Takeovers != 1 {
		t.Fatalf("report = %+v", r)
	}
	for _, n := range []string{"b", "c"} {
		if sys.Status(n).Contaminated {
			t.Fatalf("%s still contaminated at quiesce", n)
		}
	}
}

func TestMultiComponentValidation(t *testing.T) {
	cfg := multiCfg(3)
	cfg.Components[0].SendsTo = []string{"nowhere"}
	if _, err := NewMultiComponent(cfg); err == nil {
		t.Fatal("unknown peer should fail validation")
	}
	cfg = multiCfg(3)
	cfg.Components[0].Guarded = false
	if _, err := NewMultiComponent(cfg); err == nil {
		t.Fatal("no guarded component should fail validation")
	}
}

func TestMultiComponentUnknownNameIsSafe(t *testing.T) {
	sys, err := NewMultiComponent(multiCfg(4))
	if err != nil {
		t.Fatal(err)
	}
	sys.Start()
	sys.ActivateSoftwareFault("ghost") // no-op
	sys.RunFor(5)
	sys.Quiesce()
	if got, want := sys.Status("ghost"), (ComponentStatus{Name: "ghost"}); got != want {
		t.Fatalf("Status of an unknown name = %+v, want %+v", got, want)
	}
}

func TestMultiComponentAcceptUpgrade(t *testing.T) {
	sys, err := NewMultiComponent(multiCfg(5))
	if err != nil {
		t.Fatal(err)
	}
	sys.Start()
	sys.RunFor(30)
	if !sys.AcceptUpgrade("a") {
		t.Fatal("AcceptUpgrade returned false")
	}
	if sys.AcceptUpgrade("a") {
		t.Fatal("second AcceptUpgrade should be a no-op")
	}
	if sys.AcceptUpgrade("ghost") {
		t.Fatal("unknown component should not accept")
	}
	sys.RunFor(60)
	sys.Quiesce()
	for _, n := range []string{"a", "b", "c"} {
		if sys.Status(n).Contaminated {
			t.Fatalf("%s contaminated after acceptance", n)
		}
	}
}
