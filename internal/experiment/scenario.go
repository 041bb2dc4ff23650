package experiment

import (
	"fmt"
	"strings"
	"time"

	"github.com/synergy-ft/synergy/internal/app"
	"github.com/synergy-ft/synergy/internal/checkpoint"
	"github.com/synergy-ft/synergy/internal/coord"
	"github.com/synergy-ft/synergy/internal/msg"
	"github.com/synergy-ft/synergy/internal/trace"
	"github.com/synergy-ft/synergy/internal/vtime"
)

// zeroWorkload selects a scripted run: no background traffic.
func zeroWorkload() app.Workload { return app.Workload{} }

// buildScenario assembles and runs the scripted message sequence behind
// Figures 1 and 3: the same seven application-purpose messages (m1–m7) and
// two acceptance tests (on M1 by P1act and M2 by P2) that the paper's
// diagrams show, driven at fixed instants.
func buildScenario(cfg coord.Config) (*coord.System, error) {
	cfg.TraceEnabled = true
	sys, err := coord.NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	sys.Start() // arms TB timers if the scheme uses them; no workload
	eng := sys.Engine()
	at := func(sec float64, fn func()) { eng.Schedule(vtime.FromSeconds(sec), fn) }
	at(1.0, sys.EmitC1Internal) // m1: P1act → P2 (P2 establishes Type-1 Bk)
	at(2.0, sys.EmitC2Internal) // m2: P2 → {P1act, P1sdw} (P1sdw Type-1 Aj)
	at(3.0, sys.EmitC1Internal) // m3
	at(4.0, sys.EmitC1External) // M1: P1act's AT (Type-2s Aj+1, Bk+1 under original MDCD)
	at(5.0, sys.EmitC1Internal) // m4: re-contaminates P2 (Type-1 Bk+2; pseudo ckpt at P1act)
	at(6.0, sys.EmitC2Internal) // m5
	at(7.0, sys.EmitC1Internal) // m6
	at(8.0, sys.EmitC2External) // M2: P2's AT while dirty (Type-2 Bk+3 under original MDCD)
	at(9.0, sys.EmitC1Internal) // m7
	sys.RunUntil(vtime.FromSeconds(12))
	return sys, nil
}

func renderScenario(sys *coord.System, upTo float64) string {
	var b strings.Builder
	tl := trace.Timeline{From: vtime.Zero, To: vtime.FromSeconds(upTo), Columns: 72}
	b.WriteString(tl.Render(sys.Recorder()))
	b.WriteString("\ncheckpoint establishments:\n")
	for _, e := range sys.Recorder().Events() {
		switch e.Kind {
		case trace.CheckpointTaken, trace.StableCommitted, trace.StableReplaced:
			fmt.Fprintf(&b, "  %s\n", e)
		}
	}
	return b.String()
}

func countCkpt(sys *coord.System, p msg.ProcID, kind checkpoint.Kind) int {
	n := 0
	for _, e := range sys.Recorder().ByProc(p) {
		if e.Kind == trace.CheckpointTaken && e.Ckpt == kind {
			n++
		}
	}
	return n
}

// Figure1 reproduces the original MDCD checkpoint-establishment diagram:
// Type-1 checkpoints immediately before contamination, Type-2 checkpoints
// right after validation, no stable storage involved.
func Figure1(opts Options) (Result, error) {
	cfg := coord.DefaultConfig(coord.OriginalMDCD, opts.seed())
	cfg.Workload1, cfg.Workload2 = zeroWorkload(), zeroWorkload()
	sys, err := buildScenario(cfg)
	if err != nil {
		return Result{}, err
	}
	body := renderScenario(sys, 12)
	body += fmt.Sprintf("\ncounts: P1sdw Type-1=%d Type-2=%d; P2 Type-1=%d Type-2=%d; P1act checkpoints=%d (exempt)\n",
		countCkpt(sys, msg.P1Sdw, checkpoint.Type1), countCkpt(sys, msg.P1Sdw, checkpoint.Type2),
		countCkpt(sys, msg.P2, checkpoint.Type1), countCkpt(sys, msg.P2, checkpoint.Type2),
		countCkpt(sys, msg.P1Act, checkpoint.Type1)+countCkpt(sys, msg.P1Act, checkpoint.Type2)+countCkpt(sys, msg.P1Act, checkpoint.Pseudo))
	return Result{
		Values: map[string]float64{
			"sdw_type1": float64(countCkpt(sys, msg.P1Sdw, checkpoint.Type1)),
			"sdw_type2": float64(countCkpt(sys, msg.P1Sdw, checkpoint.Type2)),
			"p2_type1":  float64(countCkpt(sys, msg.P2, checkpoint.Type1)),
			"p2_type2":  float64(countCkpt(sys, msg.P2, checkpoint.Type2)),
			"act_ckpts": float64(countCkpt(sys, msg.P1Act, checkpoint.Type1) + countCkpt(sys, msg.P1Act, checkpoint.Type2) + countCkpt(sys, msg.P1Act, checkpoint.Pseudo)),
		},
		ID:    "fig1",
		Title: "Message-Driven Confidence-Driven Checkpoint Establishment (original MDCD)",
		Body:  body,
		Notes: "Lanes: 1=Type-1, 2=Type-2, A=AT pass, #=potentially contaminated interval.",
	}, nil
}

// Figure3 reproduces the modified-protocol diagram: Type-2 establishment is
// eliminated, P1act maintains pseudo checkpoints, and the TB protocol
// commits stable checkpoints (C_i) on its timers.
func Figure3(opts Options) (Result, error) {
	cfg := coord.DefaultConfig(coord.Coordinated, opts.seed())
	cfg.Workload1, cfg.Workload2 = zeroWorkload(), zeroWorkload()
	cfg.CheckpointInterval = 5 * time.Second // two stable rounds in view
	sys, err := buildScenario(cfg)
	if err != nil {
		return Result{}, err
	}
	body := renderScenario(sys, 12)
	body += fmt.Sprintf("\ncounts: P1act pseudo=%d; Type-2 anywhere=%d; stable commits per process=%d\n",
		countCkpt(sys, msg.P1Act, checkpoint.Pseudo),
		countCkpt(sys, msg.P1Act, checkpoint.Type2)+countCkpt(sys, msg.P1Sdw, checkpoint.Type2)+countCkpt(sys, msg.P2, checkpoint.Type2),
		int(sys.Checkpointer(msg.P2).Ndc()))
	return Result{
		Values: map[string]float64{
			"act_pseudo": float64(countCkpt(sys, msg.P1Act, checkpoint.Pseudo)),
			"type2_any":  float64(countCkpt(sys, msg.P1Act, checkpoint.Type2) + countCkpt(sys, msg.P1Sdw, checkpoint.Type2) + countCkpt(sys, msg.P2, checkpoint.Type2)),
			"stable_ndc": float64(sys.Checkpointer(msg.P2).Ndc()),
		},
		ID:    "fig3",
		Title: "Modified MDCD Protocol (pseudo checkpoints, no Type-2, TB stable commits)",
		Body:  body,
		Notes: "Lanes: P=pseudo checkpoint, S=stable commit, b/e=blocking period, #=contaminated.",
	}, nil
}
