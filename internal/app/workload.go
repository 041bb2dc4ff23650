package app

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// Workload describes the stochastic message traffic an application component
// generates: internal application-purpose messages to its peer and external
// messages to devices (each external send triggers an acceptance test when
// the sender is potentially contaminated).
type Workload struct {
	// InternalRate is the mean number of internal messages per second a
	// process sends to its peer.
	InternalRate float64
	// ExternalRate is the mean number of external messages per second.
	ExternalRate float64
	// LocalStepRate is the mean number of purely local computation steps
	// per second (they advance state without communicating).
	LocalStepRate float64
}

// Validate reports whether the workload rates are usable.
func (w Workload) Validate() error {
	for _, r := range []struct {
		name string
		v    float64
	}{
		{"InternalRate", w.InternalRate},
		{"ExternalRate", w.ExternalRate},
		{"LocalStepRate", w.LocalStepRate},
	} {
		if r.v < 0 || math.IsNaN(r.v) || math.IsInf(r.v, 0) {
			return fmt.Errorf("app: invalid %s %v", r.name, r.v)
		}
	}
	if w.InternalRate == 0 && w.ExternalRate == 0 {
		return fmt.Errorf("app: workload generates no messages")
	}
	return nil
}

// NextInternal draws the time until the next internal message (exponential
// inter-arrival). It returns a very large duration when the rate is zero.
func (w Workload) NextInternal(rng *rand.Rand) time.Duration {
	return ExpGap(w.InternalRate, rng)
}

// NextExternal draws the time until the next external message.
func (w Workload) NextExternal(rng *rand.Rand) time.Duration {
	return ExpGap(w.ExternalRate, rng)
}

// NextLocalStep draws the time until the next local computation step.
func (w Workload) NextLocalStep(rng *rand.Rand) time.Duration {
	return ExpGap(w.LocalStepRate, rng)
}

// never is returned for zero-rate event streams; it is far beyond any
// simulation horizon while staying safely clear of arithmetic overflow.
const never = 100 * 365 * 24 * time.Hour

// ExpGap draws an exponential inter-event gap for a stream of the given rate
// (the workload law of every event stream in the repository).
func ExpGap(rate float64, rng *rand.Rand) time.Duration {
	if rate <= 0 {
		return never
	}
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64()
	}
	secs := -math.Log(u) / rate
	return time.Duration(secs * float64(time.Second))
}
