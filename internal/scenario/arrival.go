package scenario

import (
	"math"
	"math/rand"
	"time"
)

// Gaps returns the open-loop inter-arrival generator for the probe schedule:
// the returned func maps elapsed run time to the gap before the next
// arrival. The schedules are poisson (memoryless), ramp (linear rate climb),
// burst (alternating half-periods) and diurnal (sinusoidal modulation); the
// scenario engine's probe driver and the benchmark's paced generators share
// this one definition.
func (p Probes) Gaps(duration time.Duration, rng *rand.Rand) func(time.Duration) time.Duration {
	rate2 := p.Rate2
	if rate2 == 0 {
		rate2 = 4 * p.Rate
	}
	period := p.Period.D()
	if period <= 0 {
		period = time.Second
	}
	secs := func(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
	switch p.Schedule {
	case "poisson":
		return func(time.Duration) time.Duration {
			return secs(rng.ExpFloat64() / p.Rate)
		}
	case "ramp":
		return func(elapsed time.Duration) time.Duration {
			frac := float64(elapsed) / float64(duration)
			r := p.Rate + (rate2-p.Rate)*frac
			return secs(1 / r)
		}
	case "burst":
		return func(elapsed time.Duration) time.Duration {
			half := period / 2
			r := p.Rate
			if (elapsed/half)%2 == 1 {
				r = rate2
			}
			return secs(1 / r)
		}
	case "diurnal":
		return func(elapsed time.Duration) time.Duration {
			phase := 2 * math.Pi * float64(elapsed) / float64(period)
			r := p.Rate * (1 + 0.8*math.Sin(phase))
			return secs(1 / r)
		}
	}
	panic("unreachable: schedule validated by Spec.Validate")
}
