// Package churn schedules node arrival/departure events for the
// dynamic experiments of the paper (§IV.B, Fig. 8): the dynamic
// degree is the fraction of nodes that churn per task lifetime
// (3000 s on average) — e.g. degree 0.25 means about 25% of the
// nodes disconnect every 3000 s while the same number of new nodes
// join, with events uniformly spread over time.
package churn

import (
	"fmt"
	"math"

	"pidcan/internal/sim"
)

// Config parameterizes the churn process.
type Config struct {
	// Degree is the churned fraction per window, in [0, 1].
	Degree float64
	// Window is the churn accounting window (the mean task
	// lifetime, 3000 s).
	Window sim.Time
}

// Default returns the paper's churn window with no churn.
func Default() Config { return Config{Degree: 0, Window: 3000 * sim.Second} }

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Degree < 0 || c.Degree > 1 {
		return fmt.Errorf("churn: degree %v outside [0,1]", c.Degree)
	}
	if c.Window <= 0 {
		return fmt.Errorf("churn: non-positive window %v", c.Window)
	}
	return nil
}

// Scheduler drives the churn process on a simulation engine. Leave
// and join callbacks fire at uniformly distributed instants, one
// leave and one join per churn slot, so the population stays
// balanced in expectation.
type Scheduler struct {
	cfg     Config
	eng     *sim.Engine
	rng     *sim.RNG
	n       int // baseline population for the per-window quota
	leave   func()
	join    func()
	stopped bool
	windowT sim.Timer
}

// New builds a scheduler over the engine; n is the baseline node
// count used to size the per-window churn quota. leave and join are
// invoked once per churn slot; leave always fires before the paired
// join is scheduled independently.
func New(eng *sim.Engine, rng *sim.RNG, cfg Config, n int, leave, join func()) (*Scheduler, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if n < 0 {
		return nil, fmt.Errorf("churn: negative population %d", n)
	}
	return &Scheduler{cfg: cfg, eng: eng, rng: rng, n: n, leave: leave, join: join}, nil
}

// QuotaPerWindow returns the number of leave (and join) events per
// window: round(degree·n).
func (s *Scheduler) QuotaPerWindow() int {
	return int(math.Round(s.cfg.Degree * float64(s.n)))
}

// Start begins scheduling windows. A zero-degree scheduler is a
// no-op.
func (s *Scheduler) Start() {
	if s.QuotaPerWindow() == 0 {
		return
	}
	s.scheduleWindow()
}

// Stop halts the process after the current window's events.
func (s *Scheduler) Stop() {
	s.stopped = true
	s.eng.Stop(s.windowT)
}

// scheduleWindow lays out one window's events and re-arms itself.
func (s *Scheduler) scheduleWindow() {
	if s.stopped {
		return
	}
	q := s.QuotaPerWindow()
	w := float64(s.cfg.Window)
	for i := 0; i < q; i++ {
		s.eng.After(sim.Time(s.rng.Uniform(0, w)), func() {
			if !s.stopped {
				s.leave()
			}
		})
		s.eng.After(sim.Time(s.rng.Uniform(0, w)), func() {
			if !s.stopped {
				s.join()
			}
		})
	}
	s.windowT = s.eng.After(s.cfg.Window, s.scheduleWindow)
}
