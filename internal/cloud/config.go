// Package cloud is the Self-Organizing Cloud simulation glue (§II,
// §IV.A): on a simulated world (internal/simenv: event engine,
// network model, overlay, liveness) it wires PSM hosts, the workload
// generator, the churn process and a discovery protocol into one
// deterministic run, and drives the task pipeline
// (generate → query → select best-fit → place → run → finish) whose
// outcomes the paper's metrics summarize.
package cloud

import (
	"fmt"

	"pidcan/internal/churn"
	"pidcan/internal/core"
	"pidcan/internal/gossip"
	"pidcan/internal/khdn"
	"pidcan/internal/netmodel"
	"pidcan/internal/sim"
	"pidcan/internal/task"
)

// Protocol selects the discovery protocol under test — the six
// contenders of Figs. 5–7 plus KHDN-CAN from Fig. 4.
type Protocol int

const (
	// HIDCAN is PID-CAN with hopping index diffusion — the paper's
	// recommended protocol.
	HIDCAN Protocol = iota
	// SIDCAN is PID-CAN with spreading index diffusion.
	SIDCAN
	// HIDCANSoS is HID-CAN with Slack-on-Submission.
	HIDCANSoS
	// SIDCANSoS is SID-CAN with Slack-on-Submission.
	SIDCANSoS
	// SIDCANVD is SID-CAN with an extra virtual dimension.
	SIDCANVD
	// Newscast is the unstructured gossip baseline.
	Newscast
	// KHDNCAN is the K-hop DHT-neighbor baseline.
	KHDNCAN
	numProtocols
)

var protocolNames = [...]string{
	"HID-CAN", "SID-CAN", "HID-CAN+SoS", "SID-CAN+SoS", "SID-CAN+VD",
	"Newscast", "KHDN-CAN",
}

func (p Protocol) String() string {
	if p < 0 || int(p) >= len(protocolNames) {
		return fmt.Sprintf("protocol(%d)", int(p))
	}
	return protocolNames[p]
}

// AllProtocols returns every protocol in display order.
func AllProtocols() []Protocol {
	out := make([]Protocol, numProtocols)
	for i := range out {
		out[i] = Protocol(i)
	}
	return out
}

// SelectionPolicy decides which qualified candidate the requester
// schedules onto.
type SelectionPolicy int

const (
	// BestFit picks the candidate with the least normalized surplus
	// over the demand — the paper's best-fit objective (least
	// fragmentation, maximal shares left for analogous queries).
	BestFit SelectionPolicy = iota
	// FirstFit picks the first (lowest-id) qualified candidate.
	FirstFit
	// MaxShare picks the candidate with the largest surplus, i.e.
	// the greediest PSM share for the task.
	MaxShare
)

func (s SelectionPolicy) String() string {
	switch s {
	case BestFit:
		return "best-fit"
	case FirstFit:
		return "first-fit"
	case MaxShare:
		return "max-share"
	}
	return fmt.Sprintf("policy(%d)", int(s))
}

// Config parameterizes one simulation run.
type Config struct {
	// Protocol is the discovery protocol under test.
	Protocol Protocol
	// Nodes is the initial overlay population (paper: 2000–12000).
	Nodes int
	// Duration is the simulated time span (paper: one day).
	Duration sim.Time
	// Seed drives all randomness; equal seeds reproduce runs
	// bit-for-bit.
	Seed uint64
	// Lambda is the demand ratio λ of Table II.
	Lambda float64
	// ResultsWanted is δ, the number of qualified records a query
	// tries to gather before the requester picks the best fit.
	ResultsWanted int
	// QueryRetries bounds re-queries after an empty result or a
	// failed placement before the task counts as failed.
	QueryRetries int
	// Selection is the candidate-choice policy.
	Selection SelectionPolicy
	// ValidatePlacement re-checks Inequality (2) at the execution
	// host when the task arrives and rejects on violation, sending
	// the requester back to discovery. This is the default: §II
	// states the selected node "must satisfy Inequality (2)", and
	// without host-side enforcement stale records let concurrent
	// analogous queries over-commit hosts, whose diluted shares
	// slow every resident task until the whole system spirals into
	// saturation (run ablation aP to see it). Rejection retries
	// count against QueryRetries.
	ValidatePlacement bool
	// SnapshotEvery is the metrics sampling period (paper plots
	// hourly points).
	SnapshotEvery sim.Time
	// AggregatedCMax makes the SoS variants bound their slack by a
	// gossip-aggregated per-node cmax estimate (paper ref [23],
	// internal/aggregate) instead of the static Table-I maximum.
	AggregatedCMax bool
	// TraceCapacity, when positive, records the most recent N
	// task-lifecycle and membership events into a structured trace
	// (internal/trace) retrievable via Simulation.Trace.
	TraceCapacity int
	// CheckpointSec enables the paper's §VI future-work extension
	// when positive: tasks checkpoint their progress every
	// CheckpointSec seconds, and when their execution node churns
	// away they are re-queued from the last checkpoint (losing at
	// most one interval of progress) instead of being lost.
	CheckpointSec float64

	// Churn configures the dynamic experiments (Fig. 8).
	Churn churn.Config
	// Core tunes PID-CAN (used by the five PID-CAN variants).
	Core core.Config
	// Gossip tunes the Newscast baseline.
	Gossip gossip.Config
	// KHDN tunes the KHDN-CAN baseline.
	KHDN khdn.Config
	// Net is the LAN/WAN model setting.
	Net netmodel.Config
	// MeanInterarrivalSec and MeanDurationSec override the paper's
	// 3000 s workload means when non-zero (used by scaled-down
	// benches).
	MeanInterarrivalSec float64
	MeanDurationSec     float64
}

// DefaultConfig returns the paper's §IV.A setting for the given
// protocol and demand ratio at n nodes.
func DefaultConfig(p Protocol, n int, lambda float64) Config {
	return Config{
		Protocol:          p,
		Nodes:             n,
		Duration:          sim.Day,
		Seed:              1,
		Lambda:            lambda,
		ResultsWanted:     3,
		QueryRetries:      4,
		ValidatePlacement: true,

		Selection:     BestFit,
		SnapshotEvery: sim.Hour,
		Churn:         churn.Default(),
		Core:          core.Default(),
		Gossip:        gossip.Default(),
		KHDN:          khdn.Default(),
		Net:           netmodel.Default(),
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Protocol < 0 || c.Protocol >= numProtocols {
		return fmt.Errorf("cloud: unknown protocol %d", int(c.Protocol))
	}
	if c.Nodes < 2 {
		return fmt.Errorf("cloud: need at least 2 nodes, have %d", c.Nodes)
	}
	if c.Duration <= 0 {
		return fmt.Errorf("cloud: non-positive duration %v", c.Duration)
	}
	if c.Lambda <= 0 || c.Lambda > 1 {
		return fmt.Errorf("cloud: lambda %v outside (0,1]", c.Lambda)
	}
	if c.ResultsWanted < 1 {
		return fmt.Errorf("cloud: ResultsWanted %d < 1", c.ResultsWanted)
	}
	if c.QueryRetries < 0 {
		return fmt.Errorf("cloud: negative QueryRetries")
	}
	if c.SnapshotEvery <= 0 {
		return fmt.Errorf("cloud: non-positive SnapshotEvery")
	}
	if c.CheckpointSec < 0 {
		return fmt.Errorf("cloud: negative CheckpointSec")
	}
	if err := c.Churn.Validate(); err != nil {
		return err
	}
	if err := c.Core.Validate(); err != nil {
		return err
	}
	if err := c.Gossip.Validate(); err != nil {
		return err
	}
	if err := c.KHDN.Validate(); err != nil {
		return err
	}
	return c.genConfig().Validate()
}

// genConfig builds the workload generator setting.
func (c Config) genConfig() task.GenConfig {
	g := task.DefaultGenConfig(c.Lambda)
	if c.MeanInterarrivalSec > 0 {
		g.MeanInterarrivalSec = c.MeanInterarrivalSec
	}
	if c.MeanDurationSec > 0 {
		g.MeanDurationSec = c.MeanDurationSec
	}
	return g
}

// usesOverlay reports whether the protocol needs the CAN overlay.
func (c Config) usesOverlay() bool { return c.Protocol != Newscast }

// overlayDims returns the CAN dimensionality: the resource dims plus
// one virtual dimension for SID-CAN+VD.
func (c Config) overlayDims() int {
	if c.Protocol == SIDCANVD {
		return task.Dims + 1
	}
	return task.Dims
}
