// Package pidcan is a Go implementation of PID-CAN — the
// Proactive Index-Diffusion CAN protocol for probabilistic best-fit
// multi-dimensional range queries in a Self-Organizing Cloud (Di,
// Wang, Zhang, Cheng; ICPP 2011) — together with the full simulation
// apparatus of the paper's evaluation: the CAN/INSCAN overlay, the
// proportional-share host model, the synthetic SOC workload, the
// Newscast and KHDN-CAN baselines, node churn, and the metrics
// (T-Ratio, F-Ratio, Jain fairness, message delivery cost).
//
// Two entry points:
//
//   - Run executes a complete Self-Organizing Cloud simulation — the
//     unit behind every figure and table of the paper — and returns
//     its metrics.
//
//   - NewCluster exposes the protocol itself as a reusable
//     in-process component: a deterministic simulated cluster whose
//     nodes publish availability vectors and answer best-fit
//     multi-dimensional range queries, without the cloud workload on
//     top. This is the API to use when embedding the index in other
//     simulations.
//
// Everything is deterministic per seed and uses only the standard
// library.
package pidcan

import (
	"net/http"

	"pidcan/internal/cloud"
	"pidcan/internal/core"
	"pidcan/internal/metrics"
	"pidcan/internal/overlay"
	"pidcan/internal/proto"
	"pidcan/internal/psm"
	"pidcan/internal/serve"
	"pidcan/internal/serve/capture"
	"pidcan/internal/serve/fed"
	"pidcan/internal/serve/repl"
	"pidcan/internal/serve/wire"
	"pidcan/internal/sim"
	"pidcan/internal/task"
	"pidcan/internal/trace"
	"pidcan/internal/vector"
)

// Vec is a d-dimensional resource vector (CPU, I/O, network, disk,
// memory in the standard layout).
type Vec = vector.Vec

// Time is a simulation timestamp/duration in microseconds.
type Time = sim.Time

// Time unit re-exports.
const (
	Millisecond = sim.Millisecond
	Second      = sim.Second
	Minute      = sim.Minute
	Hour        = sim.Hour
	Day         = sim.Day
)

// NodeID identifies a node of the overlay.
type NodeID = overlay.NodeID

// Record is a resource-state record: a node's advertised
// availability with freshness bounds.
type Record = proto.Record

// Config parameterizes a full SOC simulation run.
type Config = cloud.Config

// Result is the outcome of a simulation run.
type Result = cloud.Result

// Protocol selects the discovery protocol under test.
type Protocol = cloud.Protocol

// Discovery protocols of the paper's evaluation.
const (
	HIDCAN    = cloud.HIDCAN
	SIDCAN    = cloud.SIDCAN
	HIDCANSoS = cloud.HIDCANSoS
	SIDCANSoS = cloud.SIDCANSoS
	SIDCANVD  = cloud.SIDCANVD
	Newscast  = cloud.Newscast
	KHDNCAN   = cloud.KHDNCAN
)

// SelectionPolicy picks among qualified candidates.
type SelectionPolicy = cloud.SelectionPolicy

// Candidate selection policies.
const (
	BestFit  = cloud.BestFit
	FirstFit = cloud.FirstFit
	MaxShare = cloud.MaxShare
)

// CoreConfig tunes the PID-CAN protocol itself.
type CoreConfig = core.Config

// DiffusionMode selects hopping (HID) or spreading (SID) diffusion.
type DiffusionMode = core.DiffusionMode

// Index-diffusion methods.
const (
	Hopping   = core.Hopping
	Spreading = core.Spreading
)

// MsgKind classifies counted protocol messages.
type MsgKind = metrics.MsgKind

// Recorder accumulates run metrics.
type Recorder = metrics.Recorder

// MetricSample is one point of the hourly metric series.
type MetricSample = metrics.Sample

// TraceLog is the structured event log of a traced run.
type TraceLog = trace.Log

// TraceEvent is one recorded trace event.
type TraceEvent = trace.Event

// TraceKind classifies trace events.
type TraceKind = trace.Kind

// DefaultConfig returns the paper's §IV.A setting for protocol p
// with n nodes at demand ratio lambda.
func DefaultConfig(p Protocol, n int, lambda float64) Config {
	return cloud.DefaultConfig(p, n, lambda)
}

// Run executes one Self-Organizing Cloud simulation to completion.
// Equal configs (including Seed) reproduce results bit-for-bit.
func Run(cfg Config) (*Result, error) {
	s, err := cloud.New(cfg)
	if err != nil {
		return nil, err
	}
	return s.Run(), nil
}

// CMax returns the system-wide maximum capacity vector of the
// standard five-dimensional resource layout (Table I).
func CMax() Vec { return task.CMax() }

// Dims is the standard resource dimensionality.
const Dims = task.Dims

// WorkDims is the number of leading rate-like dimensions.
const WorkDims = task.WorkDims

// DefaultOverhead returns the paper's per-VM maintenance overhead.
func DefaultOverhead() psm.Overhead { return psm.DefaultOverhead() }

// --- concurrent serving engine (internal/serve) ------------------------------

// Engine is the concurrent, shard-parallel query service built on
// top of Cluster: each shard's writers apply writes one at a time
// under its combiner lock, batching any that queue up, while
// best-fit range queries run lock-free on immutable copy-on-write
// snapshots of the record index. Nodes migrate between shards
// (Engine.Migrate) behind a stable external identity, and an
// adaptive rebalancer (EngineConfig.RebalanceInterval,
// Engine.Rebalance) keeps shard populations level under skewed
// traffic. With EngineConfig.DataDir set, every write is logged to a
// per-shard op-log before it is acknowledged, checkpoints
// (Engine.Checkpoint, EngineConfig.CheckpointEvery) serialize the
// engine's state, and NewEngine warm-restarts from checkpoint + log
// so a restart serves exactly what its predecessor acknowledged.
// See internal/serve and examples/serving.
type Engine = serve.Engine

// EngineConfig parameterizes NewEngine.
type EngineConfig = serve.Config

// QueryRequest is one best-fit range query against an Engine.
type QueryRequest = serve.QueryRequest

// QueryResponse is the outcome of an Engine query.
type QueryResponse = serve.QueryResponse

// Candidate is one qualified node of a QueryResponse.
type Candidate = serve.Candidate

// GlobalNodeID addresses a node across Engine shards.
type GlobalNodeID = serve.GlobalID

// EngineStats is a point-in-time view of Engine counters.
type EngineStats = serve.Stats

// RebalanceResult describes one adaptive rebalance pass
// (Engine.Rebalance).
type RebalanceResult = serve.RebalanceResult

// CheckpointResult describes one durable checkpoint pass
// (Engine.Checkpoint; engines built with EngineConfig.DataDir).
type CheckpointResult = serve.CheckpointResult

// Engine errors.
var (
	ErrEngineClosed   = serve.ErrClosed
	ErrBadDemand      = serve.ErrBadDemand
	ErrNoShard        = serve.ErrNoShard
	ErrScatterTimeout = serve.ErrScatterTimeout
	ErrNoNodes        = serve.ErrNoNodes
	ErrLastNode       = serve.ErrLastNode
	ErrNotDurable     = serve.ErrNotDurable
	ErrRecovery       = serve.ErrRecovery
	ErrReadOnly       = serve.ErrReadOnly
	ErrFenced         = serve.ErrFenced
	ErrNotFollower    = serve.ErrNotFollower
	ErrWAL            = serve.ErrWAL
)

// --- op-log replication (internal/serve/repl) --------------------------------

// ReplServer streams a durable primary Engine's op-log to follower
// sessions over the wire protocol: a follower's subscribe carries its
// shard shape and per-shard (segment, record) positions, stale
// followers bootstrap by checkpoint shipping, live ones tail every
// logged batch. Attach it to the engine's wire listener with
// WireServer.SetReplSource (pidcan-serve -wire-addr), or let Serve
// open a wire listener of its own.
type ReplServer = repl.Server

// ReplServerConfig tunes a ReplServer.
type ReplServerConfig = repl.ServerConfig

// ReplClient keeps a follower Engine fed from its primary: it
// mirrors the op-log byte for byte, applies every record through the
// same batch path recovery uses (join ids verified), reconnects with
// backoff, and performs promotion (drain + seal epoch+1) on demand.
type ReplClient = repl.Client

// ReplClientConfig parameterizes a ReplClient.
type ReplClientConfig = repl.ClientConfig

// ReplPos is one shard's op-log position (segment, record ordinal).
type ReplPos = serve.ReplPos

// NewReplServer attaches a replication server to a durable primary
// engine (it becomes the engine's replication sink).
func NewReplServer(e *Engine, cfg ReplServerConfig) (*ReplServer, error) {
	return repl.NewServer(e, cfg)
}

// NewReplClient builds a follower's replication client over the
// primary's wire address; run it with Run and wire
// Engine.SetPromoter to Promote for HTTP fail-over.
func NewReplClient(cfg ReplClientConfig) (*ReplClient, error) {
	return repl.NewClient(cfg)
}

// --- binary wire protocol (internal/serve/wire) -------------------------------

// WireServer serves an Engine over the compact binary wire protocol:
// persistent TCP connections with pipelined in-order responses. Run it
// next to the HTTP front-end on its own listener (pidcan-serve
// -wire-addr); attach its Stats to the engine with
// Engine.SetWireStats.
type WireServer = wire.Server

// WireServerConfig tunes a WireServer.
type WireServerConfig = wire.ServerConfig

// WireClient is the wire protocol over one connection with one owner:
// synchronous calls, or Enqueue*/Flush on one goroutine with
// ReadResponse on one other. Goroutines that share a connection go
// through a WireMux instead.
type WireClient = wire.Client

// WireMux is the concurrent pipelined wire client: any number of
// goroutines start requests on one WireClient, a flusher batches
// their frames into one write, and one reader hands each response to
// its request in order. A request is any value with the methods
// Enqueue(*WireClient) uint32, which appends its frame, and
// Done(*WireResponse, error), which receives the response or the
// error that failed the connection. A transport error or Close fails
// every request in flight.
type WireMux = wire.Mux

// WireResponse is one decoded wire response, as a WireMux hands it to
// a request's Done.
type WireResponse = wire.Response

// NewWireMux takes ownership of c and shares it between goroutines.
func NewWireMux(c *WireClient) *WireMux { return wire.NewMux(c) }

// WireQuery is a wire query request.
type WireQuery = wire.Query

// WireQueryResult is a decoded wire query response.
type WireQueryResult = wire.QueryResult

// WireError is a typed server-side rejection (the Code* constants of
// internal/serve's rejection table; read-only followers carry the
// primary's address and a retry hint).
type WireError = wire.Error

// WireStats is the gauge set a WireServer feeds into Engine.Stats.
type WireStats = serve.WireStats

// NewWireServer builds a wire server over an engine getter (the
// getter indirection lets a follower re-bootstrap swap engines under
// a live listener; return nil while not ready).
func NewWireServer(engine func() *Engine, cfg WireServerConfig) *WireServer {
	return wire.NewServer(func() serve.Service {
		if e := engine(); e != nil {
			return e
		}
		return nil // avoid a typed-nil Service from a nil *Engine
	}, cfg)
}

// NewServiceWireServer builds a wire server over any Service — an
// Engine or a federation Router — for front-ends that are not
// engine-backed.
func NewServiceWireServer(svc func() Service, cfg WireServerConfig) *WireServer {
	return wire.NewServer(svc, cfg)
}

// DialWire connects a wire client to a pidcan-serve -wire-addr
// listener.
func DialWire(addr string) (*WireClient, error) { return wire.Dial(addr) }

// A Cluster is the shard backend of the serving engine.
var _ serve.Backend = (*Cluster)(nil)

// NewEngine builds a serving engine whose shards are independent
// PID-CAN Clusters (shard i runs on seed Seed⊕mix(i), so shards stay
// deterministic per seed but mutually uncorrelated) and starts its
// idle tick. Callers must Close the engine when done.
func NewEngine(cfg EngineConfig) (*Engine, error) {
	return serve.New(cfg, func(i int, rc serve.Config) (serve.Backend, error) {
		return NewCluster(ClusterConfig{
			Nodes: rc.NodesPerShard,
			CMax:  rc.CMax,
			Seed:  rc.Seed ^ (uint64(i+1) * 0x9e3779b97f4a7c15),
			Core:  rc.Core,
			Net:   rc.Net,
		})
	})
}

// NewHandler exposes a Service — an Engine or a FedRouter — over HTTP
// (the JSON API of cmd/pidcan-serve and cmd/pidcan-router): POST
// /query, /update, /join, /leave, /take and GET /nodes, /stats,
// /healthz, plus an Engine's operator routes /rebalance, /checkpoint
// and /promote.
func NewHandler(s Service) http.Handler { return serve.NewHandler(s) }

// NewCaptureHandler exposes the traffic-capture control surface
// (internal/serve/capture): POST /capture/start and /capture/stop
// attach/detach a trace recorder on the current engine, GET
// /capture/status reports it, GET /capture/trace downloads the last
// finished trace. engine is a getter because followers swap engines
// across re-bootstraps.
func NewCaptureHandler(engine func() *Engine) http.Handler { return capture.NewHTTP(engine) }

// --- federation (internal/serve/fed) ------------------------------------------

// Service is the query/update/join/leave surface shared by an Engine
// and a federation Router: anything that serves the PID-CAN API,
// local or scatter-gathered across processes.
type Service = serve.Service

// FedRouter serves the Service API across federation members over
// the wire protocol: a snapshot query gathers every member, as an
// Engine's reads every shard's snapshot, and a consistent query asks
// one member, as an Engine's asks one shard.
type FedRouter = fed.Router

// FedRouterConfig parameterizes NewFedRouter.
type FedRouterConfig = fed.Config

// FedRouterStats is the counter set behind FedRouter.StatsPayload.
type FedRouterStats = fed.Stats

// NewFedRouter connects a router to its federation members.
func NewFedRouter(cfg FedRouterConfig) (*FedRouter, error) { return fed.New(cfg) }
