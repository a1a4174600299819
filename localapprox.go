// Package localapprox is a Go reproduction of
//
//	Mika Göös, Juho Hirvonen, Jukka Suomela:
//	"Lower Bounds for Local Approximation", PODC 2012.
//
// The paper proves that for simple PO-checkable graph optimisation
// problems on bounded-degree lift-closed families, deterministic
// constant-time distributed algorithms gain nothing from unique
// identifiers: ID = OI = PO for local approximation.
//
// This package is a thin facade re-exporting the library's main entry
// points; the implementation lives in the internal packages:
//
//	internal/graph       graphs and generators (flat CSR storage)
//	internal/host        the host-family registry (descriptor syntax)
//	internal/digraph     L-digraphs, ports, covering maps, lazy graphs
//	internal/view        view trees T(G,v) and T*
//	internal/order       ordered balls, homogeneity (Def. 3.1)
//	internal/group       the groups U_i, H_i, W_i of Section 5
//	internal/homog       the Theorem 3.2 construction
//	internal/lift        lifts and the Theorem 3.3 product
//	internal/model       the ID/OI/PO models and simulators
//	internal/core        the main-theorem transforms and the certified
//	                     PO lower-bound engine
//	internal/ramsey      monochromatic-subset search (Section 4.2)
//	internal/problems    the six problems of Example 1.1
//	internal/solve       exact optimisation solvers
//	internal/algorithms  local algorithms (upper bounds + adversaries)
//	internal/experiments the E1–E17 experiment suite
//
// Quick start (see also examples/):
//
//	g := localapprox.Cycle(9)
//	h := localapprox.HostFromGraph(g)
//	sol, _ := localapprox.RunPO(h, localapprox.EDSOneOut(), localapprox.EdgeKind)
//	ratio, _ := localapprox.Ratio(localapprox.MinEDS, g, sol)
package localapprox

import (
	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/digraph"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/homog"
	"repro/internal/host"
	"repro/internal/job"
	"repro/internal/model"
	"repro/internal/order"
	"repro/internal/par"
	"repro/internal/problems"
	"repro/internal/serve"
)

// Re-exported core types.
type (
	// Graph is an undirected bounded-degree graph.
	Graph = graph.Graph
	// Digraph is an L-edge-labelled digraph (port numbering +
	// orientation).
	Digraph = digraph.Digraph
	// Host is a graph instance runnable in all three models.
	Host = model.Host
	// Solution is a vertex or edge subset produced by an algorithm.
	Solution = model.Solution
	// Problem is a simple PO-checkable optimisation problem.
	Problem = problems.Problem
	// Construction is a Theorem 3.2 homogeneous-graph construction.
	Construction = homog.Construction
	// LowerBound is a machine-certified PO-model lower bound.
	LowerBound = core.LowerBound
	// TransferReport is an end-to-end Theorem 4.1 run.
	TransferReport = core.TransferReport
	// Table is an experiment result.
	Table = experiments.Table
	// Rank is a linear order on vertices (the OI model's structure).
	Rank = order.Rank
	// Homogeneity is a Definition 3.1 measurement result.
	Homogeneity = order.Homogeneity
	// Sweeper is the worker-local scratch of the ball-sweep engine.
	Sweeper = order.Sweeper
	// SearchOptions bounds the homogeneous-construction search.
	SearchOptions = homog.SearchOptions
	// RoundAlgo is the classical slice-returning round algorithm, run
	// by the sequential specification loop RunRoundsStates.
	RoundAlgo = model.RoundAlgo
	// Chunk is the cursor a step walks over a chunk of the
	// worklist: per node the inbox read in place, and the sends and
	// the halt, on both planes.
	Chunk = model.Chunk
	// Msg is one message of the specification loop on an incident arc.
	Msg = model.Msg
	// NodeInfo is a node's initial knowledge.
	NodeInfo = model.NodeInfo
	// Schedule decides, per round, each message slot's fate and each
	// node's up/down/crashed state (DESIGN.md §8). A nil Schedule is
	// the clean synchronous plane.
	Schedule = model.Schedule
	// FaultProfile is a named, parameterised fault schedule ("clean",
	// "lossy:p=0.05", "crash:f=100,by=8", ...).
	FaultProfile = model.Profile
	// FaultReport tallies the faults a run actually injected.
	FaultReport = model.FaultReport
	// WordAlgo is the round-algorithm form both engines run: one
	// uint64 state per node, payloads on the uint64 word lane, one step
	// per chunk walking a Chunk, sends addressed by local slot
	// (DESIGN.md §9).
	WordAlgo = model.WordAlgo
	// WordEngine is the flat batched worker-parallel round engine: a
	// CSR message plane of one-word payload cells and a state column
	// sized once from the host's arcs, double-buffered arenas, an
	// active-set worklist and persistent per-run workers.
	WordEngine = model.WordEngine
)

// Solution kinds.
const (
	VertexKind = model.VertexKind
	EdgeKind   = model.EdgeKind
)

// The six problems of Example 1.1.
var (
	MinVC  = problems.MinVertexCover{}
	MinEC  = problems.MinEdgeCover{}
	MaxMM  = problems.MaxMatching{}
	MaxIS  = problems.MaxIndependentSet{}
	MinDS  = problems.MinDominatingSet{}
	MinEDS = problems.MinEdgeDominatingSet{}
)

// Graph generators.
var (
	Cycle            = graph.Cycle
	Torus            = graph.Torus
	Petersen         = graph.Petersen
	Complete         = graph.Complete
	Circulant        = graph.Circulant
	RandomRegular    = graph.RandomRegular
	Grid3D           = graph.Grid3D
	MargulisExpander = graph.MargulisExpander
)

// The host registry: every named, parameterised host family behind
// one descriptor namespace ("torus:12x12",
// "random-regular:d=4,n=512,seed=7", "lift:cycle:9,l=3", ...). See
// DESIGN.md §4 for the grammar; ParseHost errors list the registry.
var (
	ParseHost      = host.Parse
	MustParseHost  = host.MustParse
	HostFamilies   = host.Families
	RegisterFamily = host.Register
)

// Hosts and runners. RunRoundsStates is the sequential specification
// loop of the classical RoundAlgo form; NewWordEngine builds the
// batched round engine (DESIGN.md §9) for arena reuse across runs,
// and SimulatePORounds drives a PO algorithm operationally through it.
var (
	HostFromGraph    = model.HostFromGraph
	NewHost          = model.NewHost
	RunPO            = model.RunPO
	RunOI            = model.RunOI
	RunID            = model.RunID
	RunRoundsStates  = model.RunRoundsStates
	NewWordEngine    = model.NewWordEngine
	SimulatePO       = model.SimulatePO
	SimulatePORounds = model.SimulatePORounds
)

// The sharded giant-host plane (DESIGN.md §12): NewShardedEngine
// partitions a host into P contiguous shards — each with its own CSR
// slice, word-lane arenas and workers — and drains cross-shard arcs
// through a compact exchange buffer at the round barrier. A ShardSource
// describes the topology one node at a time, so implicit shard-capable
// families (ParseShardHost: cycle, dcycle, torus, shift-regular) run
// hosts past the flat int32 capacity in bounded resident memory; any
// materialised host runs sharded through SourceOf. It runs the same
// WordAlgo values as the flat engine, and P=1 sharded output is
// byte-identical to the flat engine's, clean and faulty alike (fault
// coordinates stay global).
type (
	// ShardedEngine is the P-shard round engine.
	ShardedEngine = model.ShardedEngine
	// ShardSource generates a host's topology shard-locally.
	ShardSource = model.ShardSource
	// ShardArc is one labelled arc emitted by a ShardSource.
	ShardArc = model.ShardArc
	// ShardStats is one shard's occupancy and exchange snapshot.
	ShardStats = model.ShardStats
	// IDFunc assigns identifiers without materialising an id table.
	IDFunc = model.IDFunc
	// ShardedCVResult is a sharded Cole–Vishkin run's summary.
	ShardedCVResult = algorithms.ShardedCVResult
	// ShardedMatchingResult is a sharded matching run's summary.
	ShardedMatchingResult = algorithms.ShardedMatchingResult
)

var (
	NewShardedEngine                = model.NewShardedEngine
	ShardSourceOf                   = model.SourceOf
	MaterializeShardSource          = model.MaterializeSource
	SeededIDs                       = model.SeededIDs
	ParseShardHost                  = host.ParseShard
	ShardHostFamilies               = host.ShardFamilies
	ColeVishkinSharded              = algorithms.ColeVishkinMISSharded
	ColeVishkinShardedFaulty        = algorithms.ColeVishkinMISShardedFaulty
	RandomizedMatchingSharded       = algorithms.RandomizedMatchingSharded
	RandomizedMatchingShardedFaulty = algorithms.RandomizedMatchingShardedFaulty
	VisitShardedMatching            = algorithms.VisitShardedMatching
)

// Fault injection (DESIGN.md §8): every engine entry point has a
// *Faulty twin taking a Schedule built from a parseable profile
// descriptor. A faulty execution is a pure function of (host, ids,
// algorithm, profile descriptor, seed) — reproducible bit-for-bit,
// independent of worker count. ParseFaultProfile errors list the
// grammar; a nil Schedule (or the "clean" profile) is byte-identical
// to the clean engine.
var (
	ParseFaultProfile        = model.ParseProfile
	MustParseFaultProfile    = model.MustParseProfile
	FaultProfiles            = model.DescribeProfiles
	SimulatePORoundsFaulty   = model.SimulatePORoundsFaulty
	ColeVishkinFaulty        = algorithms.ColeVishkinMISFaulty
	RandomizedMatchingFaulty = algorithms.RandomizedMatchingFaulty
)

// Homogeneity measurement (Definition 3.1). MeasureHomogeneity scans
// through the batched ball-sweep engine (worker-local sweepers,
// copy-on-miss interning; see DESIGN.md §5); SweepMeasure is the same
// entry under its engine name. SweepMeasureAll is the layered
// multi-radius form (DESIGN.md §6): homogeneity at every radius
// 1..rmax (result[r-1]) from ONE whole-host pass — one BFS per
// vertex, canonicalised at each layer boundary, tallied by
// worker-local count maps — with each entry identical to a separate
// SweepMeasure call at that radius. NewSweeper exposes the per-worker
// scratch (CanonicalBall and the layered CanonicalBalls) for custom
// scan loops.
var (
	MeasureHomogeneity = order.Measure
	SweepMeasure       = order.SweepMeasure
	SweepMeasureAll    = order.SweepMeasureAll
	NewSweeper         = order.NewSweeper
	NewBallInterner    = order.NewInterner
)

// View gathering: each node's radius-r view tree by the
// level-synchronous assembly; GatheredTreesAll keeps every
// intermediate level — all radii 0..rmax from the single pass the
// deepest radius alone costs.
var (
	GatheredTrees    = model.GatheredTrees
	GatheredTreesAll = model.GatheredTreesAll
)

// Algorithms. RandomizedMatching runs the §6.5 one-round mutual
// proposals operationally on the engine.
var (
	EDSOneOut          = algorithms.EDSOneOut
	ECOneEdge          = algorithms.ECOneEdge
	DSAll              = algorithms.DSAll
	VCAll              = algorithms.VCAll
	VCEdgePacking      = algorithms.VCEdgePacking
	ColeVishkin        = algorithms.ColeVishkinMIS
	IDGreedyEDS        = algorithms.IDGreedyEDS
	RandomizedMatching = algorithms.RandomizedMatching
)

// Main-theorem machinery.
var (
	SearchHomogeneous    = homog.Search
	OIToPO               = core.OIToPO
	TransferOIToPO       = core.TransferOIToPO
	BuildHomogeneousLift = core.BuildHomogeneousLift
	CertifyPOLowerBound  = core.CertifyPOLowerBound
	IDToOI               = core.IDToOI
	Ratio                = problems.Ratio
	VerifyLocally        = problems.VerifyLocally
	AllExperiments       = experiments.All
	RunAllExperiments    = experiments.RunAll
)

// Deadline-aware entry points: RunGather (each node's radius-r view
// gathered by message passing on the engine, clean or under a
// Schedule) and the layered sweep thread a context.Context into the
// round loop and the sweep loop, where it is polled cooperatively — a
// cancelled run stops at the next round barrier (sweep: the next
// vertex batch), releases its workers and returns the wrapped context
// error. WordEngine.WithContext arms any other engine run the same way.
var (
	RunGather          = model.RunGather
	SweepMeasureAllCtx = order.SweepMeasureAllCtx
)

// The service layer (DESIGN.md §10): NewServer builds the handler
// cmd/localapproxd serves — admission control over the worker budget,
// per-request deadlines, panic isolation, a content-addressed result
// cache with singleflight collapse, and health/readiness/metrics
// endpoints with graceful drain.
type (
	// Server is the localapproxd http.Handler.
	Server = serve.Server
	// ServerConfig sizes a Server (zero values take the defaults).
	ServerConfig = serve.Config
)

// NewServer builds the hardened simulation-service handler.
var NewServer = serve.New

// Durable jobs and checkpoints (DESIGN.md §11): long-running workloads
// submitted over /v1/jobs checkpoint their engine (or certify
// enumeration) state into content-addressed, hash-verified snapshot
// files, survive crashes by resuming from the latest valid snapshot on
// OpenJobs, retry transient failures with backoff, and produce result
// bytes identical to an uninterrupted run. Engine snapshot/resume is
// also usable directly: Snapshot at a round barrier, Resume on a fresh
// word engine of the same host — byte-deterministic, clean and
// faulty alike.
type (
	// JobManager owns the worker pool, the job directory and the
	// lifecycle (attach to a Server with AttachJobs).
	JobManager = job.Manager
	// JobConfig sizes a JobManager (zero values take the defaults).
	JobConfig = job.Config
	// JobSpec is a job submission; its canonical encoding is the
	// job's content-addressed identity.
	JobSpec = job.Spec
	// JobStatus is the externally visible job record.
	JobStatus = job.Status
	// Snapshot is a round-barrier capture of a WordEngine's state.
	Snapshot = model.Snapshot
	// Checkpointer arms an engine with a periodic (or on-demand)
	// snapshot sink.
	Checkpointer = model.Checkpointer
	// CertifySnapshot is a cursor+catalogue capture of a certify
	// enumeration.
	CertifySnapshot = core.CertifySnapshot
	// CertifyOpts arms CertifyPOLowerBoundOpts with context,
	// progress, checkpointing and resume.
	CertifyOpts = core.CertifyOpts
)

var (
	OpenJobs                = job.Open
	DecodeSnapshot          = model.DecodeSnapshot
	DecodeCertifySnapshot   = core.DecodeCertifySnapshot
	CertifyPOLowerBoundOpts = core.CertifyPOLowerBoundOpts
)

// Panic isolation and budget introspection from the par runtime:
// Catch runs a function and converts a panic (its own or a worker's)
// into a *PanicError carrying the value and stack; WorkersInUse
// gauges currently reserved extra-worker slots (0 when idle — the
// serve tests assert the budget drains after cancellations).
type (
	// PanicError is a recovered panic as an error.
	PanicError = par.PanicError
)

var (
	CatchPanic   = par.Catch
	WorkersInUse = par.InUse
)

// Parallelism controls the worker-pool width of the scan-heavy paths
// (homogeneity measurement, view gathering, lift classification, the
// experiment suite). SetParallelism(1) forces the sequential fallback;
// SetParallelism(0) resets to the number of CPUs. Parallel and
// sequential runs produce identical results.
var (
	SetParallelism = par.Set
	Parallelism    = par.N
)
