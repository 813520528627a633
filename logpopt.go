// Package logpopt is a from-scratch Go implementation of
//
//	R. M. Karp, A. Sahay, E. E. Santos, K. E. Schauser.
//	"Optimal Broadcast and Summation in the LogP Model." SPAA 1993.
//
// It provides optimal communication schedules for single-item broadcast,
// k-item broadcast, continuous broadcast, all-to-all broadcast, all-to-all
// personalized communication, combining broadcast (all-reduce) and
// summation, on a LogP machine with parameters (P, L, o, g), plus the
// classic baselines (linear, flat, binary, binomial trees), a deterministic
// discrete-event LogP simulator, an event-driven message-passing runtime,
// an independent schedule validator, and text renderers reproducing the
// paper's figures.
//
// The package is a facade: the implementation lives under internal/, and
// the most used types and functions are re-exported here so that library
// users (and the examples under examples/) program against one import.
//
// Quick start:
//
//	m := logpopt.Machine{P: 8, L: 6, O: 2, G: 4} // Figure 1's machine
//	tree := logpopt.OptimalBroadcastTree(m, m.P)
//	fmt.Println(logpopt.BroadcastTime(m, m.P)) // 24
//	sched := logpopt.BroadcastSchedule(m, 0)
//	fmt.Println(logpopt.Gantt(sched))
//	_ = tree
package logpopt

import (
	"logpopt/internal/alltoall"
	"logpopt/internal/baseline"
	"logpopt/internal/combine"
	"logpopt/internal/continuous"
	"logpopt/internal/core"
	"logpopt/internal/kitem"
	"logpopt/internal/logp"
	"logpopt/internal/logtime"
	"logpopt/internal/runtime"
	"logpopt/internal/schedule"
	"logpopt/internal/sim"
	"logpopt/internal/summation"
	"logpopt/internal/trace"
)

// Machine model (internal/logp).
type (
	// Machine holds the LogP parameters P, L, o, g.
	Machine = logp.Machine
	// Time is a point or duration on the machine's cycle clock.
	Time = logp.Time
)

// Machine constructors and profiles.
var (
	// NewMachine validates and returns a machine.
	NewMachine = logp.New
	// MustMachine is NewMachine, panicking on invalid parameters.
	MustMachine = logp.MustNew
	// Postal returns the postal-model machine (o=0, g=1) of Section 3.
	Postal = logp.Postal

	// ProfileCM5 approximates a CM-5 node (the paper era's machine).
	ProfileCM5 = logp.ProfileCM5
	// ProfilePaperFig1 is Figure 1's machine: P=8, L=6, o=2, g=4.
	ProfilePaperFig1 = logp.ProfilePaperFig1
	// ProfilePaperFig6 is Figure 6's machine: P=8, L=5, o=2, g=4.
	ProfilePaperFig6 = logp.ProfilePaperFig6
	// ProfileEthernetCluster approximates a workstation cluster.
	ProfileEthernetCluster = logp.ProfileEthernetCluster
	// ProfileLowLatency approximates a tightly coupled MPP.
	ProfileLowLatency = logp.ProfileLowLatency
)

// Schedules and validation (internal/schedule).
type (
	// Schedule is a timed list of send/recv/compute events.
	Schedule = schedule.Schedule
	// Event is one timed action at one processor.
	Event = schedule.Event
	// Violation describes one broken LogP constraint.
	Violation = schedule.Violation
	// Origin records where and when an item enters the system.
	Origin = schedule.Origin
)

var (
	// Validate checks a schedule against the LogP rules (exact receptions).
	Validate = schedule.Validate
	// ValidateDeferred allows buffered receptions (Section 3.5's model).
	ValidateDeferred = schedule.ValidateDeferred
	// ValidateBroadcastSchedule additionally checks availability and
	// completeness for the given item origins.
	ValidateBroadcastSchedule = schedule.ValidateBroadcast
	// ReadScheduleJSON deserializes a schedule written with
	// Schedule.WriteJSON.
	ReadScheduleJSON = schedule.ReadJSON
)

// Single-item broadcast (Section 2; internal/core).
type (
	// Tree is a rooted, ordered, labeled broadcast tree.
	Tree = core.Tree
	// TreeNode is one node of a broadcast tree.
	TreeNode = core.Node
	// Seq is the generalized Fibonacci sequence {f_i} of Definition 2.5.
	Seq = core.Seq
)

var (
	// NewSeq returns the {f_i} sequence for a postal latency L.
	NewSeq = core.NewSeq
	// OptimalBroadcastTree returns ß(P), the optimal broadcast tree
	// (Theorem 2.1), built by the search-free counting construction.
	OptimalBroadcastTree = logtime.Tree
	// BroadcastTime returns B(P; L,o,g), the optimal broadcast time, read
	// off the counting tables without building a tree.
	BroadcastTime = logtime.B
	// BroadcastSchedule expands the optimal tree into a schedule.
	BroadcastSchedule = logtime.BroadcastSchedule
	// TreeSchedule expands any broadcast tree with an explicit processor
	// assignment and time offset.
	TreeSchedule = core.TreeSchedule
	// BroadcastOrigins returns the origin map of a single broadcast from
	// processor 0.
	BroadcastOrigins = core.Origins
)

// Reachable returns P(t; L,o,g), the maximum number of processors reachable
// in t steps (Definition 2.2, Theorem 2.2), saturating at maxCount (<= 0
// selects 1<<40). It is read off the counting tables behind
// OptimalBroadcastTree, in time independent of t. The tables are built for
// the call and freed on return, so a large maxCount never grows what the
// process keeps (counting to the default cap takes O(L) label points on
// postal machines).
func Reachable(m Machine, t Time, maxCount int64) int64 {
	return logtime.MustBuilder(m).Count(t, maxCount)
}

// Per-rank queries against the search-free construction behind the
// broadcast functions above (internal/logtime; DESIGN.md §5b): the tree is
// described by counting label points, so any single processor's entry is
// answerable in O(log P) without materializing ß(P).
type (
	// LogtimeBuilder holds the counting tables of the universal optimal
	// broadcast tree for one machine shape, grown lazily for every P
	// queried on it. It is for one goroutine at a time.
	LogtimeBuilder = logtime.Builder
	// LogtimeNodeInfo describes one node of ß(P) by rank: label, parent,
	// send time, and children, answerable without materializing the tree.
	LogtimeNodeInfo = logtime.NodeInfo
)

// LogtimeNode answers a per-rank query against ß(P) without materializing
// the tree, on counting tables built for the call and freed on return.
var LogtimeNode = logtime.Node

// k-item broadcast (Sections 3, 3.4, 3.5; internal/kitem).
type (
	// KItemBounds collects the bounds of Theorems 3.1 and 3.6 and the
	// single-sending bound.
	KItemBounds = kitem.Bounds
	// KItemResult reports a greedy k-item run.
	KItemResult = kitem.Result
	// BlockDigraph is the block transmission digraph of Figure 3.
	BlockDigraph = kitem.BlockDigraph
)

// Reception disciplines for the greedy k-item scheduler.
const (
	// KItemStrict is the plain postal model.
	KItemStrict = kitem.Strict
	// KItemBuffered is the modified model of Theorem 3.8.
	KItemBuffered = kitem.Buffered
)

var (
	// KItemBoundsFor computes the k-item bounds for (L, P, k).
	KItemBoundsFor = kitem.BoundsFor
	// KItemOptimal builds the optimal single-sending k-item schedule for
	// P-1 = P(t) via the continuous-broadcast construction.
	KItemOptimal = kitem.ViaContinuous
	// KItemOptimalGeneral builds the exact single-sending-optimal k-item
	// schedule for arbitrary P via the general block-cyclic construction
	// (beyond the paper's P(t) grid; can fail for L=2 near capacity).
	KItemOptimalGeneral = kitem.OptimalGeneral
	// KItemStaggered builds a buffered staggered-tree k-item schedule
	// (Theorem 3.8's model): when it succeeds it meets the single-sending
	// bound exactly with a small input buffer.
	KItemStaggered = kitem.Staggered
	// KItemGreedy builds a single-sending k-item schedule for any P and k.
	KItemGreedy = kitem.Greedy
	// KItemSearchOptimal finds the true optimum of a tiny instance by
	// exhaustive branch-and-bound (multi-sending allowed).
	KItemSearchOptimal = kitem.SearchOptimal
	// KItemOrigins returns the origin map for a k-item broadcast.
	KItemOrigins = kitem.Origins
	// DeriveBlockDigraph derives Figure 3's digraph from a block-cyclic
	// assignment.
	DeriveBlockDigraph = kitem.DeriveBlockDigraph
)

// Continuous broadcast (Sections 3.1-3.3; internal/continuous).
type (
	// ContinuousInstance is one continuous-broadcast scheduling problem.
	ContinuousInstance = continuous.Instance
	// ContinuousAssignment maps tree nodes to processors per item.
	ContinuousAssignment = continuous.Assignment
)

var (
	// NewContinuous builds the instance for latency l and horizon t
	// (P-1 = P(t)).
	NewContinuous = continuous.NewInstance
	// ContinuousSolveAndSchedule solves an instance and emits a k-item
	// schedule with per-item delay exactly L + B(P-1).
	ContinuousSolveAndSchedule = continuous.SolveAndSchedule
	// ContinuousSolveGeneral is SolveAndSchedule for an arbitrary number of
	// non-source processors (beyond the paper's P(t) grid).
	ContinuousSolveGeneral = continuous.SolveGeneralAndSchedule
	// NewContinuousGeneral builds the general instance without solving it.
	NewContinuousGeneral = continuous.NewInstanceGeneral
	// ContinuousL2 builds the Theorem 3.5 construction for L=2 (delay
	// L + B(P-1) + 1).
	ContinuousL2 = continuous.SolveL2
	// ContinuousOrigins returns the origin map for a k-item continuous
	// broadcast.
	ContinuousOrigins = continuous.Origins
	// VerifyContinuousDelay checks per-item delays in a schedule.
	VerifyContinuousDelay = continuous.VerifyDelay
)

// All-to-all broadcast and personalized communication (Section 4.1).
var (
	// AllToAllSchedule returns the optimal k-item all-to-all broadcast.
	AllToAllSchedule = alltoall.Schedule
	// AllToAllLowerBound returns L + 2o + (k(P-1)-1)g.
	AllToAllLowerBound = alltoall.LowerBound
	// AllToAllOrigins returns the origin map for a k-item all-to-all.
	AllToAllOrigins = alltoall.Origins
	// PersonalizedSchedule returns optimal all-to-all personalized
	// communication.
	PersonalizedSchedule = alltoall.Personalized
	// ScatterSchedule returns the optimal one-to-all personalized schedule.
	ScatterSchedule = alltoall.Scatter
	// GatherSchedule returns the optimal all-to-one personalized schedule.
	GatherSchedule = alltoall.Gather
	// ScatterLowerBound returns L + 2o + (P-2)g.
	ScatterLowerBound = alltoall.ScatterLowerBound
	// AllToAllWithPermutations schedules an arbitrary legal permutation
	// family.
	AllToAllWithPermutations = alltoall.ScheduleWithPermutations
)

// Combining broadcast and reduction (Section 4.2; internal/combine).
type (
	// CombineSegment is the cyclic index interval a processor's value covers.
	CombineSegment = combine.Segment
)

var (
	// CombineTimeFor returns the optimal combining-broadcast time for P
	// processors.
	CombineTimeFor = combine.TimeFor
	// CombineExact reports whether P = P(T) exactly.
	CombineExact = combine.Exact
	// CombineSchedule returns Theorem 4.1's communication schedule.
	CombineSchedule = combine.Schedule
	// CombineSegments runs the algorithm symbolically and verifies the
	// invariant of Theorem 4.1.
	CombineSegments = combine.RunSegments
	// ReduceSchedule returns the reversed-tree all-to-one reduction.
	ReduceSchedule = combine.ReduceSchedule
	// ScanRanks returns the preorder ranking used by the two-sweep scan.
	ScanRanks = combine.ScanRanks
	// ScanSchedule returns the two-sweep prefix-scan schedule (extension;
	// completes at 2 B(P)).
	ScanSchedule = combine.ScanSchedule
)

// ScanRun executes the two-sweep inclusive prefix scan (extension beyond the
// paper): res[i] is the prefix over preorder ranks <= rank[i], combined in
// rank order, finishing at 2 B(P).
func ScanRun[V any](m Machine, vals []V, op func(V, V) V) ([]V, Time, error) {
	return combine.ScanRun(m, vals, op)
}

// CombineRun executes the combining broadcast with real values; every
// processor ends with the reduction of all P values (for commutative op).
func CombineRun[V any](l int, T int, vals []V, op func(V, V) V) ([]V, error) {
	return combine.Run(l, T, vals, op)
}

// ReduceRun executes the reversed-tree reduction with real values.
func ReduceRun[V any](m Machine, vals []V, op func(V, V) V) (V, Time, error) {
	return combine.ReduceRun(m, vals, op)
}

// Summation (Section 5; internal/summation).
type (
	// SummationPlan is a complete optimal summation schedule.
	SummationPlan = summation.Plan
	// SummationFoldOp is one accumulator update in a plan's timeline.
	SummationFoldOp = summation.FoldOp
)

// Kinds of accumulator updates in a summation plan.
const (
	// SummationOpLocal folds the processor's next local operand.
	SummationOpLocal = summation.OpLocal
	// SummationOpRecvFold folds a received partial sum.
	SummationOpRecvFold = summation.OpRecvFold
)

var (
	// SummationCapacity returns n(t), the operand capacity of Lemma 5.1.
	SummationCapacity = summation.Capacity
	// SummationTimeFor returns the optimal time to sum n operands.
	SummationTimeFor = summation.TimeFor
	// BuildSummation constructs the optimal summation plan for a deadline.
	BuildSummation = summation.Build
)

// ExecuteSummation runs a summation plan on concrete operands. With the
// plan's in-order operand numbering the result equals the left-to-right
// fold even for non-commutative operations.
func ExecuteSummation[V any](pl *SummationPlan, operands []V, op func(V, V) V) (V, error) {
	return summation.Execute(pl, operands, op)
}

// Baselines (internal/baseline).
var (
	// LinearTree is the chain broadcast baseline.
	LinearTree = baseline.LinearTree
	// FlatTree is the source-sends-all baseline.
	FlatTree = baseline.FlatTree
	// BinaryTree is the balanced binary tree baseline.
	BinaryTree = baseline.BinaryTree
	// BinomialTree is the classical binomial tree baseline.
	BinomialTree = baseline.BinomialTree
	// BaselineTreeTime returns a baseline tree's completion time.
	BaselineTreeTime = baseline.TreeTime
	// SequentialPipelined is the naive k-item broadcast baseline.
	SequentialPipelined = baseline.SequentialPipelined
	// ReduceThenBroadcastTime is the naive combining baseline's time (2B).
	ReduceThenBroadcastTime = baseline.ReduceThenBroadcastTime
)

// Simulation (internal/sim) and concurrent runtime (internal/runtime).
type (
	// Engine is the discrete-event LogP machine simulator.
	Engine = sim.Engine
	// SimReport summarizes a simulation run.
	SimReport = sim.Report
	// Runtime executes per-processor handlers in event-driven virtual time:
	// a handler runs at time 0, on receptions and at requested wakes.
	Runtime = runtime.Runtime
	// Proc is the per-processor handle passed to runtime handlers.
	Proc = runtime.Proc
	// Handler is a processor program, run at time 0, when the processor
	// receives and when a wake it requested with Proc.WakeAt comes due.
	Handler = runtime.Handler
	// Message is a payload-carrying runtime message.
	Message = runtime.Message
)

// Simulator and runtime constructors.
var (
	// NewEngine returns a fresh simulator.
	NewEngine = sim.New
	// SimRun replays a schedule's sends on the simulator.
	SimRun = sim.Run
	// NewRuntime returns an event-driven runtime for P handlers.
	NewRuntime = runtime.New
	// ScheduleHandlers converts a schedule into replay handlers.
	ScheduleHandlers = runtime.ScheduleHandlers
	// RuntimeHorizon bounds a schedule replay's virtual time.
	RuntimeHorizon = runtime.Horizon
)

// Reception disciplines for the simulator and runtime.
const (
	// SimStrict receives arrivals immediately.
	SimStrict = sim.Strict
	// SimBuffered queues arrivals (Section 3.5's modified model).
	SimBuffered = sim.Buffered
	// RTStrict is the runtime's strict mode.
	RTStrict = runtime.Strict
	// RTBuffered is the runtime's buffered mode.
	RTBuffered = runtime.Buffered
)

// Rendering (internal/trace).
var (
	// Gantt renders a per-processor activity chart (Figures 1 and 6).
	Gantt = trace.Gantt
	// ReceptionTable renders (processor, time) -> item (Figures 2 and 5).
	ReceptionTable = trace.ReceptionTable
	// BlockTable renders the reception table of selected processors
	// (Figure 4).
	BlockTable = trace.BlockTable
	// TimelineSVG renders a schedule as a self-contained SVG timeline.
	TimelineSVG = trace.SVG
)
