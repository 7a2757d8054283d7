// Package vm interprets isa.Program images and produces the exact
// dynamic measurements the paper's tools collected: total RISC-level
// instruction counts (MFPixie's job), per-static-branch taken/total
// counts (IFPROBBER's job), and counts of every other kind of control
// transfer, which the break-in-control metrics classify as avoidable
// or unavoidable.
//
// The interpreter is deterministic and single-threaded: the same
// program and input always produce the same counts.
package vm

import (
	"errors"
	"fmt"

	"branchprof/internal/isa"
)

// TransferKind classifies non-branch control transfers for tracers.
type TransferKind uint8

// Transfer kinds reported to a Tracer.
const (
	TransferJump TransferKind = iota
	TransferCall
	TransferReturn
	TransferIndirectCall
	TransferIndirectReturn
)

// String names the transfer kind.
func (k TransferKind) String() string {
	switch k {
	case TransferJump:
		return "jump"
	case TransferCall:
		return "call"
	case TransferReturn:
		return "return"
	case TransferIndirectCall:
		return "indirect-call"
	case TransferIndirectReturn:
		return "indirect-return"
	}
	return "transfer(?)"
}

// Tracer observes control transfers as they execute. instrs is the
// number of instructions executed so far including the transferring
// one, so tracers can measure distances between events. Tracers are
// only consulted at control transfers, never per instruction, so the
// interpreter stays fast.
//
// A Tracer may also implement Flusher. Image.Run and RunInterpreter
// (and so the package-level Run) call its Flush exactly once when the
// run returns, after the last event, on every return path: normal
// exit, trap, ErrFuel and cancellation. A tracer that buffers events
// therefore needs no help from its caller to see the complete stream.
type Tracer interface {
	// Branch is called at every conditional branch execution.
	Branch(site int32, taken bool, instrs uint64)
	// Transfer is called at every jump, call and return.
	Transfer(kind TransferKind, instrs uint64)
}

// Flusher is the optional end-of-run half of the Tracer contract.
type Flusher interface {
	Flush()
}

// EventKind says what an Event records: a conditional branch's
// outcome, or (from EventTransfer on) a non-branch transfer.
type EventKind uint8

// Event kinds. A transfer of TransferKind k is EventTransfer+k.
const (
	EventNotTaken EventKind = iota
	EventTaken
	EventTransfer
)

// Event is one control transfer exactly as a Tracer is told about it:
// a branch site and outcome, or a transfer kind, with the instruction
// count at the event. Tracers that buffer the stream (internal/dynpred's
// Multi) store and deliver it as Events.
type Event struct {
	Instrs uint64
	Site   int32 // branch site id; 0 for a transfer
	Kind   EventKind
}

// BranchEvent is the Event for Tracer.Branch(site, taken, instrs).
func BranchEvent(site int32, taken bool, instrs uint64) Event {
	k := EventNotTaken
	if taken {
		k = EventTaken
	}
	return Event{Instrs: instrs, Site: site, Kind: k}
}

// TransferEvent is the Event for Tracer.Transfer(kind, instrs).
func TransferEvent(kind TransferKind, instrs uint64) Event {
	return Event{Instrs: instrs, Kind: EventTransfer + EventKind(kind)}
}

// IsBranch reports whether e is a conditional branch.
func (e Event) IsBranch() bool { return e.Kind < EventTransfer }

// Taken reports whether e is a taken conditional branch.
func (e Event) Taken() bool { return e.Kind == EventTaken }

// Transfer returns a transfer event's kind.
func (e Event) Transfer() TransferKind { return TransferKind(e.Kind - EventTransfer) }

// SemanticsVersion identifies the observable semantics of the
// interpreter: the exact instruction counts, branch outcomes, output
// bytes and trap behaviour a run produces. Persisted measurements
// (internal/engine's content-addressed cache) embed it in their keys,
// so bumping it invalidates every cached result. Bump it whenever a
// change to the interpreter alters any counter or observable result.
const SemanticsVersion = 1

// Config controls resource limits and optional measurements.
type Config struct {
	// Fuel is the maximum number of instructions to execute; 0 means
	// the default of 2^33 (comfortably above every workload here).
	Fuel uint64
	// MaxDepth limits call nesting; 0 means 100000.
	MaxDepth int
	// MaxOutput limits the output buffer; 0 means 1<<26 bytes.
	MaxOutput int
	// PerPC, when true, records per-instruction execution counts
	// (MFPixie's detailed mode). Costs one slice per function.
	PerPC bool
	// Trace, when non-nil, observes every control transfer (used by
	// the dynamic-predictor and run-length extensions).
	Trace Tracer
	// Done, when non-nil, cancels the run cooperatively: the
	// interpreter polls it every few thousand instructions and returns
	// an error wrapping ErrCancelled once it is closed. Like Trace it
	// is excluded from Fingerprint — cancellation never changes what a
	// completed run would have measured, and a cancelled run is never
	// cached.
	Done <-chan struct{}
	// Sample, when non-nil, receives the current call stack (function
	// indices, outermost first) at the same few-thousand-instruction
	// cadence as the Done poll — the VM-level sampling profiler behind
	// the observability layer's flamegraphs. The stack slice is reused
	// between calls and must not be retained. Like Trace and Done it is
	// excluded from Fingerprint: sampling observes a run without
	// changing any measurement. Note that cache-served measurements
	// never execute, so they contribute no samples.
	Sample func(stack []int32, instrs uint64)
}

func (c *Config) fill() {
	if c.Fuel == 0 {
		c.Fuel = 1 << 33
	}
	if c.MaxDepth == 0 {
		c.MaxDepth = 100000
	}
	if c.MaxOutput == 0 {
		c.MaxOutput = 1 << 26
	}
}

// Fingerprint returns a canonical string covering every configuration
// field that can affect a run's measurements, with defaults resolved
// first so a nil config and an explicitly defaulted one fingerprint
// identically. The tracer and the done channel are deliberately
// excluded: tracers observe a run without changing its counters (and
// traced runs are never served from a cache), and cancellation either
// aborts a run — which is then never cached — or changes nothing.
// A nil receiver is valid and means the default config.
func (c *Config) Fingerprint() string {
	var d Config
	if c != nil {
		d = *c
	}
	d.fill()
	return fmt.Sprintf("fuel=%d,depth=%d,out=%d,perpc=%t", d.Fuel, d.MaxDepth, d.MaxOutput, d.PerPC)
}

// Result holds everything measured during a run.
type Result struct {
	// Instrs is the total number of RISC-level instructions executed,
	// including branches, calls and returns.
	Instrs uint64
	// ExitCode is main's return value.
	ExitCode int64
	// Output is everything written with putc.
	Output []byte

	// SiteTaken[i] and SiteTotal[i] count, for static branch site i,
	// how often the branch was taken and how often it executed.
	SiteTaken []uint64
	SiteTotal []uint64

	// Control-transfer event counts other than conditional branches.
	Jumps           uint64 // unconditional jumps executed
	DirectCalls     uint64
	DirectReturns   uint64
	IndirectCalls   uint64
	IndirectReturns uint64

	// MaxDepth is the deepest call nesting reached.
	MaxDepth int

	// PerPC[f][pc] is the execution count of instruction pc of
	// function f; nil unless Config.PerPC was set.
	PerPC [][]uint64
}

// CondBranches returns the total number of conditional branches executed.
func (r *Result) CondBranches() uint64 {
	var n uint64
	for _, t := range r.SiteTotal {
		n += t
	}
	return n
}

// TakenBranches returns the total number of taken conditional branches.
func (r *Result) TakenBranches() uint64 {
	var n uint64
	for _, t := range r.SiteTaken {
		n += t
	}
	return n
}

// ErrFuel is returned (wrapped) when the instruction budget runs out.
var ErrFuel = errors.New("vm: fuel exhausted")

// ErrCancelled is returned (wrapped) when Config.Done closes mid-run.
var ErrCancelled = errors.New("vm: run cancelled")

// RuntimeError describes a trap during execution: where it happened
// (both the program-wide PC and the function-relative one) and how far
// the run had progressed.
type RuntimeError struct {
	Func     string // trapping function's name
	PC       int    // program counter within Func
	GlobalPC int    // program-wide PC (functions laid out in index order)
	Instrs   uint64 // instructions executed when the trap fired
	Msg      string
}

func (e *RuntimeError) Error() string {
	return fmt.Sprintf("vm: trap at pc=%d (%s+%d) after %d instrs: %s",
		e.GlobalPC, e.Func, e.PC, e.Instrs, e.Msg)
}

// frame is one call record. All fields are 32-bit so a frame fits in
// 32 bytes: pushes and pops are on the interpreter's hottest path,
// and function counts, code lengths (verified < 2^31) and register
// slab sizes all fit comfortably.
type frame struct {
	fn     int32 // function index
	retPC  int32 // caller pc to resume at
	iBase  int32 // caller's int register window base
	fBase  int32 // caller's float register window base
	resReg int32 // caller register receiving the result
	// retDpc and retN pre-resolve the return edge for the headerless
	// stream: the caller's continuation dinstr and the instruction
	// count of the block it starts (credited when the edge is taken).
	retDpc   int32
	retN     int32
	indirect bool // whether this frame was entered via OpICall
}

// Run executes the program on the given input and returns the
// measurements. A nil cfg uses defaults. It decodes p afresh on every
// call; callers that run a program repeatedly should Load it once and
// call Image.Run, as the engine does through its Image LRU.
func Run(p *isa.Program, input []byte, cfg *Config) (*Result, error) {
	return Load(p).Run(input, cfg)
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
