// Pre-decode: compile an isa.Program once into a dense, verified,
// block-structured internal form the fast dispatch loop (fast.go)
// executes without per-instruction fuel, poll, pc-bounds, or
// observability checks.
//
// The load-time pass
//
//   - verifies every statically checkable trap condition (function
//     table shape, branch/jump targets, branch sites, terminators) so
//     the hot loop can drop those checks; programs that fail
//     verification fall back to the reference interpreter, which
//     reproduces their dynamic trap behaviour exactly;
//   - segments each function into basic blocks (capped at
//     maxBlockLen original instructions) and batches fuel and
//     instruction accounting per block: in the plain stream every
//     control transfer credits its successor block's instruction
//     count as it takes the edge ("edge accounting"), so straight
//     mirrors of the isa ops carry no accounting at all; headered
//     streams (PerPC, Trace) put the same credit in an explicit block
//     header. Either way, one "will an event fire inside this block?"
//     comparison replaces n per-instruction checks, with the step
//     loop (step.go) replaying event-adjacent windows one
//     instruction at a time so ErrFuel and the Done/Sample poll fire
//     at exactly the same instruction counts as before;
//   - fuses frequent adjacent pairs (and a few triples) into
//     superinstructions — compare+branch, ldi+alu, ldi+compare,
//     load+use, mul+add, fld+fmul, mov+call and friends — that
//     execute both halves' register and memory effects in the
//     original order, so values and out-of-range panics are
//     position-identical;
//   - specializes by configuration: four opcode streams keyed by
//     (Trace?, PerPC?) are built lazily and memoized on the Image, so
//     the plain cached-collection path pays zero per-instruction
//     conditionals for observability it isn't using. Traced streams
//     swap every control transfer for a tracing twin; PerPC streams
//     use counting block headers whose per-block counters expand into
//     exact per-pc counts when the run finishes.
//
// Nothing here changes observable semantics: Result counters, output
// bytes, exit codes, trap classification, and panic behaviour are
// bit-identical to the reference interpreter (differential_test.go,
// FuzzVMDifferential), so SemanticsVersion stays at 1 and persisted
// engine caches remain valid.
package vm

import (
	"math"
	"sync"

	"branchprof/internal/isa"
)

// maxBlockLen caps how many original instructions one block may
// credit at once. Events (fuel, polls) are at least 4096 instructions
// apart, so a small cap keeps the fast path covering ≥ ~94% of
// instructions even in polled runs while bounding how long the step
// loop interprets around each event. It must fit in a byte: branch
// superinstructions pack both successors' counts into rem.
const maxBlockLen = 255

// dop is the internal operation set. It mirrors the isa ops and adds
// block bookkeeping, fused pairs/triples, tracing twins of the
// control ops, and the edge-accounting ("N") control forms used by
// the headerless plain stream.
type dop uint8

const (
	// Block bookkeeping.
	dBlock    dop = iota // header: pre-credit a (=n) instructions or bail to step mode
	dBlockCnt            // header that also bumps blockCounts[fn][x]
	dToStep              // resume one-at-a-time interpretation at pc a (end-of-code sentinel)

	// Straight mirrors of the isa ops.
	dNop
	dAdd
	dSub
	dMul
	dDiv
	dRem
	dAnd
	dOr
	dXor
	dShl
	dShr
	dNeg
	dNot
	dSlt
	dSle
	dSeq
	dSne
	dFAdd
	dFSub
	dFMul
	dFDiv
	dFNeg
	dFSlt
	dFSle
	dFSeq
	dFSne
	dCvtIF
	dCvtFI
	dLdi
	dLdf // float immediate carried as bits in imm
	dMov
	dFMov
	dLd
	dSt
	dFLd
	dFSt
	dBr
	dJmp
	dCall
	dICall
	dRet
	dGetc
	dPutc
	dHalt
	dSqrt
	dSin
	dCos
	dExp
	dLog
	dFAbs
	dFloor
	dPow
	dSel
	dFSel
	dBadOp // unknown op: trap "unimplemented op" (original op value in imm)

	// Fused superinstructions (non-control; all streams). Each
	// executes its halves in original order.
	dSltBr // slt c,a,b ; br c  →  one compare-and-branch (headered streams)
	dSleBr
	dSeqBr
	dSneBr
	dLdiAdd // ldi c,imm ; add x,a,b
	dLdiSub
	dLdiMul
	dLdiSlt // ldi c,imm ; slt x,a,b
	dLdiSle
	dLdiSeq
	dLdiSne
	dLdiLd  // ldi c,imm ; ld x,[b+target]
	dLdAdd  // ld c,[a+imm] ; add x,c,b (commuted: loaded value left)
	dLdMov  // ld c,[a+imm] ; mov x,target
	dLdSlt  // ld c,[a+imm] ; slt x,b,target
	dLdSeq  // ld c,[a+imm] ; seq x,b,target
	dLdLd   // ld c,[a+target] ; ld x,[b+imm]
	dMulAdd // mul c,a,b ; add x,c,target (commuted)
	dAddMov // add c,a,b ; mov x,target
	dAddFld // add c,a,b ; fld x,[c+imm]
	dSltSne // slt c,a,b ; sne x,c,target (!= is symmetric)
	dSeqSne // seq c,a,b ; sne x,c,target
	dFldMul // fld c,[a+imm] ; fmul x,c,target (commuted)
	dFldLdi // fld c,[a+target] ; ldi x,imm
	dFMulAdd
	dFAddMov // fadd c,a,b ; fmov x,target
	dFMovLdi // fmov c,a ; ldi x,imm
	dMovLdi  // mov c,a ; ldi x,imm

	// Tracing twins used by Trace-configured streams.
	dBrT
	dJmpT
	dCallT
	dICallT
	dRetT

	// Edge-accounting control forms for the headerless plain stream.
	// Each checks and credits its successor block's count (packed in
	// rem) as it takes the edge, bailing to step mode when an event
	// would fire inside the successor.
	dFall   // fall into the next leader: credit rem instructions
	dBrN    // br a (site x): taken → target crediting rem>>8, else dpc+1 crediting rem&0xff
	dJmpN   // jmp → target crediting rem
	dCallN  // call fi=target, entry dpc x, credit rem>>8; frame remembers rem&0xff for the return edge
	dICallN // icall [a]: entry dpc/count from entryDpc/entryN; frame remembers rem for the return edge
	dRetN   // ret a: return edge credits the frame's recorded count
	dSltBrN // fused compare-and-branch, edge-accounting form
	dSleBrN
	dSeqBrN
	dSneBrN
	dLdiBrN // ldi c,imm ; br a (site x)
	dLdiSltBrN
	dLdiSleBrN
	dLdiSeqBrN
	dLdiSneBrN
	dMovCallN // mov then call; mov regs and return pc packed in imm
	dLdiRetN  // ldi c,imm ; ret a
	dSneFall  // sne c,a,b then fall edge
	dSneJmpN  // sne c,a,b ; jmp
	dLdiJmpN  // ldi c,imm ; jmp
	dLdiSltSne
	dLdiSeqSne
	dLdiSltSneFall // ldi ; slt ; sne then fall edge
	dLdiSeqSneFall
	dLdiSltSneJmpN // ldi ; slt ; sne ; jmp
	dLdiSeqSneJmpN
	dLdRetN // ld c,[a+b] ; ret x
	dStRetN // st [a+b],c ; ret x
	// ldi ; ld ; seq comparing the loaded value with the immediate ;
	// br on the compare. The load destination spills to eImm.
	dLdiLdSeqBrN
)

// dinstr is one pre-decoded operation, exactly 32 bytes so the
// dispatch loop indexes the stream with a power-of-two stride. Field
// roles vary by op (see the builder). rem counts the original
// instructions of the enclosing block that come strictly after the
// ones this dinstr covers — traps recover the exact pc and
// instruction count from it plus the per-block tables (the
// edge-accounting control ops, which cannot overshoot mid-block,
// repurpose rem for successor block counts instead).
type dinstr struct {
	op     dop
	rem    uint16
	a      int32
	b      int32
	c      int32
	x      int32 // site (branches), second result (fused), block index (headers)
	target int32 // branch/jump: target dpc; call: callee function index
	imm    int64
}

// blockInfo locates one basic block in its function's original code.
type blockInfo struct {
	start int32 // original pc of the first instruction
	n     int32 // original instruction count (≤ maxBlockLen)
}

// variant is one specialized opcode stream for a (Trace?, PerPC?)
// configuration: per-function dinstr code plus the tables the fast
// and step loops use to move between dinstr and original pcs.
//
//	hdr[fn][pc]  dpc of the block starting at original pc (or -1);
//	             hdr[fn][len(code)] is a dToStep sentinel
//	             reproducing the fall-off-the-end trap
//	nAt[fn][pc]  instruction count of the block starting at pc (or -1)
//	bDpc[fn][bi] dpc of block bi's first dinstr (+ sentinel entry),
//	             so a binary search recovers the block of any dpc
//	bPC[fn][bi]  original pc of block bi's start (+ len(code))
//	bN[fn][bi]   original instruction count of block bi (+ 0)
type variant struct {
	headerless bool
	code       [][]dinstr
	hdr        [][]int32
	nAt        [][]int32
	bDpc       [][]int32
	bPC        [][]int32
	bN         [][]int32
	entryDpc   []int32 // per function: dpc of the entry block (headerless calls)
	entryN     []int32 // per function: entry block instruction count
	// tPC[fn][dpc] is the original taken-target pc of the branch or
	// jump dinstr at dpc (headerless stream only). Jump threading
	// redirects dinstr targets past singleton-jump blocks, so the
	// step loop's resume pc must be recovered from here, not from the
	// (possibly threaded) target dpc. Read only on event bail-outs.
	tPC [][]int32
	// eImm[fn][dpc] is spill space for superinstructions whose dinstr
	// fields are full: branch trios pack the threaded fall edge
	// (landing dpc and both edges' skipped-jump counts) here exactly
	// as dBrN packs its imm; the cmp+sne quads pack the compare's
	// destination register and the edge's skipped-jump count.
	eImm [][]int64
}

// Variant stream keys: bit 0 = PerPC, bit 1 = Trace.
const (
	vPlain  = 0
	vPerPC  = 1
	vTrace  = 2
	vTraceP = 3
)

// funcMeta is the call-path subset of isa.Func, packed into 16 bytes
// so the dispatch loop's call and return machinery reads one compact
// cache line instead of chasing the full Func struct.
type funcMeta struct {
	numI    int32
	numF    int32
	nparams int32
	kind    isa.FuncKind
	intOnly bool // no float parameters: staging is a straight copy loop
}

// Image is a pre-decoded, verified program ready to run. Loading is
// separable from running so callers that execute the same program
// many times (the engine memoizes Images alongside compiles) pay the
// decode and verification cost once. An Image is safe for concurrent
// Run calls.
type Image struct {
	prog     *isa.Program
	fallback bool  // failed verification: Run uses the reference interpreter
	funcBase []int // global pc of each function's first instruction
	blocks   [][]blockInfo
	fmeta    []funcMeta

	// compiled is the ahead-of-time generated body registered for
	// this program (backend.go), bound once at Load; nil when none
	// is registered. Run prefers it over the interpreter unless the
	// backend is disabled.
	compiled CompiledFunc

	mu       sync.Mutex
	variants [4]*variant

	// memPool holds *memBuf pairs from finished runs, dirty-span
	// restored and ready for the next Run (mem.go).
	memPool sync.Pool
}

// Program returns the program this image was pre-decoded from.
// Callers memoizing images can use it to confirm an image still
// belongs to the program they hold.
func (im *Image) Program() *isa.Program { return im.prog }

// Load pre-decodes and verifies p. It never fails: programs with
// statically detectable bad shapes (empty functions, missing
// terminators, out-of-range targets or sites) are marked for the
// reference interpreter instead, which reproduces their trap and
// panic behaviour exactly.
func Load(p *isa.Program) *Image { return LoadDigest(p, digestOf(p)) }

// LoadDigest is Load for a caller that memoizes p's isa.ProgramDigest
// (the engine does, per program): digest returns it and is called
// only when a compiled body could bind, so the program is hashed at
// most once across Load and the caller's own uses.
func LoadDigest(p *isa.Program, digest func() string) *Image {
	im := &Image{prog: p}
	im.funcBase = make([]int, len(p.Funcs))
	base := 0
	for i := range p.Funcs {
		im.funcBase[i] = base
		base += len(p.Funcs[i].Code)
	}
	if !verify(p) {
		im.fallback = true
		return im
	}
	im.compiled = compiledFor(digest)
	im.fmeta = make([]funcMeta, len(p.Funcs))
	for fi := range p.Funcs {
		f := &p.Funcs[fi]
		fm := funcMeta{
			numI:    int32(f.NumIRegs),
			numF:    int32(f.NumFRegs),
			nparams: int32(f.NumParams),
			kind:    f.Kind,
			intOnly: true,
		}
		for pi := 0; pi < f.NumParams && pi < len(f.FParams); pi++ {
			if f.FParams[pi] {
				fm.intOnly = false
				break
			}
		}
		im.fmeta[fi] = fm
	}
	im.blocks = make([][]blockInfo, len(p.Funcs))
	for fi := range p.Funcs {
		im.blocks[fi] = splitBlocks(p.Funcs[fi].Code)
	}
	return im
}

// Prog returns the program this image was loaded from.
func (im *Image) Prog() *isa.Program { return im.prog }

// Fallback reports whether verification failed and runs use the
// reference interpreter.
func (im *Image) Fallback() bool { return im.fallback }

// verify checks every condition the fast path relies on statically.
// Anything dynamic (divide by zero, memory bounds, indirect call
// indices, stack depth, output limits) stays checked at runtime.
func verify(p *isa.Program) bool {
	if len(p.Funcs) == 0 || p.Main < 0 || p.Main >= len(p.Funcs) {
		return false
	}
	for fi := range p.Funcs {
		code := p.Funcs[fi].Code
		if len(code) == 0 || len(code) > math.MaxInt32/2 {
			return false
		}
		if !code[len(code)-1].Op.IsControl() {
			return false
		}
		for i := range code {
			in := &code[i]
			switch in.Op {
			case isa.OpBr:
				if in.Target < 0 || int(in.Target) >= len(code) {
					return false
				}
				if in.Site < 0 || int(in.Site) >= len(p.Sites) {
					return false
				}
			case isa.OpJmp:
				if in.Target < 0 || int(in.Target) >= len(code) {
					return false
				}
			case isa.OpCall:
				if in.Target < 0 || int(in.Target) >= len(p.Funcs) {
					return false
				}
			}
		}
	}
	return true
}

// splitBlocks segments code into basic blocks: leaders are pc 0,
// every branch/jump target, and every instruction after a control
// transfer; blocks additionally split at maxBlockLen so one edge
// never credits more than that.
func splitBlocks(code []isa.Instr) []blockInfo {
	leader := make([]bool, len(code))
	leader[0] = true
	for pc := range code {
		in := &code[pc]
		if in.Op.IsControl() && pc+1 < len(code) {
			leader[pc+1] = true
		}
		switch in.Op {
		case isa.OpBr, isa.OpJmp:
			leader[in.Target] = true
		}
	}
	var blocks []blockInfo
	start := 0
	for pc := 0; pc < len(code); pc++ {
		n := pc - start + 1
		endsBlock := code[pc].Op.IsControl() || n >= maxBlockLen ||
			pc+1 >= len(code) || leader[pc+1]
		if endsBlock {
			blocks = append(blocks, blockInfo{start: int32(start), n: int32(n)})
			start = pc + 1
		}
	}
	return blocks
}

// variant returns the stream specialized for the given configuration,
// building and memoizing it on first use.
func (im *Image) variant(traced, perPC bool) *variant {
	key := 0
	if perPC {
		key |= vPerPC
	}
	if traced {
		key |= vTrace
	}
	im.mu.Lock()
	defer im.mu.Unlock()
	if v := im.variants[key]; v != nil {
		return v
	}
	v := im.build(traced, perPC)
	im.variants[key] = v
	return v
}

// build constructs one specialized stream. The plain stream is
// headerless (control ops carry the accounting); PerPC streams need
// counting headers and traced streams keep every control transfer a
// single traceable dinstr, so both stay headered. Compare+branch
// fusion is disabled in traced streams for the same reason; the
// arithmetic fusions carry no observability and stay on everywhere.
func (im *Image) build(traced, perPC bool) *variant {
	p := im.prog
	nf := len(p.Funcs)
	v := &variant{
		headerless: !traced && !perPC,
		code:       make([][]dinstr, nf),
		hdr:        make([][]int32, nf),
		nAt:        make([][]int32, nf),
		bDpc:       make([][]int32, nf),
		bPC:        make([][]int32, nf),
		bN:         make([][]int32, nf),
		entryDpc:   make([]int32, nf),
		entryN:     make([]int32, nf),
		tPC:        make([][]int32, nf),
		eImm:       make([][]int64, nf),
	}
	for fi := range p.Funcs {
		im.buildFunc(v, fi, traced, perPC)
		v.entryDpc[fi] = v.hdr[fi][0]
		v.entryN[fi] = v.nAt[fi][0]
	}
	// Cross-function patch: direct calls in the headerless stream bake
	// the callee's entry dpc and entry block count in.
	if v.headerless {
		for fi := range v.code {
			code := v.code[fi]
			for i := range code {
				switch code[i].op {
				case dCallN, dMovCallN:
					callee := code[i].target
					code[i].x = v.entryDpc[callee]
					code[i].rem |= uint16(v.entryN[callee]) << 8
				}
			}
		}
	}
	return v
}

// buildFunc translates one function into v's stream and fills the
// function's slots in every variant table.
func (im *Image) buildFunc(v *variant, fi int, traced, perPC bool) {
	code := im.prog.Funcs[fi].Code
	blocks := im.blocks[fi]
	hdr := make([]int32, len(code)+1)
	nAt := make([]int32, len(code)+1)
	for i := range hdr {
		hdr[i] = -1
		nAt[i] = -1
	}
	nAt[len(code)] = 0
	bDpc := make([]int32, len(blocks)+1)
	bPC := make([]int32, len(blocks)+1)
	bN := make([]int32, len(blocks)+1)
	out := make([]dinstr, 0, len(code)+len(blocks)+1)

	headered := traced || perPC
	hop := dBlock
	if perPC {
		hop = dBlockCnt
	}
	for bi, blk := range blocks {
		hdr[blk.start] = int32(len(out))
		nAt[blk.start] = blk.n
		bDpc[bi] = int32(len(out))
		bPC[bi] = blk.start
		bN[bi] = blk.n
		if headered {
			out = append(out, dinstr{op: hop, rem: uint16(blk.n), a: blk.n, x: int32(bi)})
		}
		end := int(blk.start + blk.n)
		for pc := int(blk.start); pc < end; pc++ {
			consumed, d := fuseControl(code, pc, end, v.headerless)
			if consumed == 0 && pc+2 < end {
				consumed, d = fuseTriple(&code[pc], &code[pc+1], &code[pc+2])
			}
			if consumed == 0 && pc+1 < end &&
				!(v.headerless && code[pc+1].Op.IsControl()) {
				consumed, d = fusePair(&code[pc], &code[pc+1], traced)
			}
			if consumed == 0 {
				consumed, d = decodeOne(&code[pc], traced)
			}
			switch d.op {
			case dCall, dCallT, dICall, dICallT:
				// Headered calls stash the return pc in imm (the isa
				// call ops carry no immediate of their own).
				d.imm = int64(pc + 1)
			}
			if d.op != dLdiLdSeqBrN { // rem stashes the load destination
				d.rem = uint16(end - pc - consumed)
			}
			out = append(out, d)
			pc += consumed - 1
		}
		if v.headerless && !code[end-1].Op.IsControl() {
			// A sne or a cmp+sne trio in the final slots merges with the
			// fall edge; rem==0 proves the dinstr covers exactly through
			// end-1. The trio's compare destination moves to rem (a quad
			// needs target for the fall's landing dpc); the patch pass
			// spills it to eImm.
			n := len(out)
			switch {
			case out[n-1].op == dSne && out[n-1].rem == 0:
				out[n-1].op = dSneFall
			case (out[n-1].op == dLdiSltSne || out[n-1].op == dLdiSeqSne) &&
				out[n-1].rem == 0 &&
				out[n-1].target >= 0 && out[n-1].target < 1<<16:
				if out[n-1].op == dLdiSltSne {
					out[n-1].op = dLdiSltSneFall
				} else {
					out[n-1].op = dLdiSeqSneFall
				}
				out[n-1].rem = uint16(out[n-1].target)
			default:
				out = append(out, dinstr{op: dFall})
			}
		}
		// A cmp+sne trio directly before the block's jump merges with
		// it; rem==1 proves the jump is the only instruction after the
		// trio's coverage.
		if v.headerless {
			if n := len(out); n >= 2 && out[n-1].op == dJmpN &&
				(out[n-2].op == dLdiSltSne || out[n-2].op == dLdiSeqSne) &&
				out[n-2].rem == 1 &&
				out[n-2].target >= 0 && out[n-2].target < 1<<16 {
				q := &out[n-2]
				if q.op == dLdiSltSne {
					q.op = dLdiSltSneJmpN
				} else {
					q.op = dLdiSeqSneJmpN
				}
				q.rem = uint16(q.target)
				q.target = out[n-1].target
				out = out[:n-1]
			}
		}
	}
	// Sentinel: control that reaches pc == len(code) (fall-through off
	// the end, or a return past a call in the last slot) resumes the
	// step loop there, which reproduces the fuel check, the poll, and
	// the "pc out of range" trap in exactly the reference order.
	hdr[len(code)] = int32(len(out))
	bDpc[len(blocks)] = int32(len(out))
	bPC[len(blocks)] = int32(len(code))
	out = append(out, dinstr{op: dToStep, a: int32(len(code))})

	// Intra-function patch: convert control targets from original pcs
	// to dpcs and fill in the successor block counts the
	// edge-accounting ops credit. Edges whose dinstr has a spare field
	// are jump-threaded: an edge landing on a chain of singleton-jump
	// blocks is redirected past the chain at build time, crediting
	// every skipped block and bumping Jumps by the chain length, so the
	// jumps never dispatch. On an event bail-out nothing of the chain
	// has been credited or counted and the step loop resumes at the
	// edge's original continuation pc (tPC for taken edges, the block
	// end for fall edges), replaying the chain with exact event order.
	if v.headerless {
		tPC := make([]int32, len(out))
		eImm := make([]int64, len(out))
		// thread follows singleton-jump blocks from the block led by
		// pc. It returns the landing dpc, the total instruction credit
		// (skipped jumps plus the landing block, capped at 255 so it
		// packs into a rem byte), and the number of jumps skipped.
		thread := func(pc int32) (fdpc int32, totalN uint16, nJmp int32) {
			total := nAt[pc]
			seen := map[int32]bool{pc: true}
			for nAt[pc] == 1 && code[pc].Op == isa.OpJmp {
				next := code[pc].Target
				if seen[next] || total+nAt[next] > 255 {
					break
				}
				seen[next] = true
				nJmp++
				total += nAt[next]
				pc = next
			}
			return hdr[pc], uint16(total), nJmp
		}
		for bi := range blocks {
			td := bDpc[bi+1] - 1
			end := bPC[bi] + bN[bi]
			d := &out[td]
			switch d.op {
			case dBrN, dSltBrN, dSleBrN, dSeqBrN, dSneBrN:
				// imm is free: it packs the fall-edge landing dpc and
				// both edges' skipped-jump counts.
				tpc := d.target
				tPC[td] = tpc
				fdT, nT, jT := thread(tpc)
				fdF, nF, jF := thread(end)
				d.target = fdT
				d.rem = nT<<8 | nF
				d.imm = int64(fdF)<<16 | int64(jT)<<8 | int64(jF)
			case dLdiBrN:
				// imm carries the ldi, so only the taken edge (spare
				// field b) threads; the fall edge stays dpc+1.
				tpc := d.target
				tPC[td] = tpc
				fdT, nT, jT := thread(tpc)
				d.target = fdT
				d.rem = nT<<8 | uint16(nAt[end])
				d.b = jT
			case dLdiSltBrN, dLdiSleBrN, dLdiSeqBrN, dLdiSneBrN, dLdiLdSeqBrN:
				// No spare dinstr fields: the fall edge spills to eImm,
				// packed exactly like dBrN's imm. The quad's stashed
				// register bytes (load destination and the seq's other
				// operand) move to eImm's top 16 bits.
				regs := int64(0)
				if d.op == dLdiLdSeqBrN {
					regs = int64(d.rem)
				}
				tpc := d.target
				tPC[td] = tpc
				fdT, nT, jT := thread(tpc)
				fdF, nF, jF := thread(end)
				d.target = fdT
				d.rem = nT<<8 | nF
				eImm[td] = regs<<48 | int64(fdF)<<16 | int64(jT)<<8 | int64(jF)
			case dJmpN, dSneJmpN, dLdiJmpN:
				tpc := d.target
				tPC[td] = tpc
				fd, n, j := thread(tpc)
				d.target = fd
				d.rem = n
				d.x = j
			case dLdiSltSneJmpN, dLdiSeqSneJmpN:
				// rem stashed the compare destination at fusion time; it
				// moves to eImm with the edge's skipped-jump count.
				sltC := int64(d.rem)
				tpc := d.target
				tPC[td] = tpc
				fd, n, j := thread(tpc)
				d.target = fd
				d.rem = n
				eImm[td] = sltC<<16 | int64(j)
			case dFall, dSneFall:
				fd, n, j := thread(end)
				d.target = fd
				d.rem = n
				d.x = j
			case dLdiSltSneFall, dLdiSeqSneFall:
				sltC := int64(d.rem)
				fd, n, j := thread(end)
				d.target = fd
				d.rem = n
				eImm[td] = sltC<<16 | int64(j)
			case dCallN, dMovCallN, dICallN:
				// Return-edge count; dCallN/dMovCallN get the callee
				// entry count ORed in by the cross-function patch.
				d.rem = uint16(nAt[end])
			}
		}
		v.tPC[fi] = tPC
		v.eImm[fi] = eImm
	} else {
		for i := range out {
			switch out[i].op {
			case dBr, dBrT, dJmp, dJmpT, dSltBr, dSleBr, dSeqBr, dSneBr:
				out[i].target = hdr[out[i].target]
			}
		}
	}

	v.code[fi] = out
	v.hdr[fi] = hdr
	v.nAt[fi] = nAt
	v.bDpc[fi] = bDpc
	v.bPC[fi] = bPC
	v.bN[fi] = bN
}

// fuseControl fuses a block terminator (and up to two predecessors)
// into an edge-accounting superinstruction for the headerless stream.
// Branch targets are left as original pcs; the patch pass converts
// them to dpcs and fills the packed successor counts. It returns 0
// when the position is not a fusible terminator.
func fuseControl(code []isa.Instr, pc, end int, headerless bool) (int, dinstr) {
	if !headerless {
		return 0, dinstr{}
	}
	last := end - 1
	if !code[last].Op.IsControl() {
		return 0, dinstr{}
	}
	t := &code[last]
	// Quad: ldi ; ld ; seq with the loaded value as one operand ; br on
	// the compare. The other seq operand is read from its register at
	// execution time (after both writes, so aliasing with either
	// destination stays sequential). Field pressure: imm carries the
	// ldi and b the full load offset, so the load destination and the
	// other operand ride in rem as bytes until the patch pass spills
	// them to eImm's top bits.
	if pc == last-3 && code[pc].Op == isa.OpLdi && code[pc+1].Op == isa.OpLd &&
		code[pc+2].Op == isa.OpSeq && t.Op == isa.OpBr {
		ldi, ld, seq := &code[pc], &code[pc+1], &code[pc+2]
		other := int32(-1)
		switch ld.C {
		case seq.A:
			other = seq.B
		case seq.B:
			other = seq.A
		}
		if t.A == seq.C && other >= 0 && other < 1<<8 &&
			int64(int32(ld.Imm)) == ld.Imm &&
			ld.C >= 0 && ld.C < 1<<8 && seq.C >= 0 && seq.C < 1<<16 &&
			t.Site >= 0 && t.Site < 1<<16 {
			return 4, dinstr{op: dLdiLdSeqBrN, c: ldi.C, imm: ldi.Imm,
				a: ld.A, b: int32(ld.Imm), x: t.Site<<16 | seq.C,
				target: t.Target, rem: uint16(ld.C)<<8 | uint16(other)}
		}
		return 0, dinstr{}
	}
	// Triple: ldi ; cmp ; br on the compare's result. The site and the
	// compare's destination share x, so both must fit 16 bits.
	if pc == last-2 && code[pc].Op == isa.OpLdi && t.Op == isa.OpBr {
		cmp := &code[pc+1]
		var op dop
		switch cmp.Op {
		case isa.OpSlt:
			op = dLdiSltBrN
		case isa.OpSle:
			op = dLdiSleBrN
		case isa.OpSeq:
			op = dLdiSeqBrN
		case isa.OpSne:
			op = dLdiSneBrN
		}
		if op != 0 && t.A == cmp.C &&
			cmp.C >= 0 && cmp.C < 1<<16 && t.Site >= 0 && t.Site < 1<<16 {
			return 3, dinstr{op: op, c: code[pc].C, imm: code[pc].Imm,
				a: cmp.A, b: cmp.B, x: t.Site<<16 | cmp.C, target: t.Target}
		}
		return 0, dinstr{}
	}
	if pc == last-1 {
		switch {
		case t.Op == isa.OpBr && t.A == code[pc].C &&
			(code[pc].Op == isa.OpSlt || code[pc].Op == isa.OpSle ||
				code[pc].Op == isa.OpSeq || code[pc].Op == isa.OpSne):
			var op dop
			switch code[pc].Op {
			case isa.OpSlt:
				op = dSltBrN
			case isa.OpSle:
				op = dSleBrN
			case isa.OpSeq:
				op = dSeqBrN
			default:
				op = dSneBrN
			}
			return 2, dinstr{op: op, a: code[pc].A, b: code[pc].B, c: code[pc].C,
				x: t.Site, target: t.Target}
		case t.Op == isa.OpBr && code[pc].Op == isa.OpLdi:
			return 2, dinstr{op: dLdiBrN, c: code[pc].C, imm: code[pc].Imm,
				a: t.A, x: t.Site, target: t.Target}
		case t.Op == isa.OpCall && code[pc].Op == isa.OpMov &&
			code[pc].A >= 0 && code[pc].A < 1<<16 && code[pc].C >= 0 && code[pc].C < 1<<16:
			// imm packs the return pc (high 32) and the mov's source
			// and destination registers (low 32).
			return 2, dinstr{op: dMovCallN, a: t.A, b: t.B, c: t.C, target: t.Target,
				imm: int64(end)<<32 | int64(code[pc].A)<<16 | int64(code[pc].C)}
		case t.Op == isa.OpRet && code[pc].Op == isa.OpLdi:
			return 2, dinstr{op: dLdiRetN, c: code[pc].C, imm: code[pc].Imm, a: t.A}
		case t.Op == isa.OpRet && code[pc].Op == isa.OpLd:
			return 2, dinstr{op: dLdRetN, a: code[pc].A, imm: code[pc].Imm,
				c: code[pc].C, x: t.A}
		case t.Op == isa.OpRet && code[pc].Op == isa.OpSt:
			return 2, dinstr{op: dStRetN, a: code[pc].A, imm: code[pc].Imm,
				b: code[pc].B, x: t.A}
		case t.Op == isa.OpJmp && code[pc].Op == isa.OpSne:
			return 2, dinstr{op: dSneJmpN, a: code[pc].A, b: code[pc].B,
				c: code[pc].C, target: t.Target}
		case t.Op == isa.OpJmp && code[pc].Op == isa.OpLdi:
			return 2, dinstr{op: dLdiJmpN, c: code[pc].C, imm: code[pc].Imm,
				target: t.Target}
		}
		return 0, dinstr{}
	}
	if pc != last {
		return 0, dinstr{}
	}
	switch t.Op {
	case isa.OpBr:
		return 1, dinstr{op: dBrN, a: t.A, x: t.Site, target: t.Target}
	case isa.OpJmp:
		return 1, dinstr{op: dJmpN, target: t.Target}
	case isa.OpCall:
		return 1, dinstr{op: dCallN, a: t.A, b: t.B, c: t.C, target: t.Target,
			imm: int64(end)}
	case isa.OpICall:
		return 1, dinstr{op: dICallN, a: t.A, b: t.B, c: t.C, imm: int64(end)}
	case isa.OpRet:
		return 1, dinstr{op: dRetN, a: t.A}
	}
	return 0, dinstr{}
}

// fuseTriple fuses ldi ; cmp ; sne-on-the-compare into one dinstr.
// None of the three can trap, and the halves execute in original
// order with register reads after prior writes, so values and panics
// are position-identical. The sne's destination and its non-compare
// operand share x, so both must fit 16 bits.
func fuseTriple(a, b, c *isa.Instr) (int, dinstr) {
	if a.Op != isa.OpLdi || c.Op != isa.OpSne {
		return 0, dinstr{}
	}
	var op dop
	switch b.Op {
	case isa.OpSlt:
		op = dLdiSltSne
	case isa.OpSeq:
		op = dLdiSeqSne
	default:
		return 0, dinstr{}
	}
	var other int32
	switch b.C {
	case c.A:
		other = c.B
	case c.B:
		other = c.A
	default:
		return 0, dinstr{}
	}
	if other < 0 || other >= 1<<16 || c.C < 0 || c.C >= 1<<16 {
		return 0, dinstr{}
	}
	return 3, dinstr{op: op, c: a.C, imm: a.Imm, a: b.A, b: b.B,
		target: b.C, x: c.C<<16 | other}
}

// fusePair tries to fuse code[pc] and code[pc+1] (both inside one
// block, neither a control transfer the headerless stream handles)
// into a superinstruction. It returns the number of original
// instructions consumed (0 when no fusion applies). Fused forms
// execute both halves' register and memory effects in the original
// order, so values and panics are position-identical; forms that
// forward the first half's result only fire when the second half
// reads it, and only for value-symmetric consumers.
func fusePair(a, b *isa.Instr, traced bool) (int, dinstr) {
	switch a.Op {
	case isa.OpSlt, isa.OpSle, isa.OpSeq, isa.OpSne:
		// compare+branch for headered untraced (PerPC) streams; traced
		// streams keep branches standalone. The headerless stream
		// handles this in fuseControl.
		if b.Op == isa.OpBr && b.A == a.C && !traced {
			var op dop
			switch a.Op {
			case isa.OpSlt:
				op = dSltBr
			case isa.OpSle:
				op = dSleBr
			case isa.OpSeq:
				op = dSeqBr
			default:
				op = dSneBr
			}
			return 2, dinstr{op: op, a: a.A, b: a.B, c: a.C, x: b.Site, target: b.Target}
		}
		if b.Op == isa.OpSne {
			other := int32(-1)
			if b.A == a.C {
				other = b.B
			} else if b.B == a.C {
				other = b.A
			} else {
				return 0, dinstr{}
			}
			if a.Op == isa.OpSlt {
				return 2, dinstr{op: dSltSne, a: a.A, b: a.B, c: a.C, x: b.C, target: other}
			}
			if a.Op == isa.OpSeq {
				return 2, dinstr{op: dSeqSne, a: a.A, b: a.B, c: a.C, x: b.C, target: other}
			}
		}
		return 0, dinstr{}
	case isa.OpLdi:
		var op dop
		switch b.Op {
		case isa.OpAdd:
			op = dLdiAdd
		case isa.OpSub:
			op = dLdiSub
		case isa.OpMul:
			op = dLdiMul
		case isa.OpSlt:
			op = dLdiSlt
		case isa.OpSle:
			op = dLdiSle
		case isa.OpSeq:
			op = dLdiSeq
		case isa.OpSne:
			op = dLdiSne
		case isa.OpLd:
			if int64(int32(b.Imm)) == b.Imm {
				return 2, dinstr{op: dLdiLd, c: a.C, imm: a.Imm,
					b: b.A, x: b.C, target: int32(b.Imm)}
			}
			return 0, dinstr{}
		default:
			return 0, dinstr{}
		}
		return 2, dinstr{op: op, c: a.C, imm: a.Imm, a: b.A, b: b.B, x: b.C}
	case isa.OpLd:
		switch b.Op {
		case isa.OpAdd:
			// The add consumes the loaded value; addition commutes, so
			// normalize the loaded value to the left operand.
			other := int32(-1)
			if b.A == a.C {
				other = b.B
			} else if b.B == a.C {
				other = b.A
			} else {
				return 0, dinstr{}
			}
			return 2, dinstr{op: dLdAdd, a: a.A, imm: a.Imm, c: a.C, b: other, x: b.C}
		case isa.OpMov:
			return 2, dinstr{op: dLdMov, a: a.A, imm: a.Imm, c: a.C, x: b.C, target: b.A}
		case isa.OpSlt:
			return 2, dinstr{op: dLdSlt, a: a.A, imm: a.Imm, c: a.C,
				b: b.A, target: b.B, x: b.C}
		case isa.OpSeq:
			return 2, dinstr{op: dLdSeq, a: a.A, imm: a.Imm, c: a.C,
				b: b.A, target: b.B, x: b.C}
		case isa.OpLd:
			if int64(int32(a.Imm)) == a.Imm {
				return 2, dinstr{op: dLdLd, a: a.A, c: a.C, target: int32(a.Imm),
					b: b.A, x: b.C, imm: b.Imm}
			}
		}
		return 0, dinstr{}
	case isa.OpMul:
		if b.Op == isa.OpAdd {
			other := int32(-1)
			if b.A == a.C {
				other = b.B
			} else if b.B == a.C {
				other = b.A
			} else {
				return 0, dinstr{}
			}
			return 2, dinstr{op: dMulAdd, a: a.A, b: a.B, c: a.C, x: b.C, target: other}
		}
		return 0, dinstr{}
	case isa.OpAdd:
		switch b.Op {
		case isa.OpMov:
			return 2, dinstr{op: dAddMov, a: a.A, b: a.B, c: a.C, x: b.C, target: b.A}
		case isa.OpFLd:
			if b.A == a.C {
				return 2, dinstr{op: dAddFld, a: a.A, b: a.B, c: a.C, x: b.C, imm: b.Imm}
			}
		}
		return 0, dinstr{}
	case isa.OpFLd:
		switch b.Op {
		case isa.OpFMul:
			other := int32(-1)
			if b.A == a.C {
				other = b.B
			} else if b.B == a.C {
				other = b.A
			} else {
				return 0, dinstr{}
			}
			return 2, dinstr{op: dFldMul, a: a.A, imm: a.Imm, c: a.C, x: b.C, target: other}
		case isa.OpLdi:
			if int64(int32(a.Imm)) == a.Imm {
				return 2, dinstr{op: dFldLdi, a: a.A, c: a.C, target: int32(a.Imm),
					x: b.C, imm: b.Imm}
			}
		}
		return 0, dinstr{}
	case isa.OpFMul:
		if b.Op == isa.OpFAdd {
			other := int32(-1)
			if b.A == a.C {
				other = b.B
			} else if b.B == a.C {
				other = b.A
			} else {
				return 0, dinstr{}
			}
			return 2, dinstr{op: dFMulAdd, a: a.A, b: a.B, c: a.C, x: b.C, target: other}
		}
		return 0, dinstr{}
	case isa.OpFAdd:
		if b.Op == isa.OpFMov {
			return 2, dinstr{op: dFAddMov, a: a.A, b: a.B, c: a.C, x: b.C, target: b.A}
		}
		return 0, dinstr{}
	case isa.OpFMov:
		if b.Op == isa.OpLdi {
			return 2, dinstr{op: dFMovLdi, a: a.A, c: a.C, x: b.C, imm: b.Imm}
		}
		return 0, dinstr{}
	case isa.OpMov:
		if b.Op == isa.OpLdi {
			return 2, dinstr{op: dMovLdi, a: a.A, c: a.C, x: b.C, imm: b.Imm}
		}
		return 0, dinstr{}
	}
	return 0, dinstr{}
}

// decodeOne translates a single instruction. Operand fields keep the
// reference interpreter's roles; only targets (patched to dpcs
// afterwards) and the float immediate (carried as bits) change shape.
func decodeOne(in *isa.Instr, traced bool) (int, dinstr) {
	d := dinstr{a: in.A, b: in.B, c: in.C, imm: in.Imm}
	switch in.Op {
	case isa.OpNop:
		d.op = dNop
	case isa.OpAdd:
		d.op = dAdd
	case isa.OpSub:
		d.op = dSub
	case isa.OpMul:
		d.op = dMul
	case isa.OpDiv:
		d.op = dDiv
	case isa.OpRem:
		d.op = dRem
	case isa.OpAnd:
		d.op = dAnd
	case isa.OpOr:
		d.op = dOr
	case isa.OpXor:
		d.op = dXor
	case isa.OpShl:
		d.op = dShl
	case isa.OpShr:
		d.op = dShr
	case isa.OpNeg:
		d.op = dNeg
	case isa.OpNot:
		d.op = dNot
	case isa.OpSlt:
		d.op = dSlt
	case isa.OpSle:
		d.op = dSle
	case isa.OpSeq:
		d.op = dSeq
	case isa.OpSne:
		d.op = dSne
	case isa.OpFAdd:
		d.op = dFAdd
	case isa.OpFSub:
		d.op = dFSub
	case isa.OpFMul:
		d.op = dFMul
	case isa.OpFDiv:
		d.op = dFDiv
	case isa.OpFNeg:
		d.op = dFNeg
	case isa.OpFSlt:
		d.op = dFSlt
	case isa.OpFSle:
		d.op = dFSle
	case isa.OpFSeq:
		d.op = dFSeq
	case isa.OpFSne:
		d.op = dFSne
	case isa.OpCvtIF:
		d.op = dCvtIF
	case isa.OpCvtFI:
		d.op = dCvtFI
	case isa.OpLdi:
		d.op = dLdi
	case isa.OpLdf:
		d.op = dLdf
		d.imm = int64(math.Float64bits(in.FImm))
	case isa.OpMov:
		d.op = dMov
	case isa.OpFMov:
		d.op = dFMov
	case isa.OpLd:
		d.op = dLd
	case isa.OpSt:
		d.op = dSt
	case isa.OpFLd:
		d.op = dFLd
	case isa.OpFSt:
		d.op = dFSt
	case isa.OpBr:
		d.op = dBr
		if traced {
			d.op = dBrT
		}
		d.x = in.Site
		d.target = in.Target
	case isa.OpJmp:
		d.op = dJmp
		if traced {
			d.op = dJmpT
		}
		d.target = in.Target
	case isa.OpCall:
		d.op = dCall
		if traced {
			d.op = dCallT
		}
		d.target = in.Target
	case isa.OpICall:
		d.op = dICall
		if traced {
			d.op = dICallT
		}
	case isa.OpRet:
		d.op = dRet
		if traced {
			d.op = dRetT
		}
	case isa.OpGetc:
		d.op = dGetc
	case isa.OpPutc:
		d.op = dPutc
	case isa.OpHalt:
		d.op = dHalt
	case isa.OpSqrt:
		d.op = dSqrt
	case isa.OpSin:
		d.op = dSin
	case isa.OpCos:
		d.op = dCos
	case isa.OpExp:
		d.op = dExp
	case isa.OpLog:
		d.op = dLog
	case isa.OpFAbs:
		d.op = dFAbs
	case isa.OpFloor:
		d.op = dFloor
	case isa.OpPow:
		d.op = dPow
	case isa.OpSel:
		d.op = dSel
	case isa.OpFSel:
		d.op = dFSel
	default:
		d.op = dBadOp
		d.imm = int64(in.Op)
	}
	return 1, d
}
