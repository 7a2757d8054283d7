// The step loop and the run driver. The step loop interprets original
// instructions one at a time with the reference interpreter's exact
// check order — fuel, then the Done/Sample poll, then the pc bounds
// trap, then execution — so every event (ErrFuel, cancellation, a
// sample) fires at precisely the same instruction count as before.
// The fast loop hands over whenever an event could fire inside the
// next block; the step loop hands back at the first block leader it
// reaches whose whole block fits before the next event.
package vm

import (
	"fmt"
	"math"

	"branchprof/internal/isa"
)

// Run executes the pre-decoded program on the given input. A nil cfg
// uses defaults. Images are safe for concurrent Run calls. A tracer
// that implements Flusher is flushed once as Run returns, whatever
// the outcome.
func (im *Image) Run(input []byte, cfg *Config) (*Result, error) {
	var c Config
	if cfg != nil {
		c = *cfg
	}
	c.fill()
	if f, ok := c.Trace.(Flusher); ok {
		defer f.Flush()
	}
	if im.fallback {
		return runReference(im.prog, input, &c)
	}
	if im.compiled != nil && CompiledEnabled() {
		return im.compiled(im.prog, input, &c)
	}
	return im.runFast(input, &c)
}

// RunInterpreter executes via the fast interpreter even when a
// compiled body is registered for the program (benchmarks and the
// codegen differential suite pin the backend this way). Fallback
// images still use the reference interpreter, and a Flusher tracer is
// flushed, exactly as Run does.
func (im *Image) RunInterpreter(input []byte, cfg *Config) (*Result, error) {
	var c Config
	if cfg != nil {
		c = *cfg
	}
	c.fill()
	if f, ok := c.Trace.(Flusher); ok {
		defer f.Flush()
	}
	if im.fallback {
		return runReference(im.prog, input, &c)
	}
	return im.runFast(input, &c)
}

// runFast is the pre-decoded interpreter entry. cfg must be filled.
func (im *Image) runFast(input []byte, cp *Config) (*Result, error) {
	c := *cp
	p := im.prog
	res := &Result{
		SiteTaken: make([]uint64, len(p.Sites)),
		SiteTotal: make([]uint64, len(p.Sites)),
	}
	if c.PerPC {
		res.PerPC = make([][]uint64, len(p.Funcs))
		for i := range p.Funcs {
			res.PerPC[i] = make([]uint64, len(p.Funcs[i].Code))
		}
	}

	mb := im.getMem()

	st := &exec{
		p: p, im: im, c: &c, res: res,
		imem: mb.imem, fmem: mb.fmem,
		iregs:   mb.iregs,
		fregs:   mb.fregs,
		frames:  mb.frames,
		input:   input,
		fuel:    c.Fuel,
		adjFrom: -1,
		// Empty dirty spans; the store sites widen them.
		iLo: len(mb.imem), fLo: len(mb.fmem),
	}
	st.v = im.variant(c.Trace != nil, c.PerPC)
	if c.PerPC {
		st.blockCounts = make([][]uint64, len(im.blocks))
		for i := range im.blocks {
			st.blockCounts[i] = make([]uint64, len(im.blocks[i]))
		}
	}
	st.poll = c.Done != nil || c.Sample != nil
	st.nextPoll = ^uint64(0)
	if st.poll {
		st.nextPoll = 0
	}
	st.stop = min(st.fuel, st.nextPoll)
	if c.Sample != nil {
		st.stackBuf = make([]int32, 0, 64)
	}

	// Enter main with no arguments.
	main := &p.Funcs[p.Main]
	st.frames = append(st.frames, frame{fn: int32(p.Main), retPC: -1, resReg: -1})
	st.iregs = growInt(st.iregs, 0, main.NumIRegs)
	st.fregs = growFloat(st.fregs, 0, main.NumFRegs)
	st.cur = p.Main
	// Start in the step loop at pc 0: its rejoin check credits main's
	// entry block (or enters the headered block header), and an
	// immediately-due poll or zero fuel fires first, exactly as the
	// reference orders events.
	st.fast = false
	st.pc = 0

	for !st.done {
		if st.fast {
			st.runFast()
		} else {
			st.runStep()
		}
	}
	st.finalize()
	// The run finished without panicking, so the dirty spans are
	// complete and the buffers can be restored and reused.
	im.putMem(st)
	return res, st.err
}

// finalize settles the deferred accounting: the exact instruction
// total, and for PerPC runs the expansion of whole-block counts into
// per-pc counts minus the tail of a block a trap cut short.
func (st *exec) finalize() {
	st.res.Instrs = st.instrs
	if !st.c.PerPC {
		return
	}
	for fi, counts := range st.blockCounts {
		blks := st.im.blocks[fi]
		pp := st.res.PerPC[fi]
		for bi, n := range counts {
			if n == 0 {
				continue
			}
			b := blks[bi]
			for pc := b.start; pc < b.start+b.n; pc++ {
				pp[pc] += n
			}
		}
	}
	if st.adjFrom >= 0 {
		pp := st.res.PerPC[st.adjFn]
		for pc := st.adjFrom; pc < st.adjTo; pc++ {
			pp[pc]--
		}
	}
}

// runStep interprets original instructions until the run finishes or
// a whole block fits before the next event, at which point it rejoins
// the fast loop at that block's header.
func (st *exec) runStep() {
	p := st.p
	v := st.v
	c := st.c
	res := st.res
	imem, fmem := st.imem, st.fmem
	iregs, fregs := st.iregs, st.fregs
	frames := st.frames
	input := st.input
	inPos := st.inPos
	cur := st.cur
	ib, fb := st.ib, st.fb
	pc := st.pc
	instrs := st.instrs
	code := p.Funcs[cur].Code
	hdr := v.hdr[cur]
	nAt := v.nAt[cur]

	flush := func() {
		st.iregs, st.fregs, st.frames = iregs, fregs, frames
		st.inPos = inPos
		st.cur, st.ib, st.fb = cur, ib, fb
		st.pc = pc
		st.instrs = instrs
	}
	trap := func(msg string) {
		flush()
		st.err = &RuntimeError{Func: p.Funcs[cur].Name, PC: pc,
			GlobalPC: st.im.funcBase[cur] + pc, Instrs: instrs, Msg: msg}
		st.done = true
	}

	for {
		// Rejoin the fast path at a block leader once the whole block
		// fits before the next event. The condition also guarantees no
		// event is pending right now, so the prelude below is not
		// skipped past anything.
		if pc >= 0 && pc < len(code) {
			if h := hdr[pc]; h >= 0 {
				if n := nAt[pc]; instrs+uint64(n) <= st.stop {
					if v.headerless {
						// Headerless blocks are credited as the edge into
						// them is taken; headered streams credit in the
						// block header instead.
						instrs += uint64(n)
					}
					flush()
					st.dpc = int(h)
					st.fast = true
					return
				}
			}
		}
		if instrs >= st.fuel {
			flush()
			st.err = fmt.Errorf("%w after %d instructions in %s", ErrFuel, instrs, p.Source)
			st.done = true
			return
		}
		if st.poll && instrs&4095 == 0 {
			if c.Done != nil {
				select {
				case <-c.Done:
					flush()
					st.err = fmt.Errorf("%w after %d instructions in %s", ErrCancelled, instrs, p.Source)
					st.done = true
					return
				default:
				}
			}
			if c.Sample != nil {
				st.stackBuf = st.stackBuf[:0]
				for i := range frames {
					st.stackBuf = append(st.stackBuf, int32(frames[i].fn))
				}
				c.Sample(st.stackBuf, instrs)
			}
			st.nextPoll = instrs + 4096
			st.stop = min(st.fuel, st.nextPoll)
		}
		if pc < 0 || pc >= len(code) {
			trap("pc out of range")
			return
		}
		in := &code[pc]
		instrs++
		if c.PerPC {
			res.PerPC[cur][pc]++
		}
		switch in.Op {
		case isa.OpNop:
		case isa.OpAdd:
			iregs[ib+int(in.C)] = iregs[ib+int(in.A)] + iregs[ib+int(in.B)]
		case isa.OpSub:
			iregs[ib+int(in.C)] = iregs[ib+int(in.A)] - iregs[ib+int(in.B)]
		case isa.OpMul:
			iregs[ib+int(in.C)] = iregs[ib+int(in.A)] * iregs[ib+int(in.B)]
		case isa.OpDiv:
			d := iregs[ib+int(in.B)]
			if d == 0 {
				trap("integer divide by zero")
				return
			}
			iregs[ib+int(in.C)] = iregs[ib+int(in.A)] / d
		case isa.OpRem:
			d := iregs[ib+int(in.B)]
			if d == 0 {
				trap("integer remainder by zero")
				return
			}
			iregs[ib+int(in.C)] = iregs[ib+int(in.A)] % d
		case isa.OpAnd:
			iregs[ib+int(in.C)] = iregs[ib+int(in.A)] & iregs[ib+int(in.B)]
		case isa.OpOr:
			iregs[ib+int(in.C)] = iregs[ib+int(in.A)] | iregs[ib+int(in.B)]
		case isa.OpXor:
			iregs[ib+int(in.C)] = iregs[ib+int(in.A)] ^ iregs[ib+int(in.B)]
		case isa.OpShl:
			sh := iregs[ib+int(in.B)]
			if sh < 0 || sh > 63 {
				trap("shift amount out of range")
				return
			}
			iregs[ib+int(in.C)] = iregs[ib+int(in.A)] << uint(sh)
		case isa.OpShr:
			sh := iregs[ib+int(in.B)]
			if sh < 0 || sh > 63 {
				trap("shift amount out of range")
				return
			}
			iregs[ib+int(in.C)] = iregs[ib+int(in.A)] >> uint(sh)
		case isa.OpNeg:
			iregs[ib+int(in.C)] = -iregs[ib+int(in.A)]
		case isa.OpNot:
			iregs[ib+int(in.C)] = ^iregs[ib+int(in.A)]
		case isa.OpSlt:
			iregs[ib+int(in.C)] = b2i(iregs[ib+int(in.A)] < iregs[ib+int(in.B)])
		case isa.OpSle:
			iregs[ib+int(in.C)] = b2i(iregs[ib+int(in.A)] <= iregs[ib+int(in.B)])
		case isa.OpSeq:
			iregs[ib+int(in.C)] = b2i(iregs[ib+int(in.A)] == iregs[ib+int(in.B)])
		case isa.OpSne:
			iregs[ib+int(in.C)] = b2i(iregs[ib+int(in.A)] != iregs[ib+int(in.B)])

		case isa.OpFAdd:
			fregs[fb+int(in.C)] = fregs[fb+int(in.A)] + fregs[fb+int(in.B)]
		case isa.OpFSub:
			fregs[fb+int(in.C)] = fregs[fb+int(in.A)] - fregs[fb+int(in.B)]
		case isa.OpFMul:
			fregs[fb+int(in.C)] = fregs[fb+int(in.A)] * fregs[fb+int(in.B)]
		case isa.OpFDiv:
			fregs[fb+int(in.C)] = fregs[fb+int(in.A)] / fregs[fb+int(in.B)]
		case isa.OpFNeg:
			fregs[fb+int(in.C)] = -fregs[fb+int(in.A)]
		case isa.OpFSlt:
			iregs[ib+int(in.C)] = b2i(fregs[fb+int(in.A)] < fregs[fb+int(in.B)])
		case isa.OpFSle:
			iregs[ib+int(in.C)] = b2i(fregs[fb+int(in.A)] <= fregs[fb+int(in.B)])
		case isa.OpFSeq:
			iregs[ib+int(in.C)] = b2i(fregs[fb+int(in.A)] == fregs[fb+int(in.B)])
		case isa.OpFSne:
			iregs[ib+int(in.C)] = b2i(fregs[fb+int(in.A)] != fregs[fb+int(in.B)])

		case isa.OpCvtIF:
			fregs[fb+int(in.C)] = float64(iregs[ib+int(in.A)])
		case isa.OpCvtFI:
			f := fregs[fb+int(in.A)]
			if math.IsNaN(f) || f > math.MaxInt64 || f < math.MinInt64 {
				trap("float to int conversion out of range")
				return
			}
			iregs[ib+int(in.C)] = int64(f)

		case isa.OpLdi:
			iregs[ib+int(in.C)] = in.Imm
		case isa.OpLdf:
			fregs[fb+int(in.C)] = in.FImm
		case isa.OpMov:
			iregs[ib+int(in.C)] = iregs[ib+int(in.A)]
		case isa.OpFMov:
			fregs[fb+int(in.C)] = fregs[fb+int(in.A)]

		case isa.OpLd:
			a := iregs[ib+int(in.A)] + in.Imm
			if a < 0 || a >= int64(len(imem)) {
				trap(fmt.Sprintf("int load address %d out of range [0,%d)", a, len(imem)))
				return
			}
			iregs[ib+int(in.C)] = imem[a]
		case isa.OpSt:
			a := iregs[ib+int(in.A)] + in.Imm
			if a < 0 || a >= int64(len(imem)) {
				trap(fmt.Sprintf("int store address %d out of range [0,%d)", a, len(imem)))
				return
			}
			st.dirtyInt(int(a))
			imem[a] = iregs[ib+int(in.B)]
		case isa.OpFLd:
			a := iregs[ib+int(in.A)] + in.Imm
			if a < 0 || a >= int64(len(fmem)) {
				trap(fmt.Sprintf("float load address %d out of range [0,%d)", a, len(fmem)))
				return
			}
			fregs[fb+int(in.C)] = fmem[a]
		case isa.OpFSt:
			a := iregs[ib+int(in.A)] + in.Imm
			if a < 0 || a >= int64(len(fmem)) {
				trap(fmt.Sprintf("float store address %d out of range [0,%d)", a, len(fmem)))
				return
			}
			st.dirtyFloat(int(a))
			fmem[a] = fregs[fb+int(in.B)]

		case isa.OpBr:
			res.SiteTotal[in.Site]++
			taken := iregs[ib+int(in.A)] != 0
			if taken {
				res.SiteTaken[in.Site]++
			}
			if c.Trace != nil {
				c.Trace.Branch(in.Site, taken, instrs)
			}
			if taken {
				pc = int(in.Target)
				continue
			}
		case isa.OpJmp:
			res.Jumps++
			if c.Trace != nil {
				c.Trace.Transfer(TransferJump, instrs)
			}
			pc = int(in.Target)
			continue
		case isa.OpCall, isa.OpICall:
			var fi int
			indirect := in.Op == isa.OpICall
			if indirect {
				fi = int(iregs[ib+int(in.A)])
				if fi < 0 || fi >= len(p.Funcs) {
					trap(fmt.Sprintf("indirect call to bad function index %d", fi))
					return
				}
				res.IndirectCalls++
				if c.Trace != nil {
					c.Trace.Transfer(TransferIndirectCall, instrs)
				}
			} else {
				fi = int(in.Target)
				res.DirectCalls++
				if c.Trace != nil {
					c.Trace.Transfer(TransferCall, instrs)
				}
			}
			if len(frames) >= c.MaxDepth {
				trap("call stack overflow")
				return
			}
			callee := &p.Funcs[fi]
			niBase := len(iregs)
			nfBase := len(fregs)
			var iArg, fArg int
			if indirect {
				iArg = int(in.B)
			} else {
				iArg = int(in.A)
				fArg = int(in.B)
			}
			// hdr/nAt are still the caller's here: record the return
			// edge for the headerless stream's dRetN.
			frames = append(frames, frame{fn: int32(fi), retPC: int32(pc + 1),
				iBase: int32(niBase), fBase: int32(nfBase), resReg: in.C, indirect: indirect,
				retDpc: hdr[pc+1], retN: nAt[pc+1]})
			iregs = growInt(iregs, niBase, callee.NumIRegs)
			fregs = growFloat(fregs, nfBase, callee.NumFRegs)
			ni, nf := 0, 0
			for pi := 0; pi < callee.NumParams; pi++ {
				if pi < len(callee.FParams) && callee.FParams[pi] {
					if indirect {
						trap("indirect call to function with float parameters")
						return
					}
					fregs[nfBase+nf] = fregs[fb+fArg]
					fArg++
					nf++
				} else {
					iregs[niBase+ni] = iregs[ib+iArg]
					iArg++
					ni++
				}
			}
			if d := len(frames); d > res.MaxDepth {
				res.MaxDepth = d
			}
			cur = fi
			code = callee.Code
			hdr = v.hdr[cur]
			nAt = v.nAt[cur]
			ib, fb = niBase, nfBase
			pc = 0
			continue
		case isa.OpRet:
			fr := frames[len(frames)-1]
			if fr.indirect {
				res.IndirectReturns++
				if c.Trace != nil {
					c.Trace.Transfer(TransferIndirectReturn, instrs)
				}
			} else if fr.retPC >= 0 {
				res.DirectReturns++
				if c.Trace != nil {
					c.Trace.Transfer(TransferReturn, instrs)
				}
			}
			f := &p.Funcs[cur]
			var iv int64
			var fv float64
			switch f.Kind {
			case isa.FuncInt:
				iv = iregs[ib+int(in.A)]
			case isa.FuncFloat:
				fv = fregs[fb+int(in.A)]
			}
			iregs = iregs[:ib]
			fregs = fregs[:fb]
			frames = frames[:len(frames)-1]
			if len(frames) == 0 {
				res.ExitCode = iv
				flush()
				st.done = true
				return
			}
			caller := frames[len(frames)-1]
			cur = int(caller.fn)
			code = p.Funcs[cur].Code
			hdr = v.hdr[cur]
			nAt = v.nAt[cur]
			ib, fb = int(caller.iBase), int(caller.fBase)
			pc = int(fr.retPC)
			if fr.resReg >= 0 {
				switch f.Kind {
				case isa.FuncInt:
					iregs[ib+int(fr.resReg)] = iv
				case isa.FuncFloat:
					fregs[fb+int(fr.resReg)] = fv
				}
			}
			continue

		case isa.OpGetc:
			if inPos < len(input) {
				iregs[ib+int(in.C)] = int64(input[inPos])
				inPos++
			} else {
				iregs[ib+int(in.C)] = -1
			}
		case isa.OpPutc:
			if len(res.Output) >= c.MaxOutput {
				trap("output limit exceeded")
				return
			}
			res.Output = append(res.Output, byte(iregs[ib+int(in.A)]))
		case isa.OpHalt:
			res.ExitCode = iregs[ib+int(in.A)]
			flush()
			st.done = true
			return

		case isa.OpSqrt:
			fregs[fb+int(in.C)] = math.Sqrt(fregs[fb+int(in.A)])
		case isa.OpSin:
			fregs[fb+int(in.C)] = math.Sin(fregs[fb+int(in.A)])
		case isa.OpCos:
			fregs[fb+int(in.C)] = math.Cos(fregs[fb+int(in.A)])
		case isa.OpExp:
			fregs[fb+int(in.C)] = math.Exp(fregs[fb+int(in.A)])
		case isa.OpLog:
			fregs[fb+int(in.C)] = math.Log(fregs[fb+int(in.A)])
		case isa.OpFAbs:
			fregs[fb+int(in.C)] = math.Abs(fregs[fb+int(in.A)])
		case isa.OpFloor:
			fregs[fb+int(in.C)] = math.Floor(fregs[fb+int(in.A)])
		case isa.OpPow:
			fregs[fb+int(in.C)] = math.Pow(fregs[fb+int(in.A)], fregs[fb+int(in.B)])
		case isa.OpSel:
			if iregs[ib+int(in.A)] != 0 {
				iregs[ib+int(in.C)] = iregs[ib+int(in.B)]
			} else {
				iregs[ib+int(in.C)] = iregs[ib+int(in.Imm)]
			}
		case isa.OpFSel:
			if iregs[ib+int(in.A)] != 0 {
				fregs[fb+int(in.C)] = fregs[fb+int(in.B)]
			} else {
				fregs[fb+int(in.C)] = fregs[fb+int(in.Imm)]
			}

		default:
			trap(fmt.Sprintf("unimplemented op %v", in.Op))
			return
		}
		pc++
	}
}
