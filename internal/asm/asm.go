// Package asm assembles a textual form of isa programs — the
// hand-written counterpart to the MF compiler's output, used by tools
// and tests that need precise control over the instruction stream.
//
// Syntax (one item per line, ';' comments):
//
//	program NAME
//	imem N            fmem N
//	idata ADDR: v v v ...
//	fdata ADDR: v v v ...
//	func NAME (int,float,...) int|float|void
//	    ldi   r0, 42
//	    ldf   f0, 1.5
//	    add   r2, r0, r1          ; dest first
//	    ld    r1, 8(r0)           ; int load
//	    st    8(r0), r1
//	    fld   f1, 0(r0)
//	    fst   0(r0), f1
//	    cvtif f0, r0              ; int->float
//	    cvtfi r0, f0
//	label:
//	    br    r0, label [back depth=1 label=while]
//	    jmp   label
//	    call  callee, rA, fB, rC  ; int-arg base, float-arg base, result ('-' if none)
//	    icall r0, r1, r2          ; fn index reg, int-arg base, result
//	    ret   r0                  ; or bare "ret" in void functions
//	    getc  r0
//	    putc  r0
//	    halt  r0
//	    sqrt  f1, f0              ; and sin/cos/exp/log/fabs/floor
//	    pow   f2, f0, f1
//
// Branch sites are numbered automatically in source order; the
// bracketed attributes set the site's loop metadata for the heuristic
// predictors. Call targets resolve by name after the whole unit is
// read, so forward calls and recursion assemble.
//
// Format is the inverse: it renders any isa.Program (including the MF
// compiler's output) in this syntax such that reassembling reproduces
// the program instruction for instruction — the round-trip the tests
// use to cross-validate compiler, formatter and assembler.
package asm

import (
	"fmt"
	"strconv"
	"strings"

	"branchprof/internal/isa"
)

// Error is an assembly error with its line number.
type Error struct {
	Line int
	Msg  string
}

func (e *Error) Error() string { return fmt.Sprintf("asm: line %d: %s", e.Line, e.Msg) }

type assembler struct {
	prog    *isa.Program
	curFunc *isa.Func
	labels  map[string]int   // label -> pc in current function
	patches map[string][]int // label -> instruction indices to patch
	line    int
	// calls records call sites for name resolution after all
	// functions are declared (so recursion and forward calls work).
	calls []callPatch
}

type callPatch struct {
	fn   int // function index owning the call
	pc   int
	name string
	line int
}

func (a *assembler) errf(format string, args ...any) error {
	return &Error{Line: a.line, Msg: fmt.Sprintf(format, args...)}
}

// Assemble parses the textual program.
func Assemble(src string) (*isa.Program, error) {
	a := &assembler{prog: &isa.Program{Main: -1}}
	for i, raw := range strings.Split(src, "\n") {
		a.line = i + 1
		line := raw
		if idx := strings.IndexByte(line, ';'); idx >= 0 {
			line = line[:idx]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if err := a.statement(line); err != nil {
			return nil, err
		}
	}
	if err := a.endFunc(); err != nil {
		return nil, err
	}
	for _, cp := range a.calls {
		idx := a.prog.FuncIndex(cp.name)
		if idx < 0 {
			return nil, &Error{Line: cp.line, Msg: fmt.Sprintf("call to unknown function %q", cp.name)}
		}
		a.prog.Funcs[cp.fn].Code[cp.pc].Target = int32(idx)
	}
	if a.prog.Main < 0 {
		a.prog.Main = a.prog.FuncIndex("main")
		if a.prog.Main < 0 {
			return nil, fmt.Errorf("asm: no main function")
		}
	}
	if a.prog.IntMem == 0 {
		a.prog.IntMem = 1
	}
	if a.prog.FloatMem == 0 {
		a.prog.FloatMem = 1
	}
	if err := a.prog.Validate(); err != nil {
		return nil, fmt.Errorf("asm: %w", err)
	}
	return a.prog, nil
}

func (a *assembler) statement(line string) error {
	if strings.HasSuffix(line, ":") && !strings.ContainsAny(line, " \t") {
		if a.curFunc == nil {
			return a.errf("label outside function")
		}
		name := strings.TrimSuffix(line, ":")
		if _, dup := a.labels[name]; dup {
			return a.errf("duplicate label %q", name)
		}
		a.labels[name] = len(a.curFunc.Code)
		return nil
	}
	op, rest, _ := strings.Cut(line, " ")
	rest = strings.TrimSpace(rest)
	switch op {
	case "program":
		a.prog.Source = rest
		return nil
	case "imem", "fmem":
		n, err := strconv.Atoi(rest)
		if err != nil || n < 0 {
			return a.errf("bad %s size %q", op, rest)
		}
		if op == "imem" {
			a.prog.IntMem = n
		} else {
			a.prog.FloatMem = n
		}
		return nil
	case "idata", "fdata":
		return a.data(op, rest)
	case "func":
		return a.funcDecl(rest)
	}
	if a.curFunc == nil {
		return a.errf("instruction %q outside function", line)
	}
	return a.instr(op, rest)
}

func (a *assembler) data(kind, rest string) error {
	addrStr, vals, ok := strings.Cut(rest, ":")
	if !ok {
		return a.errf("%s needs ADDR: values", kind)
	}
	addr, err := strconv.Atoi(strings.TrimSpace(addrStr))
	if err != nil || addr < 0 {
		return a.errf("bad %s address %q", kind, addrStr)
	}
	fields := strings.Fields(vals)
	if kind == "idata" {
		vs := make([]int64, len(fields))
		for i, f := range fields {
			v, err := strconv.ParseInt(f, 0, 64)
			if err != nil {
				return a.errf("bad int datum %q", f)
			}
			vs[i] = v
		}
		a.prog.IntData = putData(a.prog.IntData, addr, vs)
	} else {
		vs := make([]float64, len(fields))
		for i, f := range fields {
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				return a.errf("bad float datum %q", f)
			}
			vs[i] = v
		}
		a.prog.FloatData = putData(a.prog.FloatData, addr, vs)
	}
	if len(a.prog.IntData) > a.prog.IntMem {
		a.prog.IntMem = len(a.prog.IntData)
	}
	if len(a.prog.FloatData) > a.prog.FloatMem {
		a.prog.FloatMem = len(a.prog.FloatData)
	}
	return nil
}

// putData copies vs into the image img from addr on, zero-extending
// img in one step when it ends before the last datum.
func putData[T int64 | float64](img []T, addr int, vs []T) []T {
	if len(vs) == 0 {
		return img
	}
	if n := addr + len(vs); n > len(img) {
		img = append(img, make([]T, n-len(img))...)
	}
	copy(img[addr:], vs)
	return img
}

// funcDecl parses: NAME (types) rettype
func (a *assembler) funcDecl(rest string) error {
	if err := a.endFunc(); err != nil {
		return err
	}
	open := strings.IndexByte(rest, '(')
	closeIdx := strings.IndexByte(rest, ')')
	if open < 0 || closeIdx < open {
		return a.errf("func needs a parameter list: %q", rest)
	}
	name := strings.TrimSpace(rest[:open])
	if name == "" {
		return a.errf("func needs a name")
	}
	if a.prog.FuncIndex(name) >= 0 {
		return a.errf("duplicate function %q", name)
	}
	f := isa.Func{Name: name}
	params := strings.TrimSpace(rest[open+1 : closeIdx])
	if params != "" {
		for _, p := range strings.Split(params, ",") {
			switch strings.TrimSpace(p) {
			case "int":
				f.FParams = append(f.FParams, false)
			case "float":
				f.FParams = append(f.FParams, true)
			default:
				return a.errf("bad parameter type %q", p)
			}
		}
	}
	f.NumParams = len(f.FParams)
	switch ret := strings.TrimSpace(rest[closeIdx+1:]); ret {
	case "int", "":
		f.Kind = isa.FuncInt
	case "float":
		f.Kind = isa.FuncFloat
	case "void":
		f.Kind = isa.FuncVoid
	default:
		return a.errf("bad return type %q", ret)
	}
	a.prog.Funcs = append(a.prog.Funcs, f)
	a.curFunc = &a.prog.Funcs[len(a.prog.Funcs)-1]
	a.labels = make(map[string]int)
	a.patches = make(map[string][]int)
	return nil
}

// endFunc resolves labels and finalizes register frame sizes.
func (a *assembler) endFunc() error {
	if a.curFunc == nil {
		return nil
	}
	f := a.curFunc
	for label, idxs := range a.patches {
		pc, ok := a.labels[label]
		if !ok {
			return a.errf("undefined label %q in %s", label, f.Name)
		}
		for _, idx := range idxs {
			f.Code[idx].Target = int32(pc)
		}
	}
	// Frame sizes: highest register mentioned + 1, at least the params.
	ni, nf := 0, 0
	for _, p := range f.FParams {
		if p {
			nf++
		} else {
			ni++
		}
	}
	for _, in := range f.Code {
		hi := func(r int32, cur int) int {
			if int(r)+1 > cur {
				return int(r) + 1
			}
			return cur
		}
		switch in.Op {
		case isa.OpLdf, isa.OpFMov, isa.OpFNeg, isa.OpSqrt, isa.OpSin, isa.OpCos,
			isa.OpExp, isa.OpLog, isa.OpFAbs, isa.OpFloor:
			nf = hi(in.C, nf)
			nf = hi(in.A, nf)
		case isa.OpFAdd, isa.OpFSub, isa.OpFMul, isa.OpFDiv, isa.OpPow:
			nf = hi(in.C, hi(in.A, hi(in.B, nf)))
		case isa.OpFSlt, isa.OpFSle, isa.OpFSeq, isa.OpFSne:
			ni = hi(in.C, ni)
			nf = hi(in.A, hi(in.B, nf))
		case isa.OpCvtIF:
			nf = hi(in.C, nf)
			ni = hi(in.A, ni)
		case isa.OpCvtFI:
			ni = hi(in.C, ni)
			nf = hi(in.A, nf)
		case isa.OpFLd:
			nf = hi(in.C, nf)
			ni = hi(in.A, ni)
		case isa.OpFSt:
			ni = hi(in.A, ni)
			nf = hi(in.B, nf)
		case isa.OpRet:
			if f.Kind == isa.FuncFloat {
				nf = hi(in.A, nf)
			} else if f.Kind == isa.FuncInt {
				ni = hi(in.A, ni)
			}
		case isa.OpCall:
			ni = hi(in.A, ni)
			nf = hi(in.B, nf)
			if in.C >= 0 {
				// Result register file depends on the callee, which may
				// not be assembled yet; reserve in both.
				ni = hi(in.C, ni)
				nf = hi(in.C, nf)
			}
		case isa.OpJmp, isa.OpNop:
		default:
			ni = hi(in.C, hi(in.A, hi(in.B, ni)))
		}
	}
	f.NumIRegs = ni
	f.NumFRegs = nf
	a.curFunc = nil
	return nil
}

// ---- instruction parsing ----

var opByName = func() map[string]isa.Op {
	m := make(map[string]isa.Op)
	for i := 0; i < 64; i++ {
		if op := isa.Op(i); op.Valid() {
			m[op.String()] = op
		}
	}
	return m
}()

func (a *assembler) reg(s string, file byte) (int32, error) {
	s = strings.TrimSpace(s)
	if len(s) < 2 || s[0] != file {
		return 0, a.errf("expected %c-register, got %q", file, s)
	}
	n, err := strconv.Atoi(s[1:])
	if err != nil || n < 0 || n > 1<<20 {
		return 0, a.errf("bad register %q", s)
	}
	return int32(n), nil
}

// memOperand parses "IMM(rN)".
func (a *assembler) memOperand(s string) (base int32, off int64, err error) {
	s = strings.TrimSpace(s)
	open := strings.IndexByte(s, '(')
	if open < 0 || !strings.HasSuffix(s, ")") {
		return 0, 0, a.errf("expected IMM(reg), got %q", s)
	}
	offStr := strings.TrimSpace(s[:open])
	if offStr == "" {
		offStr = "0"
	}
	off, err = strconv.ParseInt(offStr, 0, 64)
	if err != nil {
		return 0, 0, a.errf("bad offset %q", offStr)
	}
	base, err = a.reg(s[open+1:len(s)-1], 'r')
	return base, off, err
}

func (a *assembler) emit(in isa.Instr) {
	if in.Op != isa.OpBr {
		in.Site = -1
	}
	a.curFunc.Code = append(a.curFunc.Code, in)
}

func (a *assembler) target(label string, at int) {
	if pc, ok := a.labels[label]; ok {
		a.curFunc.Code[at].Target = int32(pc)
		return
	}
	a.patches[label] = append(a.patches[label], at)
}

func (a *assembler) instr(opName, rest string) error {
	op, ok := opByName[opName]
	if !ok {
		return a.errf("unknown operation %q", opName)
	}
	args := splitArgs(rest)
	n := len(args)
	need := func(k int) error {
		if n != k {
			return a.errf("%s takes %d operands, got %d", opName, k, n)
		}
		return nil
	}
	switch op {
	case isa.OpNop:
		if err := need(0); err != nil {
			return err
		}
		a.emit(isa.Instr{Op: op})
	case isa.OpAdd, isa.OpSub, isa.OpMul, isa.OpDiv, isa.OpRem, isa.OpAnd,
		isa.OpOr, isa.OpXor, isa.OpShl, isa.OpShr, isa.OpSlt, isa.OpSle,
		isa.OpSeq, isa.OpSne:
		if err := need(3); err != nil {
			return err
		}
		c, err := a.reg(args[0], 'r')
		if err != nil {
			return err
		}
		x, err := a.reg(args[1], 'r')
		if err != nil {
			return err
		}
		y, err := a.reg(args[2], 'r')
		if err != nil {
			return err
		}
		a.emit(isa.Instr{Op: op, C: c, A: x, B: y})
	case isa.OpFAdd, isa.OpFSub, isa.OpFMul, isa.OpFDiv, isa.OpPow:
		if err := need(3); err != nil {
			return err
		}
		c, err := a.reg(args[0], 'f')
		if err != nil {
			return err
		}
		x, err := a.reg(args[1], 'f')
		if err != nil {
			return err
		}
		y, err := a.reg(args[2], 'f')
		if err != nil {
			return err
		}
		a.emit(isa.Instr{Op: op, C: c, A: x, B: y})
	case isa.OpFSlt, isa.OpFSle, isa.OpFSeq, isa.OpFSne:
		if err := need(3); err != nil {
			return err
		}
		c, err := a.reg(args[0], 'r')
		if err != nil {
			return err
		}
		x, err := a.reg(args[1], 'f')
		if err != nil {
			return err
		}
		y, err := a.reg(args[2], 'f')
		if err != nil {
			return err
		}
		a.emit(isa.Instr{Op: op, C: c, A: x, B: y})
	case isa.OpNeg, isa.OpNot, isa.OpMov:
		if err := need(2); err != nil {
			return err
		}
		c, err := a.reg(args[0], 'r')
		if err != nil {
			return err
		}
		x, err := a.reg(args[1], 'r')
		if err != nil {
			return err
		}
		a.emit(isa.Instr{Op: op, C: c, A: x})
	case isa.OpFNeg, isa.OpFMov, isa.OpSqrt, isa.OpSin, isa.OpCos, isa.OpExp,
		isa.OpLog, isa.OpFAbs, isa.OpFloor:
		if err := need(2); err != nil {
			return err
		}
		c, err := a.reg(args[0], 'f')
		if err != nil {
			return err
		}
		x, err := a.reg(args[1], 'f')
		if err != nil {
			return err
		}
		a.emit(isa.Instr{Op: op, C: c, A: x})
	case isa.OpCvtIF:
		if err := need(2); err != nil {
			return err
		}
		c, err := a.reg(args[0], 'f')
		if err != nil {
			return err
		}
		x, err := a.reg(args[1], 'r')
		if err != nil {
			return err
		}
		a.emit(isa.Instr{Op: op, C: c, A: x})
	case isa.OpCvtFI:
		if err := need(2); err != nil {
			return err
		}
		c, err := a.reg(args[0], 'r')
		if err != nil {
			return err
		}
		x, err := a.reg(args[1], 'f')
		if err != nil {
			return err
		}
		a.emit(isa.Instr{Op: op, C: c, A: x})
	case isa.OpLdi:
		if err := need(2); err != nil {
			return err
		}
		c, err := a.reg(args[0], 'r')
		if err != nil {
			return err
		}
		v, err := strconv.ParseInt(args[1], 0, 64)
		if err != nil {
			return a.errf("bad immediate %q", args[1])
		}
		a.emit(isa.Instr{Op: op, C: c, Imm: v})
	case isa.OpLdf:
		if err := need(2); err != nil {
			return err
		}
		c, err := a.reg(args[0], 'f')
		if err != nil {
			return err
		}
		v, err := strconv.ParseFloat(args[1], 64)
		if err != nil {
			return a.errf("bad float immediate %q", args[1])
		}
		a.emit(isa.Instr{Op: op, C: c, FImm: v})
	case isa.OpLd, isa.OpFLd:
		if err := need(2); err != nil {
			return err
		}
		file := byte('r')
		if op == isa.OpFLd {
			file = 'f'
		}
		c, err := a.reg(args[0], file)
		if err != nil {
			return err
		}
		base, off, err := a.memOperand(args[1])
		if err != nil {
			return err
		}
		a.emit(isa.Instr{Op: op, C: c, A: base, Imm: off})
	case isa.OpSt, isa.OpFSt:
		if err := need(2); err != nil {
			return err
		}
		base, off, err := a.memOperand(args[0])
		if err != nil {
			return err
		}
		file := byte('r')
		if op == isa.OpFSt {
			file = 'f'
		}
		v, err := a.reg(args[1], file)
		if err != nil {
			return err
		}
		a.emit(isa.Instr{Op: op, A: base, B: v, Imm: off})
	case isa.OpBr:
		return a.branch(args)
	case isa.OpJmp:
		if err := need(1); err != nil {
			return err
		}
		a.emit(isa.Instr{Op: op, Site: -1})
		a.target(args[0], len(a.curFunc.Code)-1)
	case isa.OpCall:
		if err := need(4); err != nil {
			return err
		}
		ia, err := a.reg(args[1], 'r')
		if err != nil {
			return err
		}
		fa, err := a.reg(args[2], 'f')
		if err != nil {
			return err
		}
		res := int32(-1)
		if args[3] != "-" {
			r, err := a.reg(args[3], 'r')
			if err != nil {
				r2, err2 := a.reg(args[3], 'f')
				if err2 != nil {
					return err
				}
				r = r2
			}
			res = r
		}
		// Callee by name, resolved after all functions are declared so
		// forward calls and recursion assemble.
		a.emit(isa.Instr{Op: op, A: ia, B: fa, C: res, Target: -1})
		a.calls = append(a.calls, callPatch{
			fn:   len(a.prog.Funcs) - 1,
			pc:   len(a.curFunc.Code) - 1,
			name: args[0],
			line: a.line,
		})
	case isa.OpICall:
		if err := need(3); err != nil {
			return err
		}
		fp, err := a.reg(args[0], 'r')
		if err != nil {
			return err
		}
		base, err := a.reg(args[1], 'r')
		if err != nil {
			return err
		}
		res, err := a.reg(args[2], 'r')
		if err != nil {
			return err
		}
		a.emit(isa.Instr{Op: op, A: fp, B: base, C: res})
	case isa.OpRet:
		if n == 0 {
			a.emit(isa.Instr{Op: op})
			return nil
		}
		if err := need(1); err != nil {
			return err
		}
		file := byte('r')
		if a.curFunc.Kind == isa.FuncFloat {
			file = 'f'
		}
		r, err := a.reg(args[0], file)
		if err != nil {
			return err
		}
		a.emit(isa.Instr{Op: op, A: r})
	case isa.OpGetc:
		if err := need(1); err != nil {
			return err
		}
		c, err := a.reg(args[0], 'r')
		if err != nil {
			return err
		}
		a.emit(isa.Instr{Op: op, C: c})
	case isa.OpPutc, isa.OpHalt:
		if err := need(1); err != nil {
			return err
		}
		r, err := a.reg(args[0], 'r')
		if err != nil {
			return err
		}
		a.emit(isa.Instr{Op: op, A: r})
	default:
		return a.errf("operation %q not supported in assembly", opName)
	}
	return nil
}

// branch parses: rCOND, label [attrs]
func (a *assembler) branch(args []string) error {
	if len(args) < 2 {
		return a.errf("br takes a register and a label")
	}
	cond, err := a.reg(args[0], 'r')
	if err != nil {
		return err
	}
	labelAndAttrs := strings.Join(args[1:], ",")
	label := labelAndAttrs
	site := isa.BranchSite{ID: len(a.prog.Sites), Func: a.curFunc.Name, Line: a.line, Label: "br"}
	if idx := strings.IndexByte(labelAndAttrs, '['); idx >= 0 {
		attrs := strings.TrimSuffix(strings.TrimSpace(labelAndAttrs[idx+1:]), "]")
		label = strings.TrimSpace(labelAndAttrs[:idx])
		for _, f := range strings.Fields(strings.ReplaceAll(attrs, ",", " ")) {
			switch {
			case f == "back":
				site.LoopBack = true
			case strings.HasPrefix(f, "depth="):
				d, err := strconv.Atoi(f[6:])
				if err != nil {
					return a.errf("bad depth attribute %q", f)
				}
				site.LoopDepth = d
			case strings.HasPrefix(f, "label="):
				site.Label = f[6:]
			default:
				return a.errf("unknown branch attribute %q", f)
			}
		}
	}
	label = strings.TrimSpace(label)
	a.prog.Sites = append(a.prog.Sites, site)
	a.curFunc.Code = append(a.curFunc.Code, isa.Instr{Op: isa.OpBr, A: cond, Site: int32(site.ID)})
	a.target(label, len(a.curFunc.Code)-1)
	return nil
}

// splitArgs splits on commas outside parentheses/brackets.
func splitArgs(s string) []string {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil
	}
	var out []string
	depth := 0
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '(', '[':
			depth++
		case ')', ']':
			depth--
		case ',':
			if depth == 0 {
				out = append(out, strings.TrimSpace(s[start:i]))
				start = i + 1
			}
		}
	}
	out = append(out, strings.TrimSpace(s[start:]))
	return out
}
