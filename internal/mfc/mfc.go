// Package mfc compiles MF source (see internal/mfc/parser for the
// grammar) to isa.Program images.
//
// The compiler plays the role of the Multiflow trace-scheduling
// compiler in the paper's methodology, in the respects the experiments
// depend on:
//
//   - every source-level conditional branch — if, while, for, each
//     short-circuit && and ||, and each arm of a switch (which is
//     lowered to cascaded conditional branches, exactly as the paper's
//     compiler lowered multi-way branches) — becomes one OpBr with a
//     stable, densely numbered branch site;
//   - constant folding happens always, but *dead-branch elimination*
//     (removing conditional branches whose outcome is a compile-time
//     constant, together with the dead arm) is behind
//     Options.DeadBranchElim. The paper had to switch global dead code
//     elimination off to keep IFPROBBER and MFPixie branch numbering
//     in sync, and Table 1 measures what that left on the table; our
//     experiments do the same;
//   - loops are emitted bottom-tested so the loop branch is a back
//     edge taken once per iteration, giving the "loop vs non-loop"
//     heuristic predictor the same information the paper's naive
//     heuristics had.
package mfc

import (
	"fmt"

	"branchprof/internal/isa"
	"branchprof/internal/mfc/ast"
	"branchprof/internal/mfc/parser"
	"branchprof/internal/mfc/token"
)

// Options controls compilation.
type Options struct {
	// DeadBranchElim removes conditional branches with compile-time
	// constant outcomes along with their dead arms. Off by default to
	// mirror the paper's measurement configuration (Table 1 quantifies
	// the difference).
	DeadBranchElim bool
	// InlineCalls expands calls to small non-recursive functions in
	// place, eliminating their call/return breaks in control — the
	// capability the paper calls important for ILP compilers ("the
	// Multiflow compiler used some simple heuristics to do this
	// automatically when a compiler switch was set"). Inlined code
	// contributes fresh branch sites, so profiles are only comparable
	// between images compiled with the same setting.
	InlineCalls bool
	// InlineMaxStmts bounds the body size eligible for inlining;
	// 0 means the default of 8 statements.
	InlineMaxStmts int
	// UseSelects if-converts simple ifs into branch-free select
	// instructions, as the Trace front ends did (paper footnote 2).
	// Like inlining, it changes the branch-site table, so profiles
	// only line up between images compiled with the same setting.
	UseSelects bool
}

// Error is a semantic error with its position.
type Error struct {
	Pos token.Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

func errf(pos token.Pos, format string, args ...any) error {
	return &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

// constVal is a folded compile-time constant.
type constVal struct {
	typ ast.Type
	i   int64
	f   float64
}

// global describes a global scalar or array.
type global struct {
	typ   ast.Type
	base  int64 // word address in the int or float memory
	size  int64 // 1 for scalars
	array bool
	pos   token.Pos
}

// funcSym describes a declared function.
type funcSym struct {
	index int
	decl  *ast.FuncDecl
}

// module holds per-compilation state shared across functions.
type module struct {
	opts    Options
	name    string
	consts  map[string]constVal
	globals map[string]*global
	funcs   map[string]*funcSym
	order   []*ast.FuncDecl

	intMem   int64
	floatMem int64
	// The initial memory images are built once, in Compile, at their
	// final length; until then only their lengths and the words
	// written into them are recorded. li's int image is ~1.2M words
	// with ~100 of them set.
	intLen, fltLen int64
	intInit        []word[int64]
	fltInit        []word[float64]
	strings        map[string]int64 // interned string literal → address

	sites []isa.BranchSite
}

// Compile compiles one MF source unit. name identifies the unit in
// diagnostics and reports.
func Compile(name, src string, opts Options) (*isa.Program, error) {
	file, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	m := &module{
		opts:    opts,
		name:    name,
		consts:  make(map[string]constVal),
		globals: make(map[string]*global),
		funcs:   make(map[string]*funcSym),
		strings: make(map[string]int64),
	}
	if err := m.collect(file); err != nil {
		return nil, err
	}
	p := &isa.Program{Source: name, Funcs: make([]isa.Func, len(m.order))}
	for _, fd := range m.order {
		fc := newFuncCompiler(m, fd)
		f, err := fc.compile()
		if err != nil {
			return nil, err
		}
		p.Funcs[m.funcs[fd.Name].index] = f
	}
	mi := -1
	if fs, ok := m.funcs["main"]; ok {
		mi = fs.index
		if fs.decl.Ret != ast.Int || len(fs.decl.Params) != 0 {
			return nil, errf(fs.decl.P, "main must be func main() int")
		}
	} else {
		return nil, fmt.Errorf("mfc: %s: no main function", name)
	}
	p.Main = mi
	p.IntMem = int(m.intMem)
	p.FloatMem = int(m.floatMem)
	p.IntData = image(m.intLen, m.intInit)
	p.FloatData = image(m.fltLen, m.fltInit)
	p.Sites = m.sites
	if p.IntMem == 0 {
		p.IntMem = 1 // keep the VM's memory non-nil even for pure-register programs
	}
	if p.FloatMem == 0 {
		p.FloatMem = 1
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("mfc: internal error compiling %s: %w", name, err)
	}
	return p, nil
}

// collect lays out globals and registers constants and functions.
func (m *module) collect(file *ast.File) error {
	for _, d := range file.Decls {
		switch d := d.(type) {
		case *ast.ConstDecl:
			if err := m.checkRedecl(d.Name, d.P); err != nil {
				return err
			}
			cv, err := m.fold(d.Value)
			if err != nil {
				return err
			}
			if cv == nil {
				return errf(d.P, "const %s is not a constant expression", d.Name)
			}
			m.consts[d.Name] = *cv
		case *ast.GlobalVar:
			if err := m.checkRedecl(d.Name, d.P); err != nil {
				return err
			}
			g := &global{typ: d.Type, size: 1, pos: d.P}
			if d.Size != nil {
				cv, err := m.fold(d.Size)
				if err != nil {
					return err
				}
				if cv == nil || cv.typ != ast.Int {
					return errf(d.P, "array size of %s is not an int constant", d.Name)
				}
				if cv.i <= 0 || cv.i > 1<<28 {
					return errf(d.P, "array size %d of %s out of range", cv.i, d.Name)
				}
				g.size = cv.i
				g.array = true
			}
			if err := m.initGlobal(d, g); err != nil {
				return err
			}
			m.globals[d.Name] = g
		case *ast.FuncDecl:
			if err := m.checkRedecl(d.Name, d.P); err != nil {
				return err
			}
			if isBuiltin(d.Name) {
				return errf(d.P, "%s is a builtin and cannot be redefined", d.Name)
			}
			m.funcs[d.Name] = &funcSym{index: len(m.order), decl: d}
			m.order = append(m.order, d)
		}
	}
	return nil
}

func (m *module) checkRedecl(name string, pos token.Pos) error {
	if _, ok := m.consts[name]; ok {
		return errf(pos, "%s redeclared (previously a const)", name)
	}
	if _, ok := m.globals[name]; ok {
		return errf(pos, "%s redeclared (previously a global)", name)
	}
	if _, ok := m.funcs[name]; ok {
		return errf(pos, "%s redeclared (previously a func)", name)
	}
	return nil
}

// initGlobal assigns the global's address and fills initial data.
func (m *module) initGlobal(d *ast.GlobalVar, g *global) error {
	if d.Type == ast.Int {
		g.base = m.intMem
		m.intMem += g.size
	} else {
		g.base = m.floatMem
		m.floatMem += g.size
	}
	if d.IsStr {
		if d.Type != ast.Int {
			return errf(d.P, "string initializer requires an int array")
		}
		if int64(len(d.InitStr))+1 > g.size {
			return errf(d.P, "string initializer (%d bytes + NUL) exceeds array size %d", len(d.InitStr), g.size)
		}
		m.growIntData(g.base + g.size)
		m.putString(g.base, d.InitStr)
		return nil
	}
	if len(d.Init) == 0 {
		return nil
	}
	if int64(len(d.Init)) > g.size {
		return errf(d.P, "%d initializers exceed array size %d", len(d.Init), g.size)
	}
	for i, e := range d.Init {
		cv, err := m.fold(e)
		if err != nil {
			return err
		}
		if cv == nil {
			return errf(e.Pos(), "initializer element is not constant")
		}
		if cv.typ != d.Type {
			return errf(e.Pos(), "initializer element is %s, array is %s", cv.typ, d.Type)
		}
		if d.Type == ast.Int {
			m.growIntData(g.base + g.size)
			m.intInit = append(m.intInit, word[int64]{g.base + int64(i), cv.i})
		} else {
			m.growFltData(g.base + g.size)
			m.fltInit = append(m.fltInit, word[float64]{g.base + int64(i), cv.f})
		}
	}
	return nil
}

// word is one initialized word of a memory image.
type word[T int64 | float64] struct {
	addr int64
	v    T
}

// growIntData extends the int image to at least n words.
func (m *module) growIntData(n int64) { m.intLen = max(m.intLen, n) }

// growFltData extends the float image to at least n words.
func (m *module) growFltData(n int64) { m.fltLen = max(m.fltLen, n) }

// putString writes s's bytes into the int image from base on; the
// terminating NUL is the image's zero fill.
func (m *module) putString(base int64, s string) {
	for i := 0; i < len(s); i++ {
		m.intInit = append(m.intInit, word[int64]{base + int64(i), int64(s[i])})
	}
}

// image materializes a memory image of n words in one allocation,
// applying the recorded writes in order. It is nil when n is zero,
// as it is for a program that initializes no memory.
func image[T int64 | float64](n int64, init []word[T]) []T {
	if n == 0 {
		return nil
	}
	img := make([]T, n)
	for _, w := range init {
		img[w.addr] = w.v
	}
	return img
}

// internString places a NUL-terminated string in int memory once and
// returns its address.
func (m *module) internString(s string) int64 {
	if a, ok := m.strings[s]; ok {
		return a
	}
	base := m.intMem
	m.intMem += int64(len(s)) + 1
	m.growIntData(m.intMem)
	m.putString(base, s)
	m.strings[s] = base
	return base
}

// newSite registers a static conditional branch and returns its id.
func (m *module) newSite(s isa.BranchSite) int32 {
	s.ID = len(m.sites)
	m.sites = append(m.sites, s)
	return int32(s.ID)
}

// fold evaluates e as a compile-time constant, returning nil (no
// error) when it is not constant.
func (m *module) fold(e ast.Expr) (*constVal, error) {
	switch e := e.(type) {
	case *ast.IntLit:
		return &constVal{typ: ast.Int, i: e.Value}, nil
	case *ast.FloatLit:
		return &constVal{typ: ast.Float, f: e.Value}, nil
	case *ast.Ident:
		if cv, ok := m.consts[e.Name]; ok {
			return &cv, nil
		}
		return nil, nil
	case *ast.Cast:
		x, err := m.fold(e.X)
		if err != nil || x == nil {
			return nil, err
		}
		if e.To == ast.Int && x.typ == ast.Float {
			return &constVal{typ: ast.Int, i: int64(x.f)}, nil
		}
		if e.To == ast.Float && x.typ == ast.Int {
			return &constVal{typ: ast.Float, f: float64(x.i)}, nil
		}
		return x, nil
	case *ast.Unary:
		x, err := m.fold(e.X)
		if err != nil || x == nil {
			return nil, err
		}
		switch e.Op {
		case token.Minus:
			if x.typ == ast.Int {
				return &constVal{typ: ast.Int, i: -x.i}, nil
			}
			return &constVal{typ: ast.Float, f: -x.f}, nil
		case token.Bang:
			if x.typ != ast.Int {
				return nil, errf(e.P, "! requires an int operand")
			}
			return &constVal{typ: ast.Int, i: b2i(x.i == 0)}, nil
		case token.Tilde:
			if x.typ != ast.Int {
				return nil, errf(e.P, "~ requires an int operand")
			}
			return &constVal{typ: ast.Int, i: ^x.i}, nil
		}
		return nil, nil
	case *ast.Binary:
		x, err := m.fold(e.X)
		if err != nil || x == nil {
			return nil, err
		}
		// Short-circuit folding only needs a constant left side.
		if e.Op == token.AndAnd && x.typ == ast.Int && x.i == 0 {
			return &constVal{typ: ast.Int, i: 0}, nil
		}
		if e.Op == token.OrOr && x.typ == ast.Int && x.i != 0 {
			return &constVal{typ: ast.Int, i: 1}, nil
		}
		y, err := m.fold(e.Y)
		if err != nil || y == nil {
			return nil, err
		}
		return foldBinary(e, x, y)
	}
	return nil, nil
}

func foldBinary(e *ast.Binary, x, y *constVal) (*constVal, error) {
	if x.typ != y.typ {
		return nil, errf(e.P, "mismatched operand types %s and %s", x.typ, y.typ)
	}
	if x.typ == ast.Float {
		switch e.Op {
		case token.Plus:
			return &constVal{typ: ast.Float, f: x.f + y.f}, nil
		case token.Minus:
			return &constVal{typ: ast.Float, f: x.f - y.f}, nil
		case token.Star:
			return &constVal{typ: ast.Float, f: x.f * y.f}, nil
		case token.Slash:
			return &constVal{typ: ast.Float, f: x.f / y.f}, nil
		case token.Lt:
			return &constVal{typ: ast.Int, i: b2i(x.f < y.f)}, nil
		case token.Le:
			return &constVal{typ: ast.Int, i: b2i(x.f <= y.f)}, nil
		case token.Gt:
			return &constVal{typ: ast.Int, i: b2i(x.f > y.f)}, nil
		case token.Ge:
			return &constVal{typ: ast.Int, i: b2i(x.f >= y.f)}, nil
		case token.Eq:
			return &constVal{typ: ast.Int, i: b2i(x.f == y.f)}, nil
		case token.Ne:
			return &constVal{typ: ast.Int, i: b2i(x.f != y.f)}, nil
		}
		return nil, errf(e.P, "operator %s not defined on float", e.Op)
	}
	switch e.Op {
	case token.Plus:
		return &constVal{typ: ast.Int, i: x.i + y.i}, nil
	case token.Minus:
		return &constVal{typ: ast.Int, i: x.i - y.i}, nil
	case token.Star:
		return &constVal{typ: ast.Int, i: x.i * y.i}, nil
	case token.Slash:
		if y.i == 0 {
			return nil, errf(e.P, "constant division by zero")
		}
		return &constVal{typ: ast.Int, i: x.i / y.i}, nil
	case token.Percent:
		if y.i == 0 {
			return nil, errf(e.P, "constant remainder by zero")
		}
		return &constVal{typ: ast.Int, i: x.i % y.i}, nil
	case token.Amp:
		return &constVal{typ: ast.Int, i: x.i & y.i}, nil
	case token.Pipe:
		return &constVal{typ: ast.Int, i: x.i | y.i}, nil
	case token.Caret:
		return &constVal{typ: ast.Int, i: x.i ^ y.i}, nil
	case token.Shl:
		if y.i < 0 || y.i > 63 {
			return nil, errf(e.P, "constant shift out of range")
		}
		return &constVal{typ: ast.Int, i: x.i << uint(y.i)}, nil
	case token.Shr:
		if y.i < 0 || y.i > 63 {
			return nil, errf(e.P, "constant shift out of range")
		}
		return &constVal{typ: ast.Int, i: x.i >> uint(y.i)}, nil
	case token.Lt:
		return &constVal{typ: ast.Int, i: b2i(x.i < y.i)}, nil
	case token.Le:
		return &constVal{typ: ast.Int, i: b2i(x.i <= y.i)}, nil
	case token.Gt:
		return &constVal{typ: ast.Int, i: b2i(x.i > y.i)}, nil
	case token.Ge:
		return &constVal{typ: ast.Int, i: b2i(x.i >= y.i)}, nil
	case token.Eq:
		return &constVal{typ: ast.Int, i: b2i(x.i == y.i)}, nil
	case token.Ne:
		return &constVal{typ: ast.Int, i: b2i(x.i != y.i)}, nil
	case token.AndAnd:
		return &constVal{typ: ast.Int, i: b2i(x.i != 0 && y.i != 0)}, nil
	case token.OrOr:
		return &constVal{typ: ast.Int, i: b2i(x.i != 0 || y.i != 0)}, nil
	}
	return nil, errf(e.P, "operator %s not defined on int", e.Op)
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
