// The backend seam: ahead-of-time compiled program bodies register
// here under their program's content digest (isa.ProgramDigest), and
// Load binds a matching body to the Image so Run dispatches to native
// code instead of the interpreter. Generated bodies come from
// internal/vm/codegen via go:generate (see internal/workloads/
// compiled); they are differential-verified against the fast
// interpreter by the same suites that verified fast.go against
// ref.go, so selection is purely a performance decision —
// SemanticsVersion is unchanged by the backend in use.
package vm

import (
	"os"
	"sync"
	"sync/atomic"

	"branchprof/internal/isa"
)

// CompiledFunc is one ahead-of-time compiled program body. It
// receives the program it was generated from (so generated code
// carries no copy of the data segments — the digest match guarantees
// p is the program the code came from), the run input, and a Config
// that has already had defaults applied (Image.Run fills it before
// dispatching). It must produce bit-identical Results and errors to
// the interpreter for every input and configuration.
type CompiledFunc func(p *isa.Program, input []byte, c *Config) (*Result, error)

var (
	compiledMu  sync.Mutex
	compiledReg map[string]CompiledFunc

	// compiledOff disables dispatch to compiled bodies without
	// unregistering them (benchmarks pin the interpreter this way,
	// and BRANCHPROF_VM_BACKEND=interp does it process-wide).
	compiledOff atomic.Bool
)

func init() {
	if os.Getenv("BRANCHPROF_VM_BACKEND") == "interp" {
		compiledOff.Store(true)
	}
}

// RegisterCompiled makes fn the compiled body for programs whose
// isa.ProgramDigest equals digest. Generated packages call it from
// init, so registration precedes every Load. Registering the same
// digest twice keeps the latest body.
func RegisterCompiled(digest string, fn CompiledFunc) {
	compiledMu.Lock()
	defer compiledMu.Unlock()
	if compiledReg == nil {
		compiledReg = make(map[string]CompiledFunc)
	}
	compiledReg[digest] = fn
}

// CompiledFor returns the registered compiled body for p, or nil.
// The digest is only computed when at least one body is registered,
// so builds without generated code pay nothing at Load.
func CompiledFor(p *isa.Program) CompiledFunc { return compiledFor(digestOf(p)) }

// compiledFor is CompiledFor for the program whose digest returns,
// called only when a body is registered (see LoadDigest).
func compiledFor(digest func() string) CompiledFunc {
	compiledMu.Lock()
	n := len(compiledReg)
	compiledMu.Unlock()
	if n == 0 {
		return nil
	}
	d := digest()
	compiledMu.Lock()
	defer compiledMu.Unlock()
	return compiledReg[d]
}

// digestOf hashes p on demand.
func digestOf(p *isa.Program) func() string {
	return func() string { return isa.ProgramDigest(p) }
}

// SetCompiledEnabled turns dispatch to compiled bodies on or off
// process-wide and reports the previous setting. Registration is
// unaffected; a disabled backend re-enables instantly. Benchmarks use
// it to pin one backend per measurement.
func SetCompiledEnabled(on bool) (prev bool) {
	return !compiledOff.Swap(!on)
}

// CompiledEnabled reports whether compiled bodies may be dispatched.
func CompiledEnabled() bool { return !compiledOff.Load() }
