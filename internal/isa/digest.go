package isa

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"sync"
)

// ProgramDigest returns a stable content hash covering every field of
// the program that can influence execution: the full instruction
// stream, function shapes, initial memory images, the site table size
// and the source name (which appears verbatim in fuel/cancel error
// text). Two programs with equal digests are observationally
// identical to the VM, so the digest is the key under which
// ahead-of-time compiled backends register themselves (vm.Backend):
// a generated body may run in place of the interpreter exactly when
// the program it was generated from hashes the same.
//
// The encoding is a fixed, explicit field walk — not an encoding/gob
// or reflect-based serialization — so the digest cannot drift with
// library versions. Changing it invalidates every registered
// compiled form (they fail the lookup and fall back to the
// interpreter), never correctness.
func ProgramDigest(p *Program) string {
	d := digesters.Get().(*digester)
	defer digesters.Put(d)
	d.h.Reset()
	d.buf = d.buf[:0]

	d.str("mf-program-v1")
	d.str(p.Source)
	d.u64(uint64(p.Main))
	d.u64(uint64(p.IntMem))
	d.u64(uint64(p.FloatMem))
	d.u64(uint64(len(p.Sites)))

	d.u64(uint64(len(p.IntData)))
	d.int64s(p.IntData)
	d.u64(uint64(len(p.FloatData)))
	d.float64s(p.FloatData)

	d.u64(uint64(len(p.Funcs)))
	for i := range p.Funcs {
		d.fn(&p.Funcs[i])
	}
	d.flush()
	var sum [sha256.Size]byte
	return hex.EncodeToString(d.h.Sum(sum[:0]))
}

// digestBufSize bounds the bytes the digest buffers between hash
// writes. The encoding is a stream of 8-byte words, and hashing them
// a buffer at a time keeps the digest of a large data image (li's is
// 1.2M words) down to SHA-256's own throughput.
const digestBufSize = 32 << 10

// digester encodes a program into its hash through buf.
type digester struct {
	h   hash.Hash
	buf []byte // pending encoded bytes; cap digestBufSize
}

var digesters = sync.Pool{New: func() any {
	return &digester{h: sha256.New(), buf: make([]byte, 0, digestBufSize)}
}}

func (d *digester) flush() {
	d.h.Write(d.buf)
	d.buf = d.buf[:0]
}

// reserve makes room for n more buffered bytes (n <= digestBufSize).
func (d *digester) reserve(n int) {
	if cap(d.buf)-len(d.buf) < n {
		d.flush()
	}
}

func (d *digester) u64(v uint64) {
	d.reserve(8)
	d.buf = binary.LittleEndian.AppendUint64(d.buf, v)
}

func (d *digester) str(s string) {
	d.u64(uint64(len(s)))
	for len(s) > 0 {
		d.reserve(1)
		n := copy(d.buf[len(d.buf):cap(d.buf)], s)
		d.buf = d.buf[:len(d.buf)+n]
		s = s[n:]
	}
}

func (d *digester) int64s(vs []int64) {
	for len(vs) > 0 {
		d.reserve(8)
		n := min(len(vs), (cap(d.buf)-len(d.buf))/8)
		b := d.buf[len(d.buf) : len(d.buf)+8*n]
		for i, v := range vs[:n] {
			binary.LittleEndian.PutUint64(b[8*i:], uint64(v))
		}
		d.buf = d.buf[:len(d.buf)+8*n]
		vs = vs[n:]
	}
}

func (d *digester) float64s(vs []float64) {
	for len(vs) > 0 {
		d.reserve(8)
		n := min(len(vs), (cap(d.buf)-len(d.buf))/8)
		b := d.buf[len(d.buf) : len(d.buf)+8*n]
		for i, v := range vs[:n] {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
		}
		d.buf = d.buf[:len(d.buf)+8*n]
		vs = vs[n:]
	}
}

func (d *digester) fn(f *Func) {
	d.str(f.Name)
	d.u64(uint64(f.Kind))
	d.u64(uint64(f.NumParams))
	d.u64(uint64(f.NumIRegs))
	d.u64(uint64(f.NumFRegs))
	d.u64(uint64(len(f.FParams)))
	for _, fp := range f.FParams {
		if fp {
			d.u64(1)
		} else {
			d.u64(0)
		}
	}
	d.u64(uint64(len(f.Code)))
	for i := range f.Code {
		in := &f.Code[i]
		d.reserve(64)
		le := binary.LittleEndian
		d.buf = le.AppendUint64(d.buf, uint64(in.Op))
		d.buf = le.AppendUint64(d.buf, uint64(in.A))
		d.buf = le.AppendUint64(d.buf, uint64(in.B))
		d.buf = le.AppendUint64(d.buf, uint64(in.C))
		d.buf = le.AppendUint64(d.buf, uint64(in.Imm))
		d.buf = le.AppendUint64(d.buf, math.Float64bits(in.FImm))
		d.buf = le.AppendUint64(d.buf, uint64(in.Target))
		d.buf = le.AppendUint64(d.buf, uint64(in.Site))
	}
}
