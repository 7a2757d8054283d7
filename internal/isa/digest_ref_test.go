package isa

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"strings"
	"sync"
	"testing"
)

// programDigestRef is ProgramDigest as first written: one hash write
// per encoded field. It defines the byte stream the buffered encoder
// must reproduce, since the digest binds every generated body and keys
// every cached replay.
func programDigestRef(p *Program) string {
	h := sha256.New()
	var buf [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	i64 := func(v int64) { u64(uint64(v)) }
	str := func(s string) {
		u64(uint64(len(s)))
		h.Write([]byte(s))
	}

	str("mf-program-v1")
	str(p.Source)
	i64(int64(p.Main))
	i64(int64(p.IntMem))
	i64(int64(p.FloatMem))
	i64(int64(len(p.Sites)))

	u64(uint64(len(p.IntData)))
	for _, v := range p.IntData {
		i64(v)
	}
	u64(uint64(len(p.FloatData)))
	for _, v := range p.FloatData {
		u64(math.Float64bits(v))
	}

	u64(uint64(len(p.Funcs)))
	for i := range p.Funcs {
		hashFuncRef(h, u64, i64, str, &p.Funcs[i])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func hashFuncRef(h hash.Hash, u64 func(uint64), i64 func(int64), str func(string), f *Func) {
	str(f.Name)
	i64(int64(f.Kind))
	i64(int64(f.NumParams))
	i64(int64(f.NumIRegs))
	i64(int64(f.NumFRegs))
	u64(uint64(len(f.FParams)))
	for _, fp := range f.FParams {
		if fp {
			u64(1)
		} else {
			u64(0)
		}
	}
	u64(uint64(len(f.Code)))
	for i := range f.Code {
		in := &f.Code[i]
		i64(int64(in.Op))
		i64(int64(in.A))
		i64(int64(in.B))
		i64(int64(in.C))
		i64(in.Imm)
		u64(math.Float64bits(in.FImm))
		i64(int64(in.Target))
		i64(int64(in.Site))
	}
}

// splitmix is a tiny deterministic value source for test programs.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// sizedProgram builds a program whose data images, code and source
// have the given lengths, filled from seed.
func sizedProgram(seed uint64, src, ints, flts, code int) *Program {
	r := splitmix(seed)
	p := &Program{
		Source:    strings.Repeat("s", src),
		Main:      int(r.next() % 3),
		IntMem:    ints + 1,
		FloatMem:  flts + 1,
		Sites:     make([]BranchSite, r.next()%4),
		IntData:   make([]int64, ints),
		FloatData: make([]float64, flts),
	}
	for i := range p.IntData {
		p.IntData[i] = int64(r.next())
	}
	for i := range p.FloatData {
		p.FloatData[i] = math.Float64frombits(r.next())
	}
	f := Func{Name: "main", Kind: FuncKind(r.next() % 2), NumParams: 1, NumIRegs: 3, NumFRegs: 2,
		FParams: []bool{r.next()%2 == 0, true}}
	for i := 0; i < code; i++ {
		f.Code = append(f.Code, Instr{
			Op: Op(r.next()), A: int32(r.next()), B: int32(r.next()), C: int32(r.next()),
			Imm: int64(r.next()), FImm: math.Float64frombits(r.next()),
			Target: int32(r.next()), Site: int32(r.next()),
		})
	}
	p.Funcs = []Func{f, {Name: "g"}}
	return p
}

// TestProgramDigestMatchesReference: the buffered encoder hashes the
// same byte stream as the per-field one at and around every buffer
// boundary: empty and one-element images and code, lengths one short
// of, equal to and one past a buffer's worth, and a source longer
// than the buffer.
func TestProgramDigestMatchesReference(t *testing.T) {
	around := func(perBuf int) []int {
		return []int{0, 1, perBuf - 1, perBuf, perBuf + 1, 3*perBuf + 5}
	}
	check := func(what string, p *Program) {
		t.Helper()
		if got, want := ProgramDigest(p), programDigestRef(p); got != want {
			t.Errorf("%s: digest %s, reference %s", what, got, want)
		}
	}
	check("digestProg", digestProg())
	check("empty", &Program{})
	for _, n := range around(digestBufSize) {
		check(fmt.Sprintf("source %d", n), sizedProgram(1, n, 3, 3, 3))
	}
	for _, n := range around(digestBufSize / 8) {
		check(fmt.Sprintf("intdata %d", n), sizedProgram(2, 5, n, 3, 3))
		check(fmt.Sprintf("floatdata %d", n), sizedProgram(3, 5, 3, n, 3))
	}
	for _, n := range around(digestBufSize / 64) {
		check(fmt.Sprintf("code %d", n), sizedProgram(4, 5, 3, 3, n))
	}
	check("all large", sizedProgram(5, digestBufSize+7, digestBufSize/8+3, digestBufSize/8-3, digestBufSize/64+1))
}

// TestProgramDigestConcurrent: digests computed at once on several
// goroutines share the pooled encoders and must not see each other's
// bytes.
func TestProgramDigestConcurrent(t *testing.T) {
	progs := make([]*Program, 8)
	want := make([]string, len(progs))
	for i := range progs {
		progs[i] = sizedProgram(uint64(i), 100*i, digestBufSize/8+i, i, 3)
		want[i] = programDigestRef(progs[i])
	}
	var wg sync.WaitGroup
	for i := range progs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for r := 0; r < 20; r++ {
				if got := ProgramDigest(progs[i]); got != want[i] {
					t.Errorf("program %d: digest %s, reference %s", i, got, want[i])
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

// FuzzProgramDigest compares the buffered encoder with the reference
// on programs shaped by the fuzz input: its first bytes pick the
// source, image and code lengths (up to a few buffers each) and the
// rest seeds the contents.
func FuzzProgramDigest(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 1})
	f.Add([]byte{0xff, 0x7f, 0x00, 0x10, 0xff, 0x0f, 0x00, 0x02, 9, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		var n [4]int
		for i := range n {
			if len(data) >= 2 {
				n[i] = int(binary.LittleEndian.Uint16(data))
				data = data[2:]
			}
		}
		h := sha256.Sum256(data)
		p := sizedProgram(binary.LittleEndian.Uint64(h[:]), n[0], n[1]%(3*digestBufSize/8), n[2]%(3*digestBufSize/8), n[3]%(3*digestBufSize/64))
		p.Source += string(data)
		if got, want := ProgramDigest(p), programDigestRef(p); got != want {
			t.Fatalf("digest %s, reference %s", got, want)
		}
	})
}
