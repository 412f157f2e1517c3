package bytecode

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// litSrc has statement literals (one repeated, one inside an FMA
// pattern) and a local initializer, whose folded value follows the
// literal-site prefix of consts.
const litSrc = `module m
  real :: x(:), s
contains
  subroutine run()
    real :: t = 0.5
    x = x * 2.0 + 1.5
    s = t + 2.0
  end subroutine
end module
`

// TestProgramCodecLiteralSites pins the literal-site count in the
// program encoding: it round-trips, a count that is negative or larger
// than the constant table is rejected, and a blob of the previous codec
// version does not decode (the artifact store treats it as a miss).
func TestProgramCodecLiteralSites(t *testing.T) {
	p := Compile(parseAll(t, litSrc))
	if p.Err() != nil {
		t.Fatal(p.Err())
	}
	if p.nLits == 0 || p.nLits >= len(p.consts) {
		t.Fatalf("nLits = %d of %d consts; want a proper non-empty prefix", p.nLits, len(p.consts))
	}
	enc := mustEncode(t, p)
	dec, err := DecodeProgram(enc)
	if err != nil {
		t.Fatal(err)
	}
	if dec.nLits != p.nLits {
		t.Fatalf("decoded nLits = %d; want %d", dec.nLits, p.nLits)
	}
	if !bytes.Equal(mustEncode(t, dec), enc) {
		t.Fatal("program codec not bit-exact")
	}

	for _, n := range []int{-1, len(p.consts) + 1} {
		bad := *p
		bad.nLits = n
		if _, err := DecodeProgram(mustEncode(t, &bad)); err == nil {
			t.Errorf("DecodeProgram accepted literal-site count %d of %d consts", n, len(p.consts))
		}
	}

	old := append([]byte(nil), enc...)
	binary.LittleEndian.PutUint32(old, progCodecVersion-1)
	if _, err := DecodeProgram(old); err == nil {
		t.Error("DecodeProgram accepted a blob of the previous codec version")
	}
}

// TestProgramCodecSliceCuts pins the output slice in the program
// encoding: litSrc's two assignments feed no output, so both are cut;
// a decoded program rebuilds the same sliced stream from the stored
// ranges, and ranges that overlap or run past the code are rejected.
func TestProgramCodecSliceCuts(t *testing.T) {
	p := Compile(parseAll(t, litSrc))
	pr := p.entries["m::run"]
	if len(pr.cut) != 2 || len(pr.sliced) >= len(pr.code) {
		t.Fatalf("cut %v: %d of %d instructions left; want both assignments cut", pr.cut, len(pr.sliced), len(pr.code))
	}
	dec, err := DecodeProgram(mustEncode(t, p))
	if err != nil {
		t.Fatal(err)
	}
	got := dec.procs[pr.id].sliced
	if len(got) != len(pr.sliced) {
		t.Fatalf("decoded sliced stream has %d instructions, want %d", len(got), len(pr.sliced))
	}
	for i := range got {
		if got[i] != pr.sliced[i] {
			t.Fatalf("decoded sliced instruction %d = %+v, want %+v", i, got[i], pr.sliced[i])
		}
	}
	for _, cut := range [][][2]int32{
		{pr.cut[0], pr.cut[0]},
		{{pr.cut[0][0], int32(len(pr.code) + 1)}},
		{{pr.cut[0][1], pr.cut[0][0]}},
	} {
		saved := pr.cut
		pr.cut = cut
		_, err := DecodeProgram(mustEncode(t, p))
		pr.cut = saved
		if err == nil {
			t.Errorf("DecodeProgram accepted cut ranges %v", cut)
		}
	}
}
