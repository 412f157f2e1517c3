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
