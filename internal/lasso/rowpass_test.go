package lasso

import (
	"math"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"testing"
)

// expProbe is an argument whose exponential exp_amd64.s's FMA block
// and its SSE2 block round differently: bits …c21 and …c20.
const expProbe = 35.389241745700474

// setPackedRowPass switches the packed row pass for one test or
// benchmark; cleanup restores the gate.
func setPackedRowPass(tb testing.TB, on bool) {
	old := packedRowPass
	packedRowPass = on
	tb.Cleanup(func() { packedRowPass = old })
}

func requirePackedRowPass(tb testing.TB) {
	tb.Helper()
	if !packedRowPass {
		tb.Skipf("packed row pass gate closed (GOARCH %s, no AVX2/FMA/YMM state, or math.Exp off its FMA path: math.Exp(%v) bits %#x)",
			runtime.GOARCH, expProbe, math.Float64bits(math.Exp(expProbe)))
	}
}

// rowPassCase is a cdPath over an n×d design z (row-major) with
// labels that do not matter to the row pass.
func rowPassCase(z []float64, n, d int) *cdPath {
	return newCDPath(&design{z: z, y: make([]float64, n), n: n, d: d})
}

// requireRowPassAgrees runs the row pass with the gate closed and
// open (callers have checked that it can open) and compares t and sig
// bit for bit over the n rows. It also checks that the kernel alone
// stops exactly at the first four-row group holding a row it must
// leave to Go.
func requireRowPassAgrees(t *testing.T, c *cdPath, w []float64, b float64) {
	t.Helper()
	n := c.ds.n
	c.cols, c.ws = c.cols[:0], c.ws[:0]
	for j, wj := range w {
		if wj != 0 {
			c.cols = append(c.cols, j*c.stride)
			c.ws = append(c.ws, wj)
		}
	}
	packedRowPass = false
	c.rowPass(b)
	packedRowPass = true
	wantT := append([]float64(nil), c.t[:n]...)
	wantSig := append([]float64(nil), c.sig[:n]...)
	c.rowPass(b)
	for i := 0; i < n; i++ {
		if math.Float64bits(c.t[i]) != math.Float64bits(wantT[i]) ||
			math.Float64bits(c.sig[i]) != math.Float64bits(wantSig[i]) {
			t.Fatalf("row %d of %d (b=%v): packed t=%v sig=%v (%#x), Go t=%v sig=%v (%#x)",
				i, n, b, c.t[i], c.sig[i], math.Float64bits(c.sig[i]),
				wantT[i], wantSig[i], math.Float64bits(wantSig[i]))
		}
	}
	stop := c.stride
	for i, ti := range wantT {
		if x := -math.Abs(ti); x != x || x < -700 {
			stop = i &^ 3
			break
		}
	}
	if stop == c.stride && n < c.stride {
		// The padded rows of the last group read t = b.
		if x := -math.Abs(b); x != x || x < -700 {
			stop = n &^ 3
		}
	}
	if got := rowPassAVX2(c.zT, c.cols, c.ws, b, c.t, c.sig); got != stop {
		t.Fatalf("kernel stopped at row %d of %d (stride %d, b=%v), want %d", got, n, c.stride, b, stop)
	}
}

// TestPackedRowPassMatchesGo pins the packed kernel's t and sigmoid to
// the Go loop's bit for bit over 10⁷ inputs (10⁵ under -short): raw
// bit patterns, uniform ±40 and ±800, the ±700 fallback threshold and
// the ±708/±745 edges of exp's normal and subnormal range, ±0, ±Inf,
// NaN, and the probe argument that tells exp_amd64.s's FMA block from
// its SSE2 one. Each batch is one column with weight 1 and b = 0, so
// t is the input (−0 reads +0, as in every sum from +0).
func TestPackedRowPassMatchesGo(t *testing.T) {
	requirePackedRowPass(t)
	total := 10_000_000
	if testing.Short() {
		total = 100_000
	}
	const n = 4093 // not a multiple of four: the last group is padded
	rng := rand.New(rand.NewSource(1))
	c := rowPassCase(make([]float64, n), n, 1)
	w := []float64{1}
	special := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		expProbe, -expProbe, 700, -700, 708, -708, 745, -745}
	gens := []func(i int) float64{
		func(int) float64 { return math.Float64frombits(rng.Uint64()) },
		func(int) float64 { return (2*rng.Float64() - 1) * 40 },
		func(int) float64 { return (2*rng.Float64() - 1) * 800 },
		func(i int) float64 {
			// Up to 256 ulps either side of a threshold, or uniform
			// within ±1 of it.
			v := special[5+(i/4)%8]
			if rng.Intn(2) == 0 {
				return v + 2*rng.Float64() - 1
			}
			return math.Float64frombits(math.Float64bits(v) + uint64(rng.Intn(513)-256))
		},
		func(int) float64 { return special[rng.Intn(len(special))] },
		func(i int) float64 {
			// One special value per four-row group among ±40 draws.
			if i%4 == rng.Intn(4) {
				return special[rng.Intn(len(special))]
			}
			return (2*rng.Float64() - 1) * 40
		},
	}
	for done, batch := 0, 0; done < total; done, batch = done+n, batch+1 {
		gen := gens[batch%len(gens)]
		for i := 0; i < n; i++ {
			c.zT[i] = gen(i)
		}
		requireRowPassAgrees(t, c, w, 0)
	}
}

// FuzzRowPass runs the packed row pass against the Go loops over
// design shapes (n from 1, so below four and off multiples of four;
// d up to 12), support sets, weights, scales and intercepts.
func FuzzRowPass(f *testing.F) {
	f.Add(int64(1), uint8(37), uint8(30), uint16(0x1f), 1.0, 0.25)
	f.Add(int64(2), uint8(0), uint8(0), uint16(1), 3.0, -1.5)
	f.Add(int64(3), uint8(2), uint8(4), uint16(0), 1.0, 0.0)        // empty support, n = 3
	f.Add(int64(4), uint8(5), uint8(11), uint16(0xfff), 50.0, 2.0)  // dots past the fallback threshold
	f.Add(int64(5), uint8(63), uint8(7), uint16(0xaa), 1.0, -720.0) // b alone past it
	f.Add(int64(6), uint8(15), uint8(2), uint16(5), 1.0, math.NaN())
	f.Add(int64(7), uint8(8), uint8(3), uint16(9), 1e-300, math.Inf(1))
	f.Fuzz(func(t *testing.T, seed int64, nRaw, dRaw uint8, mask uint16, scale, b float64) {
		requirePackedRowPass(t)
		n := 1 + int(nRaw)%64
		d := 1 + int(dRaw)%12
		rng := rand.New(rand.NewSource(seed))
		z := make([]float64, n*d)
		for i := range z {
			z[i] = rng.NormFloat64() * scale
		}
		w := make([]float64, d)
		for j := range w {
			if mask>>j&1 != 0 {
				w[j] = rng.NormFloat64()
			}
		}
		requireRowPassAgrees(t, rowPassCase(z, n, d), w, b)
	})
}

// TestPackedGateFollowsMathExp checks that the gate tracks math.Exp's
// own path: under GODEBUG=cpu.fma=off math.Exp takes the SSE2 block,
// whose rounding the kernel does not copy, so the gate must be closed
// there whatever the CPU reports. The test re-executes its binary with
// that setting and runs itself in the child.
func TestPackedGateFollowsMathExp(t *testing.T) {
	godebug := os.Getenv("GODEBUG")
	if strings.Contains(godebug, "cpu.fma=off") {
		t.Logf("GODEBUG=%s: gate %v, math.Exp(%v) bits %#x", godebug, packedRowPass,
			expProbe, math.Float64bits(math.Exp(expProbe)))
		if packedRowPass {
			t.Fatal("packed row pass gate open while math.Exp is off its FMA path")
		}
		return
	}
	if godebug != "" {
		godebug += ","
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestPackedGateFollowsMathExp$", "-test.v", "-test.count=1")
	cmd.Env = append(os.Environ(), "GODEBUG="+godebug+"cpu.fma=off")
	out, err := cmd.CombinedOutput()
	if err != nil || !strings.Contains(string(out), "--- PASS: TestPackedGateFollowsMathExp") {
		t.Fatalf("child under GODEBUG=cpu.fma=off: %v\n%s", err, out)
	}
	t.Logf("gate %v here; child under GODEBUG=cpu.fma=off:\n%s", packedRowPass, out)
}
