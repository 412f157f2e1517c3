package bytecode

import (
	"testing"

	"github.com/climate-rca/rca/internal/corpus"
	"github.com/climate-rca/rca/internal/fortran"
	"github.com/climate-rca/rca/internal/interp"
	"github.com/climate-rca/rca/internal/rng"
)

// The VM-level counterparts of interp's BenchmarkInterpreterStep*:
// identical source, identical configuration, so engine-level speedups
// are tracked independently of the pipeline. The outfld keeps acc
// output-live: without it the output slice would cut every statement
// of the loop.
const benchSrc = `
module bench
  real :: a(:), c(:), acc(:)
contains
  subroutine init()
    integer :: i
    do i = 1, size(a)
      a(i) = 0.001 * i
      c(i) = 1.0 - 0.0001 * i
    end do
    acc = 0.0
  end subroutine
  subroutine step()
    integer :: k
    do k = 1, 50
      acc = a * c + acc * 0.999
      acc = max(0.0, min(10.0, acc)) + sqrt(abs(a)) * 0.01
    end do
    call outfld('ACC', acc)
  end subroutine
end module
`

func benchVM(b *testing.B, fma bool) oneLane {
	b.Helper()
	mods, err := fortran.ParseFile(benchSrc)
	if err != nil {
		b.Fatal(err)
	}
	var fmaFn func(string) bool
	if fma {
		fmaFn = func(string) bool { return true }
	}
	prog := Compile(mods)
	vm, err := newOneLane(prog, interp.Config{Ncol: 64, FMA: fmaFn})
	if err != nil {
		b.Fatal(err)
	}
	if err := vm.Call("bench", "init"); err != nil {
		b.Fatal(err)
	}
	return vm
}

func BenchmarkVMStep(b *testing.B) {
	vm := benchVM(b, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := vm.Call("bench", "step"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVMStepFMA(b *testing.B) {
	vm := benchVM(b, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := vm.Call("bench", "step"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVMCompile tracks the compile cost amortized by the
// Session's program cache.
func BenchmarkVMCompile(b *testing.B) {
	mods, err := fortran.ParseFile(benchSrc)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if p := Compile(mods); p.Err() != nil {
			b.Fatal(p.Err())
		}
	}
}

// BenchmarkNewBatchVMRecycled measures taking a recycled 8-lane,
// 16-column VM of the benchmark corpus (AuxModules 40, Seed 2) from
// its shape's pool and releasing it again — NewBatchVM's reset and
// initializer replay — for a VM that runs the output slice and for one
// that runs the full stream.
func BenchmarkNewBatchVMRecycled(b *testing.B) {
	mods, err := corpus.Generate(corpus.Config{AuxModules: 40, Seed: 2}).Parse()
	if err != nil {
		b.Fatal(err)
	}
	p := Compile(mods)
	rngs := make([]rng.Source, 8)
	for l := range rngs {
		rngs[l] = rng.NewKISS(uint64(l + 1))
	}
	for _, bc := range []struct {
		name string
		cfg  interp.Config
	}{{"sliced", interp.Config{Ncol: 16}}, {"full", interp.Config{Ncol: 16, SnapshotAll: true}}} {
		b.Run(bc.name, func(b *testing.B) {
			vm, err := p.NewBatchVM(bc.cfg, rngs)
			if err != nil {
				b.Fatal(err)
			}
			vm.Release()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				vm, err := p.NewBatchVM(bc.cfg, rngs)
				if err != nil {
					b.Fatal(err)
				}
				vm.Release()
			}
		})
	}
}
