package interp

import (
	"testing"

	"github.com/climate-rca/rca/internal/fortran"
)

func benchMachine(b *testing.B, fma bool) *Machine {
	b.Helper()
	mods, err := fortran.ParseFile(`
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
`)
	if err != nil {
		b.Fatal(err)
	}
	var fmaFn func(string) bool
	if fma {
		fmaFn = func(string) bool { return true }
	}
	m, err := NewMachine(mods, Config{Ncol: 64, FMA: fmaFn})
	if err != nil {
		b.Fatal(err)
	}
	if err := m.Call("bench", "init"); err != nil {
		b.Fatal(err)
	}
	return m
}

func BenchmarkInterpreterStep(b *testing.B) {
	m := benchMachine(b, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Call("bench", "step"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInterpreterStepFMA(b *testing.B) {
	m := benchMachine(b, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Call("bench", "step"); err != nil {
			b.Fatal(err)
		}
	}
}
