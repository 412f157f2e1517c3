//go:build !amd64

package lasso

// packedRowPass is false off amd64: the Go loops are the only row pass.
var packedRowPass = false

func rowPassAVX2(zT []float64, cols []int, ws []float64, b float64, t, sig []float64) int {
	panic("lasso: rowPassAVX2 without amd64")
}
