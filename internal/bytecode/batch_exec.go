package bytecode

import "math"

// exec runs one proc's code for a sorted group of live lanes starting
// at pc. It returns the lanes that completed the proc (reached opRet
// or fell off the end); lanes that erred retire with vm.errs[l] set
// and are absent from the return.
//
// Divergent conditionals (opJZ, opLoopCond — opBrNoFMA is uniform
// because the FMA configuration is shared) partition the group: the
// jumping subset recurses from the branch target to the end of the
// proc while the staying subset continues in place, and the completed
// subsets are merged sorted on return. Each split strictly shrinks
// the recursing group, so the extra Go-stack depth per activation is
// bounded by the lane count.
func (vm *BatchVM) exec(p *proc, fr *bframe, g []int, pc int) []int {
	code := p.code
	if vm.sliced {
		code = p.sliced
	}
	scal := fr.scal
	nl := vm.nl
	ncol := vm.ncol
	var merged []int // lanes completed via recursive branch subgroups
	for pc < len(code) {
		in := &code[pc]
		switch in.op {
		case opNop:
		case opJmp:
			pc = int(in.b)
			continue
		case opJZ:
			base := int(in.a) * nl
			nz := 0
			for _, l := range g {
				if scal[base+l] != 0 {
					nz++
				}
			}
			if nz == 0 {
				pc = int(in.b)
				continue
			}
			if nz != len(g) {
				taken := make([]int, 0, len(g)-nz)
				stay := make([]int, 0, nz)
				for _, l := range g {
					if scal[base+l] == 0 {
						taken = append(taken, l)
					} else {
						stay = append(stay, l)
					}
				}
				merged = append(merged, vm.exec(p, fr, taken, int(in.b))...)
				g = stay
			}
		case opAnyV:
			a := fr.arr[in.a]
			n := len(a) / nl
			dbase := int(in.d) * nl
			for _, l := range g {
				v := 0.0
				for _, x := range a[l*n : l*n+n] {
					if x != 0 {
						v = 1
						break
					}
				}
				scal[dbase+l] = v
			}
		case opRet:
			return mergeDone(g, merged)
		case opErr:
			err := vm.prog.errs[in.a]
			for _, l := range g {
				vm.errs[l] = err
			}
			return mergeDone(nil, merged)
		case opBrNoFMA:
			if !vm.fma[p.modIdx] {
				pc = int(in.b)
				continue
			}

		case opConst:
			v := vm.prog.consts[in.a]
			dbase := int(in.d) * nl
			for _, l := range g {
				scal[dbase+l] = v
			}
		case opMovS:
			abase, dbase := int(in.a)*nl, int(in.d)*nl
			for _, l := range g {
				scal[dbase+l] = scal[abase+l]
			}
		case opLoadG:
			abase, dbase := int(in.a)*nl, int(in.d)*nl
			for _, l := range g {
				scal[dbase+l] = vm.gscal[abase+l]
			}
		case opStoreG:
			abase, dbase := int(in.a)*nl, int(in.d)*nl
			for _, l := range g {
				vm.gscal[dbase+l] = scal[abase+l]
			}
		case opLoadP:
			ptr := fr.ptrs[in.a]
			dbase := int(in.d) * nl
			for _, l := range g {
				scal[dbase+l] = ptr[l]
			}
		case opStoreP:
			ptr := fr.ptrs[in.d]
			abase := int(in.a) * nl
			for _, l := range g {
				ptr[l] = scal[abase+l]
			}
		case opLoadDF:
			src := fr.drv[in.a].scal
			bbase, dbase := int(in.b)*nl, int(in.d)*nl
			for _, l := range g {
				scal[dbase+l] = src[bbase+l]
			}
		case opStoreDF:
			dst := fr.drv[in.d].scal
			abase, bbase := int(in.a)*nl, int(in.b)*nl
			for _, l := range g {
				dst[bbase+l] = scal[abase+l]
			}
		case opLoadDF0:
			f := fr.drv[in.a].f
			dbase := int(in.d) * nl
			for _, l := range g {
				scal[dbase+l] = f[l]
			}
		case opStoreDF0:
			f := fr.drv[in.d].f
			abase := int(in.a) * nl
			for _, l := range g {
				f[l] = scal[abase+l]
			}
		case opBindG:
			fr.arr[in.d] = vm.garr[in.a]
		case opBindGD:
			fr.drv[in.d] = vm.gdrv[in.a]
		case opBindDF:
			fr.arr[in.d] = fr.drv[in.a].arr[in.b]
		case opIdx:
			a := fr.arr[in.a]
			alen := len(a) / nl
			bbase, dbase := int(in.b)*nl, int(in.d)*nl
			bad := false
			for _, l := range g {
				idx := int(scal[bbase+l]) - 1
				if idx < 0 || idx >= alen {
					bad = true
					break
				}
			}
			if !bad {
				for _, l := range g {
					fr.ints[dbase+l] = int64(int(scal[bbase+l]) - 1)
				}
			} else {
				ok := make([]int, 0, len(g))
				for _, l := range g {
					idx := int(scal[bbase+l]) - 1
					if idx < 0 || idx >= alen {
						vm.errs[l] = errf("index %d out of bounds [1,%d] on %s", idx+1, alen, vm.prog.labels[in.e])
						continue
					}
					fr.ints[dbase+l] = int64(idx)
					ok = append(ok, l)
				}
				g = ok
				if len(g) == 0 {
					return mergeDone(nil, merged)
				}
			}
		case opLoadElem:
			a := fr.arr[in.a]
			n := len(a) / nl
			bbase, dbase := int(in.b)*nl, int(in.d)*nl
			for _, l := range g {
				scal[dbase+l] = a[l*n+int(fr.ints[bbase+l])]
			}
		case opStoreElem:
			a := fr.arr[in.a]
			n := len(a) / nl
			bbase, cbase := int(in.b)*nl, int(in.c)*nl
			for _, l := range g {
				a[l*n+int(fr.ints[bbase+l])] = scal[cbase+l]
			}
		case opBroadV:
			out := fr.arr[in.d]
			n := len(out) / nl
			abase := int(in.a) * nl
			for _, l := range g {
				s := scal[abase+l]
				ob := out[l*n : l*n+n]
				for i := range ob {
					ob[i] = s
				}
			}
		case opCopyV:
			out, a := fr.arr[in.d], fr.arr[in.a]
			ls, n := vm.spans(g, len(out))
			for _, l := range ls {
				copy(out[l*n:l*n+n], a[l*n:l*n+n])
			}
		case opCollapse:
			a := fr.arr[in.a]
			n := len(a) / nl
			dbase := int(in.d) * nl
			for _, l := range g {
				scal[dbase+l] = a[l*n]
			}

		case opAddS:
			ab, bb, db := int(in.a)*nl, int(in.b)*nl, int(in.d)*nl
			for _, l := range g {
				scal[db+l] = scal[ab+l] + scal[bb+l]
			}
		case opSubS:
			ab, bb, db := int(in.a)*nl, int(in.b)*nl, int(in.d)*nl
			for _, l := range g {
				scal[db+l] = scal[ab+l] - scal[bb+l]
			}
		case opMulS:
			ab, bb, db := int(in.a)*nl, int(in.b)*nl, int(in.d)*nl
			for _, l := range g {
				scal[db+l] = scal[ab+l] * scal[bb+l]
			}
		case opDivS:
			ab, bb, db := int(in.a)*nl, int(in.b)*nl, int(in.d)*nl
			for _, l := range g {
				scal[db+l] = scal[ab+l] / scal[bb+l]
			}
		case opPowS:
			vm.powS(in, fr, g)
		case opEqS:
			ab, bb, db := int(in.a)*nl, int(in.b)*nl, int(in.d)*nl
			for _, l := range g {
				scal[db+l] = b2f(scal[ab+l] == scal[bb+l])
			}
		case opNeS:
			ab, bb, db := int(in.a)*nl, int(in.b)*nl, int(in.d)*nl
			for _, l := range g {
				scal[db+l] = b2f(scal[ab+l] != scal[bb+l])
			}
		case opLtS:
			ab, bb, db := int(in.a)*nl, int(in.b)*nl, int(in.d)*nl
			for _, l := range g {
				scal[db+l] = b2f(scal[ab+l] < scal[bb+l])
			}
		case opLeS:
			ab, bb, db := int(in.a)*nl, int(in.b)*nl, int(in.d)*nl
			for _, l := range g {
				scal[db+l] = b2f(scal[ab+l] <= scal[bb+l])
			}
		case opGtS:
			ab, bb, db := int(in.a)*nl, int(in.b)*nl, int(in.d)*nl
			for _, l := range g {
				scal[db+l] = b2f(scal[ab+l] > scal[bb+l])
			}
		case opGeS:
			ab, bb, db := int(in.a)*nl, int(in.b)*nl, int(in.d)*nl
			for _, l := range g {
				scal[db+l] = b2f(scal[ab+l] >= scal[bb+l])
			}
		case opAndS:
			ab, bb, db := int(in.a)*nl, int(in.b)*nl, int(in.d)*nl
			for _, l := range g {
				scal[db+l] = b2f(scal[ab+l] != 0 && scal[bb+l] != 0)
			}
		case opOrS:
			ab, bb, db := int(in.a)*nl, int(in.b)*nl, int(in.d)*nl
			for _, l := range g {
				scal[db+l] = b2f(scal[ab+l] != 0 || scal[bb+l] != 0)
			}
		case opModS:
			ab, bb, db := int(in.a)*nl, int(in.b)*nl, int(in.d)*nl
			for _, l := range g {
				scal[db+l] = math.Mod(scal[ab+l], scal[bb+l])
			}
		case opSignS:
			ab, bb, db := int(in.a)*nl, int(in.b)*nl, int(in.d)*nl
			for _, l := range g {
				scal[db+l] = math.Copysign(scal[ab+l], scal[bb+l])
			}
		case opMinS:
			ab, bb, db := int(in.a)*nl, int(in.b)*nl, int(in.d)*nl
			for _, l := range g {
				scal[db+l] = math.Min(scal[ab+l], scal[bb+l])
			}
		case opMaxS:
			ab, bb, db := int(in.a)*nl, int(in.b)*nl, int(in.d)*nl
			for _, l := range g {
				scal[db+l] = math.Max(scal[ab+l], scal[bb+l])
			}
		case opNegS:
			ab, db := int(in.a)*nl, int(in.d)*nl
			for _, l := range g {
				scal[db+l] = -scal[ab+l]
			}
		case opNotS:
			ab, db := int(in.a)*nl, int(in.d)*nl
			for _, l := range g {
				scal[db+l] = b2f(scal[ab+l] == 0)
			}
		case opAbsS:
			ab, db := int(in.a)*nl, int(in.d)*nl
			for _, l := range g {
				scal[db+l] = math.Abs(scal[ab+l])
			}
		case opSqrtS:
			ab, db := int(in.a)*nl, int(in.d)*nl
			for _, l := range g {
				scal[db+l] = math.Sqrt(scal[ab+l])
			}
		case opExpS:
			ab, db := int(in.a)*nl, int(in.d)*nl
			for _, l := range g {
				scal[db+l] = math.Exp(scal[ab+l])
			}
		case opLogS:
			ab, db := int(in.a)*nl, int(in.d)*nl
			for _, l := range g {
				scal[db+l] = math.Log(scal[ab+l])
			}
		case opFloorS:
			ab, db := int(in.a)*nl, int(in.d)*nl
			for _, l := range g {
				scal[db+l] = math.Floor(scal[ab+l])
			}
		case opFMAS:
			ab, bb, cb, db := int(in.a)*nl, int(in.b)*nl, int(in.c)*nl, int(in.d)*nl
			sa, sc := 1.0, 1.0
			if in.e&1 != 0 {
				sa = -1
			}
			if in.e&2 != 0 {
				sc = -1
			}
			for _, l := range g {
				scal[db+l] = math.FMA(sa*scal[ab+l], scal[bb+l], sc*scal[cb+l])
			}

		case opAddV:
			out := fr.arr[in.d]
			switch in.e {
			case 0:
				a, b := fr.arr[in.a], fr.arr[in.b]
				ls, n := vm.spans(g, len(out))
				for _, l := range ls {
					ob := out[l*n : l*n+n]
					ab := a[l*n : l*n+n][:len(ob)]
					bb := b[l*n : l*n+n][:len(ob)]
					for i := range ob {
						ob[i] = ab[i] + bb[i]
					}
				}
			case 1:
				a, sb := fr.arr[in.a], int(in.b)*nl
				n := len(out) / nl
				for _, l := range g {
					s := scal[sb+l]
					ob := out[l*n : l*n+n]
					ab := a[l*n : l*n+n][:len(ob)]
					for i := range ob {
						ob[i] = ab[i] + s
					}
				}
			case 2:
				sa, b := int(in.a)*nl, fr.arr[in.b]
				n := len(out) / nl
				for _, l := range g {
					s := scal[sa+l]
					ob := out[l*n : l*n+n]
					bb := b[l*n : l*n+n][:len(ob)]
					for i := range ob {
						ob[i] = s + bb[i]
					}
				}
			case 3:
				a, c := fr.arr[in.a], vm.prog.consts[in.b]
				ls, n := vm.spans(g, len(out))
				for _, l := range ls {
					ob := out[l*n : l*n+n]
					ab := a[l*n : l*n+n][:len(ob)]
					for i := range ob {
						ob[i] = ab[i] + c
					}
				}
			default:
				c, b := vm.prog.consts[in.a], fr.arr[in.b]
				ls, n := vm.spans(g, len(out))
				for _, l := range ls {
					ob := out[l*n : l*n+n]
					bb := b[l*n : l*n+n][:len(ob)]
					for i := range ob {
						ob[i] = c + bb[i]
					}
				}
			}
		case opSubV:
			out := fr.arr[in.d]
			switch in.e {
			case 0:
				a, b := fr.arr[in.a], fr.arr[in.b]
				ls, n := vm.spans(g, len(out))
				for _, l := range ls {
					ob := out[l*n : l*n+n]
					ab := a[l*n : l*n+n][:len(ob)]
					bb := b[l*n : l*n+n][:len(ob)]
					for i := range ob {
						ob[i] = ab[i] - bb[i]
					}
				}
			case 1:
				a, sb := fr.arr[in.a], int(in.b)*nl
				n := len(out) / nl
				for _, l := range g {
					s := scal[sb+l]
					ob := out[l*n : l*n+n]
					ab := a[l*n : l*n+n][:len(ob)]
					for i := range ob {
						ob[i] = ab[i] - s
					}
				}
			case 2:
				sa, b := int(in.a)*nl, fr.arr[in.b]
				n := len(out) / nl
				for _, l := range g {
					s := scal[sa+l]
					ob := out[l*n : l*n+n]
					bb := b[l*n : l*n+n][:len(ob)]
					for i := range ob {
						ob[i] = s - bb[i]
					}
				}
			case 3:
				a, c := fr.arr[in.a], vm.prog.consts[in.b]
				ls, n := vm.spans(g, len(out))
				for _, l := range ls {
					ob := out[l*n : l*n+n]
					ab := a[l*n : l*n+n][:len(ob)]
					for i := range ob {
						ob[i] = ab[i] - c
					}
				}
			default:
				c, b := vm.prog.consts[in.a], fr.arr[in.b]
				ls, n := vm.spans(g, len(out))
				for _, l := range ls {
					ob := out[l*n : l*n+n]
					bb := b[l*n : l*n+n][:len(ob)]
					for i := range ob {
						ob[i] = c - bb[i]
					}
				}
			}
		case opMulV:
			out := fr.arr[in.d]
			switch in.e {
			case 0:
				a, b := fr.arr[in.a], fr.arr[in.b]
				ls, n := vm.spans(g, len(out))
				for _, l := range ls {
					ob := out[l*n : l*n+n]
					ab := a[l*n : l*n+n][:len(ob)]
					bb := b[l*n : l*n+n][:len(ob)]
					for i := range ob {
						ob[i] = ab[i] * bb[i]
					}
				}
			case 1:
				a, sb := fr.arr[in.a], int(in.b)*nl
				n := len(out) / nl
				for _, l := range g {
					s := scal[sb+l]
					ob := out[l*n : l*n+n]
					ab := a[l*n : l*n+n][:len(ob)]
					for i := range ob {
						ob[i] = ab[i] * s
					}
				}
			case 2:
				sa, b := int(in.a)*nl, fr.arr[in.b]
				n := len(out) / nl
				for _, l := range g {
					s := scal[sa+l]
					ob := out[l*n : l*n+n]
					bb := b[l*n : l*n+n][:len(ob)]
					for i := range ob {
						ob[i] = s * bb[i]
					}
				}
			case 3:
				a, c := fr.arr[in.a], vm.prog.consts[in.b]
				ls, n := vm.spans(g, len(out))
				for _, l := range ls {
					ob := out[l*n : l*n+n]
					ab := a[l*n : l*n+n][:len(ob)]
					for i := range ob {
						ob[i] = ab[i] * c
					}
				}
			default:
				c, b := vm.prog.consts[in.a], fr.arr[in.b]
				ls, n := vm.spans(g, len(out))
				for _, l := range ls {
					ob := out[l*n : l*n+n]
					bb := b[l*n : l*n+n][:len(ob)]
					for i := range ob {
						ob[i] = c * bb[i]
					}
				}
			}
		case opDivV:
			out := fr.arr[in.d]
			switch in.e {
			case 0:
				a, b := fr.arr[in.a], fr.arr[in.b]
				ls, n := vm.spans(g, len(out))
				for _, l := range ls {
					ob := out[l*n : l*n+n]
					ab := a[l*n : l*n+n][:len(ob)]
					bb := b[l*n : l*n+n][:len(ob)]
					for i := range ob {
						ob[i] = ab[i] / bb[i]
					}
				}
			case 1:
				a, sb := fr.arr[in.a], int(in.b)*nl
				n := len(out) / nl
				for _, l := range g {
					s := scal[sb+l]
					ob := out[l*n : l*n+n]
					ab := a[l*n : l*n+n][:len(ob)]
					for i := range ob {
						ob[i] = ab[i] / s
					}
				}
			case 2:
				sa, b := int(in.a)*nl, fr.arr[in.b]
				n := len(out) / nl
				for _, l := range g {
					s := scal[sa+l]
					ob := out[l*n : l*n+n]
					bb := b[l*n : l*n+n][:len(ob)]
					for i := range ob {
						ob[i] = s / bb[i]
					}
				}
			case 3:
				a, c := fr.arr[in.a], vm.prog.consts[in.b]
				ls, n := vm.spans(g, len(out))
				for _, l := range ls {
					ob := out[l*n : l*n+n]
					ab := a[l*n : l*n+n][:len(ob)]
					for i := range ob {
						ob[i] = ab[i] / c
					}
				}
			default:
				c, b := vm.prog.consts[in.a], fr.arr[in.b]
				ls, n := vm.spans(g, len(out))
				for _, l := range ls {
					ob := out[l*n : l*n+n]
					bb := b[l*n : l*n+n][:len(ob)]
					for i := range ob {
						ob[i] = c / bb[i]
					}
				}
			}
		case opPowV:
			vm.powV(in, fr, g)
		case opMinV, opMaxV, opEqV, opNeV, opLtV, opLeV, opGtV, opGeV, opAndV, opOrV, opModV, opSignV:
			vm.batchSlowBinV(in, fr, g)
		case opNegV:
			out, a := fr.arr[in.d], fr.arr[in.a]
			ls, n := vm.spans(g, len(out))
			for _, l := range ls {
				ob := out[l*n : l*n+n]
				ab := a[l*n : l*n+n][:len(ob)]
				for i := range ob {
					ob[i] = -ab[i]
				}
			}
		case opNotV:
			out, a := fr.arr[in.d], fr.arr[in.a]
			ls, n := vm.spans(g, len(out))
			for _, l := range ls {
				ob := out[l*n : l*n+n]
				ab := a[l*n : l*n+n][:len(ob)]
				for i := range ob {
					ob[i] = b2f(ab[i] == 0)
				}
			}
		case opAbsV:
			out, a := fr.arr[in.d], fr.arr[in.a]
			ls, n := vm.spans(g, len(out))
			for _, l := range ls {
				ob := out[l*n : l*n+n]
				ab := a[l*n : l*n+n][:len(ob)]
				for i := range ob {
					ob[i] = math.Abs(ab[i])
				}
			}
		case opSqrtV:
			out, a := fr.arr[in.d], fr.arr[in.a]
			ls, n := vm.spans(g, len(out))
			for _, l := range ls {
				ob := out[l*n : l*n+n]
				ab := a[l*n : l*n+n][:len(ob)]
				for i := range ob {
					ob[i] = math.Sqrt(ab[i])
				}
			}
		case opExpV:
			out, a := fr.arr[in.d], fr.arr[in.a]
			ls, n := vm.spans(g, len(out))
			for _, l := range ls {
				ob := out[l*n : l*n+n]
				ab := a[l*n : l*n+n][:len(ob)]
				for i := range ob {
					ob[i] = math.Exp(ab[i])
				}
			}
		case opLogV:
			out, a := fr.arr[in.d], fr.arr[in.a]
			ls, n := vm.spans(g, len(out))
			for _, l := range ls {
				ob := out[l*n : l*n+n]
				ab := a[l*n : l*n+n][:len(ob)]
				for i := range ob {
					ob[i] = math.Log(ab[i])
				}
			}
		case opFloorV:
			out, a := fr.arr[in.d], fr.arr[in.a]
			ls, n := vm.spans(g, len(out))
			for _, l := range ls {
				ob := out[l*n : l*n+n]
				ab := a[l*n : l*n+n][:len(ob)]
				for i := range ob {
					ob[i] = math.Floor(ab[i])
				}
			}
		case opFMAV:
			vm.fmaV(in, fr, g)
		case opLinV:
			out, x, y := fr.arr[in.d], fr.arr[in.a], fr.arr[in.c]
			c1, c2 := vm.prog.consts[in.b], vm.prog.consts[in.e>>1]
			ls, n := vm.spans(g, len(out))
			for _, l := range ls {
				ob := out[l*n : l*n+n]
				xb := x[l*n : l*n+n][:len(ob)]
				yb := y[l*n : l*n+n][:len(ob)]
				if in.e&1 == 0 {
					for i := range ob {
						ob[i] = float64(xb[i]*c1) + float64(yb[i]*c2)
					}
				} else {
					for i := range ob {
						ob[i] = float64(xb[i]*c1) - float64(yb[i]*c2)
					}
				}
			}
		case opSumV:
			a := fr.arr[in.a]
			n := len(a) / nl
			dbase := int(in.d) * nl
			for _, l := range g {
				var s float64
				for _, x := range a[l*n : l*n+n] {
					s += x
				}
				scal[dbase+l] = s
			}
		case opNcol:
			v := float64(ncol)
			dbase := int(in.d) * nl
			for _, l := range g {
				scal[dbase+l] = v
			}
		case opShiftV:
			out, src := fr.arr[in.d], fr.arr[in.a]
			bbase := int(in.b) * nl
			n := len(src) / nl
			for _, l := range g {
				k := int(scal[bbase+l]) % n
				if k < 0 {
					k += n
				}
				sv := src[l*n : l*n+n]
				ob := out[l*n : l*n+n]
				copy(ob[copy(ob, sv[k:]):], sv[:k])
			}

		case opRandS:
			dbase := int(in.d) * nl
			for _, l := range g {
				scal[dbase+l] = vm.rngs[l].Float64()
			}
		case opRandV:
			out := fr.arr[in.d]
			n := len(out) / nl
			for _, l := range g {
				r := vm.rngs[l]
				ob := out[l*n : l*n+n]
				for i := range ob {
					ob[i] = r.Float64()
				}
			}
		case opOutS:
			bbase := int(in.b) * nl
			for _, l := range g {
				vm.outSlot(l, in.a, 1)[0] = scal[bbase+l]
			}
		case opOutV:
			src := fr.arr[in.b]
			n := len(src) / nl
			for _, l := range g {
				copy(vm.outSlot(l, in.a, n), src[l*n:l*n+n])
			}
		case opTouch:
			abase := int(in.a) * nl
			for _, l := range g {
				fr.touched[abase+l] = true
			}

		case opLoopInit:
			abase, bbase := int(in.a)*nl, int(in.b)*nl
			dbase := int(in.d) * nl
			for _, l := range g {
				fr.ints[dbase+l] = int64(int(scal[abase+l]))
				fr.ints[dbase+nl+l] = int64(int(scal[bbase+l]))
			}
		case opLoopCond:
			abase := int(in.a) * nl
			nex := 0
			for _, l := range g {
				if fr.ints[abase+l] > fr.ints[abase+nl+l] {
					nex++
				}
			}
			if nex == len(g) {
				pc = int(in.b)
				continue
			}
			if nex > 0 {
				exit := make([]int, 0, nex)
				stay := make([]int, 0, len(g)-nex)
				for _, l := range g {
					if fr.ints[abase+l] > fr.ints[abase+nl+l] {
						exit = append(exit, l)
					} else {
						stay = append(stay, l)
					}
				}
				merged = append(merged, vm.exec(p, fr, exit, int(in.b))...)
				g = stay
			}
			dbase := int(in.d) * nl
			for _, l := range g {
				scal[dbase+l] = float64(fr.ints[abase+l])
			}
		case opLoopInc:
			abase := int(in.a) * nl
			for _, l := range g {
				fr.ints[abase+l]++
			}
			pc = int(in.b)
			continue

		case opCallSub:
			cs := vm.prog.calls[in.a]
			if vm.skips(cs.proc) {
				break
			}
			cf, done := vm.callBatch(cs, fr, g)
			if cf != nil {
				vm.putFrame(cs.proc, cf)
			}
			if len(done) != len(g) {
				g = done
				if len(g) == 0 {
					return mergeDone(nil, merged)
				}
			}
		case opCallFunS:
			cs := vm.prog.calls[in.a]
			if vm.skips(cs.proc) {
				dbase := int(in.d) * nl
				for _, l := range g {
					scal[dbase+l] = 0
				}
				break
			}
			cf, done := vm.callBatch(cs, fr, g)
			if cf != nil {
				dbase := int(in.d) * nl
				for _, l := range done {
					scal[dbase+l] = retScalLane(cs.proc, cf, nl, l)
				}
				vm.putFrame(cs.proc, cf)
			}
			if len(done) != len(g) {
				g = done
				if len(g) == 0 {
					return mergeDone(nil, merged)
				}
			}
		case opCallFunV:
			cs := vm.prog.calls[in.a]
			cf, done := vm.callBatch(cs, fr, g)
			if cf != nil {
				src := cf.arr[cs.proc.ret.reg]
				dst := fr.arr[in.d]
				if len(done) == nl {
					copy(dst, src)
				} else {
					n := len(dst) / nl
					for _, l := range done {
						copy(dst[l*n:l*n+n], src[l*n:l*n+n])
					}
				}
				vm.putFrame(cs.proc, cf)
			}
			if len(done) != len(g) {
				g = done
				if len(g) == 0 {
					return mergeDone(nil, merged)
				}
			}
		case opCallFunD:
			cs := vm.prog.calls[in.a]
			cf, done := vm.callBatch(cs, fr, g)
			if cf != nil {
				src := cf.drv[cs.proc.ret.reg]
				dst := fr.drv[in.d]
				if len(done) == nl {
					cloneBdval(dst, src)
				} else {
					for _, l := range done {
						cloneBdvalLane(dst, src, nl, l)
					}
				}
				vm.putFrame(cs.proc, cf)
			}
			if len(done) != len(g) {
				g = done
				if len(g) == 0 {
					return mergeDone(nil, merged)
				}
			}
		case opCallElem:
			done := vm.elemBroadcastBatch(vm.prog.calls[in.a], fr, fr.arr[in.d], g)
			if len(done) != len(g) {
				g = done
				if len(g) == 0 {
					return mergeDone(nil, merged)
				}
			}

		default:
			err := errf("bad opcode %d", in.op)
			for _, l := range g {
				vm.errs[l] = err
			}
			return mergeDone(nil, merged)
		}
		pc++
	}
	return mergeDone(g, merged)
}

// outSlot returns lane l's Outputs slice for label k, of length n:
// the one the lane last stored under the label when it has that
// length, else a new one it stores in Outputs and in the lane's slot.
func (vm *BatchVM) outSlot(l int, k int32, n int) []float64 {
	i := l*len(vm.prog.labels) + int(k)
	if dst := vm.outs[i]; dst != nil && len(dst) == n {
		return dst
	}
	dst := make([]float64, n)
	vm.results[l].Outputs[vm.prog.labels[k]] = dst
	vm.outs[i] = dst
	return dst
}

// wholeGroup is the lane list spans hands a full group: lane 0 with a
// block that covers every lane's columns.
var wholeGroup = []int{0}

// spans returns the lanes and per-lane block length an elementwise
// kernel over an array of size elements iterates: one block per lane
// of g, or for a full group one block over the whole array.
func (vm *BatchVM) spans(g []int, size int) ([]int, int) {
	if len(g) == vm.nl {
		return wholeGroup, size
	}
	return g, size / vm.nl
}

// fmaV runs opFMAV. Each operand is an array (e bit 2+i), a literal's
// consts slot (bit 5+i) or a scalar register.
func (vm *BatchVM) fmaV(in *instr, fr *bframe, g []int) {
	nl := vm.nl
	out := fr.arr[in.d]
	n := len(out) / nl
	sa, sc := 1.0, 1.0
	if in.e&1 != 0 {
		sa = -1
	}
	if in.e&2 != 0 {
		sc = -1
	}
	var av, bv, cv []float64
	if in.e&4 != 0 {
		av = fr.arr[in.a]
	}
	if in.e&8 != 0 {
		bv = fr.arr[in.b]
	}
	if in.e&16 != 0 {
		cv = fr.arr[in.c]
	}
	for _, l := range g {
		ob := out[l*n : l*n+n]
		var xa, ya, za []float64
		var xs, ys, zs float64
		if av != nil {
			xa = av[l*n : l*n+n][:len(ob)]
		} else {
			xs = vm.fmaScalar(in.a, in.e&32 != 0, fr, l)
		}
		if bv != nil {
			ya = bv[l*n : l*n+n][:len(ob)]
		} else {
			ys = vm.fmaScalar(in.b, in.e&64 != 0, fr, l)
		}
		if cv != nil {
			za = cv[l*n : l*n+n][:len(ob)]
		} else {
			zs = vm.fmaScalar(in.c, in.e&128 != 0, fr, l)
		}
		for i := range ob {
			x, y, z := xs, ys, zs
			if xa != nil {
				x = xa[i]
			}
			if ya != nil {
				y = ya[i]
			}
			if za != nil {
				z = za[i]
			}
			ob[i] = math.FMA(sa*x, y, sc*z)
		}
	}
}

// fmaScalar reads lane l of a scalar opFMAV operand: consts[r] for a
// literal, else scalar register r.
func (vm *BatchVM) fmaScalar(r int32, lit bool, fr *bframe, l int) float64 {
	if lit {
		return vm.prog.consts[r]
	}
	return fr.scal[int(r)*vm.nl+l]
}

// litBase returns the prelude of the literal base consts[k], from
// vm.powBase when the last base had the same bits.
func (vm *BatchVM) litBase(k int32) *powLitBase {
	if c := vm.prog.consts[k]; math.Float64bits(c) != math.Float64bits(vm.powBase.c) {
		vm.powBase = newPowLitBase(c)
	}
	return &vm.powBase
}

// powS runs opPowS. e 0 is scal[a] ** scal[b]; e 3 has the literal
// exponent consts[b] and e 4 the literal base consts[a], each through
// pow.go's hoisted math.Pow.
func (vm *BatchVM) powS(in *instr, fr *bframe, g []int) {
	nl, scal := vm.nl, fr.scal
	db := int(in.d) * nl
	switch in.e {
	case 3:
		ab, p := int(in.a)*nl, newPowLitExp(vm.prog.consts[in.b])
		for _, l := range g {
			scal[db+l] = p.pow(scal[ab+l])
		}
	case 4:
		bb, p := int(in.b)*nl, vm.litBase(in.a)
		for _, l := range g {
			scal[db+l] = p.pow(scal[bb+l])
		}
	default:
		ab, bb := int(in.a)*nl, int(in.b)*nl
		for _, l := range g {
			scal[db+l] = math.Pow(scal[ab+l], scal[bb+l])
		}
	}
}

// powV runs opPowV: the literal shapes of e (3 and 4) through pow.go's
// hoisted math.Pow, the others through batchSlowBinV.
func (vm *BatchVM) powV(in *instr, fr *bframe, g []int) {
	if in.e < 3 {
		vm.batchSlowBinV(in, fr, g)
		return
	}
	out := fr.arr[in.d]
	ls, n := vm.spans(g, len(out))
	if in.e == 3 {
		a, p := fr.arr[in.a], newPowLitExp(vm.prog.consts[in.b])
		for _, l := range ls {
			ob := out[l*n : l*n+n]
			ab := a[l*n : l*n+n][:len(ob)]
			for i := range ob {
				ob[i] = p.pow(ab[i])
			}
		}
		return
	}
	p, b := vm.litBase(in.a), fr.arr[in.b]
	for _, l := range ls {
		ob := out[l*n : l*n+n]
		bb := b[l*n : l*n+n][:len(ob)]
		for i := range ob {
			ob[i] = p.pow(bb[i])
		}
	}
}

// batchSlowBinV covers the colder elementwise binaries with one
// generic lane loop per shape.
func (vm *BatchVM) batchSlowBinV(in *instr, fr *bframe, g []int) {
	var fn func(a, b float64) float64
	switch in.op {
	case opMinV:
		fn = math.Min
	case opMaxV:
		fn = math.Max
	case opPowV:
		fn = math.Pow
	case opEqV:
		fn = func(a, b float64) float64 { return b2f(a == b) }
	case opNeV:
		fn = func(a, b float64) float64 { return b2f(a != b) }
	case opLtV:
		fn = func(a, b float64) float64 { return b2f(a < b) }
	case opLeV:
		fn = func(a, b float64) float64 { return b2f(a <= b) }
	case opGtV:
		fn = func(a, b float64) float64 { return b2f(a > b) }
	case opGeV:
		fn = func(a, b float64) float64 { return b2f(a >= b) }
	case opAndV:
		fn = func(a, b float64) float64 { return b2f(a != 0 && b != 0) }
	case opOrV:
		fn = func(a, b float64) float64 { return b2f(a != 0 || b != 0) }
	case opModV:
		fn = math.Mod
	case opSignV:
		fn = math.Copysign
	}
	nl := vm.nl
	out := fr.arr[in.d]
	n := len(out) / nl
	switch in.e {
	case 0:
		a, b := fr.arr[in.a], fr.arr[in.b]
		ls, m := vm.spans(g, len(out))
		for _, l := range ls {
			ob := out[l*m : l*m+m]
			ab := a[l*m : l*m+m][:len(ob)]
			bb := b[l*m : l*m+m][:len(ob)]
			for i := range ob {
				ob[i] = fn(ab[i], bb[i])
			}
		}
	case 1:
		a, sb := fr.arr[in.a], int(in.b)*nl
		for _, l := range g {
			s := fr.scal[sb+l]
			ob := out[l*n : l*n+n]
			ab := a[l*n : l*n+n][:len(ob)]
			for i := range ob {
				ob[i] = fn(ab[i], s)
			}
		}
	default:
		sa, b := int(in.a)*nl, fr.arr[in.b]
		for _, l := range g {
			s := fr.scal[sa+l]
			ob := out[l*n : l*n+n]
			ab := b[l*n : l*n+n][:len(ob)]
			for i := range ob {
				ob[i] = fn(s, ab[i])
			}
		}
	}
}

// elemBroadcastBatch invokes an elemental function once per column for
// a group of lanes, binding per-lane scalar views read live per column
// exactly as the walker's callFunction broadcast loop does, and returns
// the surviving lanes.
func (vm *BatchVM) elemBroadcastBatch(cs *callSite, caller *bframe, out []float64, g []int) []int {
	p := cs.proc
	nl := vm.nl
	on := len(out) / nl
	if vm.skips(p) {
		for _, l := range g {
			clear(out[l*on : l*on+on])
		}
		return g
	}
	for col := 0; col < vm.ncol && len(g) > 0; col++ {
		if vm.depth >= maxDepth {
			err := errf("call depth exceeded at %s", p.fullName)
			for _, l := range g {
				vm.errs[l] = err
			}
			return nil
		}
		vm.depth++
		if vm.trace != nil {
			vm.trace(p.module, p.name)
		}
		fr := vm.getFrame(p)
		for ai, ea := range cs.elem {
			if ai >= len(p.argBind) {
				break
			}
			slot := p.argBind[ai]
			if slot.mode == 'u' {
				continue
			}
			d := int(slot.reg) * nl
			dst := fr.scal[d : d+nl]
			switch ea.space {
			case esTempS:
				a := int(ea.a) * nl
				copy(dst, caller.scal[a:a+nl])
			case esGlobS:
				a := int(ea.a) * nl
				copy(dst, vm.gscal[a:a+nl])
			case esPtrS:
				copy(dst, caller.ptrs[ea.a])
			case esFieldS:
				b := int(ea.b) * nl
				copy(dst, caller.drv[ea.a].scal[b:b+nl])
			case esDrvF:
				copy(dst, caller.drv[ea.a].f)
			case esArr:
				a := caller.arr[ea.a]
				an := len(a) / nl
				for l := 0; l < nl; l++ {
					dst[l] = a[l*an+col]
				}
			}
		}
		done := vm.exec(p, fr, g, 0)
		vm.exitSnapshotsBatch(p, fr, g)
		vm.depth--
		for _, l := range done {
			out[l*on+col] = retScalLane(p, fr, nl, l)
		}
		vm.putFrame(p, fr)
		g = done
	}
	return g
}
