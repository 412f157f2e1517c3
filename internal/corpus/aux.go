package corpus

import (
	"fmt"
	"strings"
)

// addAux generates the auxiliary module population: many small-to-large
// peripheral physics/diagnostic modules with preferential-attachment
// imports (hub structure → power-law-ish degree distribution, Figure
// 4), weak FMA-sensitive kernels (distributed AVX2 sensitivity, §6.5),
// occasional outfld diagnostics, never-called subprograms (coverage
// fodder at the subprogram level), and a population of dead modules
// the driver never references (coverage fodder at the module level).
func (c *Corpus) addAux() {
	cfg := c.cfg
	r := c.auxRand()

	for i := 0; i < cfg.AuxModules; i++ {
		name := fmt.Sprintf("aux_phys_%03d", i)
		var b strings.Builder
		fmt.Fprintf(&b, "module %s\n", name)
		b.WriteString("  use physconst\n  use ref_pres\n  use physics_types\n")
		useTurb := r.Intn(3) == 0
		if useTurb {
			b.WriteString("  use chaos_turb\n")
		}
		coupled := r.Intn(7) == 0
		if coupled {
			b.WriteString("  use aux_coupler\n")
		}
		// Preferential attachment: earlier aux modules are imported
		// with probability weighted toward small indices, creating
		// hubs.
		var upstream []string
		if i > 0 {
			nUp := 1 + r.Intn(2)
			for u := 0; u < nUp; u++ {
				// Square the uniform variate to bias toward 0.
				f := r.Float64()
				idx := int(f * f * float64(i))
				if idx >= i {
					idx = i - 1
				}
				up := fmt.Sprintf("aux_phys_%03d", idx)
				dup := false
				for _, s := range upstream {
					if s == up {
						dup = true
					}
				}
				if !dup {
					upstream = append(upstream, up)
				}
			}
			for _, up := range upstream {
				idx := up[len(up)-3:]
				fmt.Fprintf(&b, "  use %s, only: a0_%s\n", up, idx)
			}
		}
		nv := 3 + r.Intn(cfg.AuxVars)
		// Long modules get extra padding variables so "largest by
		// lines of code" diverges from "most central" (Table 1): in
		// CESM too, the biggest files are not the information hubs.
		long := r.Intn(3) == 0
		pad := 0
		if long {
			pad = cfg.AuxVars * 8
		}
		var names []string
		for v := 0; v < nv+pad; v++ {
			names = append(names, fmt.Sprintf("a%d_%03d", v, i))
		}
		fmt.Fprintf(&b, "  real :: %s(:)", names[0])
		for _, n := range names[1:] {
			fmt.Fprintf(&b, ", %s(:)", n)
		}
		b.WriteString("\n")
		sign := 1.0
		if r.Intn(2) == 0 {
			sign = -1.0
		}
		factor := 0.5 + r.Float64()
		gain := cfg.AuxFMAGain * factor * sign
		fmt.Fprintf(&b, "  real, parameter :: fgain_%03d = ", i)
		gainAt := b.Len()
		fmt.Fprintf(&b, "%.8g\n", gain)
		b.WriteString("contains\n")

		// init: deterministic fields from the pressure profile.
		fmt.Fprintf(&b, "  subroutine aux_init_%03d()\n", i)
		for v, n := range names {
			fmt.Fprintf(&b, "    %s = pref * %.6g\n", n, 1e-5*(1+float64(v%7)))
		}
		fmt.Fprintf(&b, "  end subroutine aux_init_%03d\n", i)

		// run: chained updates reading state and upstream hubs.
		fmt.Fprintf(&b, "  subroutine aux_run_%03d()\n", i)
		fmt.Fprintf(&b, "    real :: pk_%03d, fs_%03d\n", i, i)
		fmt.Fprintf(&b, "    pk_%03d = 1000003.0 * 0.999997 + (-999999.999991)\n", i)
		fmt.Fprintf(&b, "    fs_%03d = pk_%03d * fgain_%03d\n", i, i, i)
		fmt.Fprintf(&b, "    %s = state%%t * %.6g + %s * 0.92 + fs_%03d\n",
			names[0], 0.02*(1+r.Float64()), names[0], i)
		if useTurb {
			fmt.Fprintf(&b, "    %s = %s + turb * %.6g\n", names[0], names[0], 0.01*r.Float64())
		}
		for _, up := range upstream {
			idx := up[len(up)-3:]
			fmt.Fprintf(&b, "    %s = %s + a0_%s * %.6g\n", names[0], names[0], idx, 0.05*r.Float64())
		}
		for v := 1; v < nv; v++ {
			fmt.Fprintf(&b, "    %s = %s * %.6g + shift(%s, 1) * %.6g\n",
				names[v], names[v-1], 0.3+0.5*r.Float64(), names[v-1], 0.02*r.Float64())
		}
		// Padding statements for long modules (peripheral busywork).
		for v := nv; v < nv+pad; v++ {
			fmt.Fprintf(&b, "    %s = %s * 0.999 + pref * 1.0e-9\n", names[v], names[v])
		}
		if coupled {
			fmt.Fprintf(&b, "    auxten = auxten + %s * 0.001\n", names[nv-1])
		}
		if r.Intn(8) == 0 {
			fmt.Fprintf(&b, "    call outfld('AUX%03d', %s)\n", i, names[nv-1])
			c.OutputToInternal[fmt.Sprintf("AUX%03d", i)] = names[nv-1]
		}
		fmt.Fprintf(&b, "  end subroutine aux_run_%03d\n", i)

		// Never-called subprogram: removed by the coverage filter.
		if r.Intn(100) < cfg.UnusedSubprogramPct {
			fmt.Fprintf(&b, "  subroutine aux_unused_%03d()\n", i)
			fmt.Fprintf(&b, "    %s = %s * 1.0001 + 0.0001\n", names[0], names[0])
			fmt.Fprintf(&b, "  end subroutine aux_unused_%03d\n", i)
		}
		fmt.Fprintf(&b, "end module %s\n", name)
		comp := "cam"
		if r.Intn(10) == 0 {
			comp = "lnd"
		}
		c.add(name+".F90", comp, false, b.String())
		c.addSite(auxFMAGain, gainAt, factor, sign)
		c.AuxCalled = append(c.AuxCalled, name)
	}

	// Dead modules: present in the source tree, never referenced — the
	// modules KGen/coverage eliminate before parsing (paper §4.1).
	for i := 0; i < cfg.UnusedModules; i++ {
		name := fmt.Sprintf("aux_dead_%03d", i)
		src := fmt.Sprintf(`
module %s
  use ref_pres
  real :: d0_%03d(:), d1_%03d(:)
contains
  subroutine dead_run_%03d()
    d0_%03d = pref * 1.0e-6
    d1_%03d = d0_%03d * 2.0
  end subroutine dead_run_%03d
end module %s
`, name, i, i, i, i, i, i, i, name)
		c.add(name+".F90", "cam", false, src)
	}
}

// addDriver emits cam_driver, which initializes every live module and
// advances one model step per call (the tphysbc-style call sequence).
func (c *Corpus) addDriver() {
	var b strings.Builder
	b.WriteString("module cam_driver\n")
	for _, m := range []string{
		"physconst", "ref_pres", "physics_types", "chaos_turb",
		"wv_saturation", "microp_aero", "micro_mg", "cldfrc",
		"cloud_rand_lw", "cloud_rand_sw", "dyn3", "cam_diag", "lnd_snow",
		"aux_coupler",
	} {
		fmt.Fprintf(&b, "  use %s\n", m)
	}
	for _, m := range c.AuxCalled {
		fmt.Fprintf(&b, "  use %s\n", m)
	}
	b.WriteString("  real :: nstep\n")
	b.WriteString("contains\n")
	b.WriteString(`  subroutine cam_init()
    integer :: i
    call ref_pres_init()
    do i = 1, size(pref)
      state%t(i) = 288.0 - 1.2 * i
      state%u(i) = 5.0 + 0.4 * i
      state%v(i) = 2.0 - 0.2 * i
      state%ps(i) = 101325.0 - 10.0 * i
      state%omega(i) = 0.01 * i
      state%z3(i) = 1500.0 + 100.0 * i
    end do
    state%q = epsqs * goffgratch_svp(state%t) / (pref * 0.001) * 0.8
    call turb_init()
    call aero_init()
    call lnd_init()
    call coupler_init()
`)
	for _, m := range c.AuxCalled {
		fmt.Fprintf(&b, "    call aux_init_%s()\n", m[len(m)-3:])
	}
	b.WriteString("    nstep = 0.0\n")
	b.WriteString("  end subroutine cam_init\n")
	b.WriteString(`  subroutine cam_step()
    nstep = nstep + 1.0
    call dyn3_hydro()
    call turb_tend()
    call aero_run()
    call micro_mg_tend()
    call cldfrc_run()
    call radlw_run()
    call radsw_run()
`)
	for _, m := range c.AuxCalled {
		fmt.Fprintf(&b, "    call aux_run_%s()\n", m[len(m)-3:])
	}
	b.WriteString("    call coupler_apply()\n    call lnd_run()\n    call diag_run()\n")
	b.WriteString("  end subroutine cam_step\n")
	b.WriteString("end module cam_driver\n")
	c.add("cam_driver.F90", "cam", true, b.String())
}
