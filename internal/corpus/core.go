package corpus

import "fmt"

// This file holds the hand-modeled core of the synthetic model: the
// modules the paper's experiments name. Constants that experiments
// mutate (bug sites, FMA gains) are injected via fmt.Sprintf.

func (c *Corpus) addCore() {
	cfg := c.cfg

	c.add("shr_kind_mod.F90", "share", true, `
module shr_kind_mod
  real, parameter :: shr_kind_r8 = 8.0
end module shr_kind_mod
`)

	c.add("physconst.F90", "share", true, `
module physconst
  use shr_kind_mod, only: r8 => shr_kind_r8
  real, parameter :: gravit = 9.80616
  real, parameter :: rair = 287.04
  real, parameter :: cpair = 1004.64
  real, parameter :: latvap = 2501000.0
  real, parameter :: tmelt = 273.15
  real, parameter :: epsqs = 0.622
  real, parameter :: stebol = 5.67e-8
end module physconst
`)

	c.add("ref_pres.F90", "cam", true, `
module ref_pres
  real :: pref(:), pdel(:), hyai(:), hybi(:)
contains
  subroutine ref_pres_init()
    integer :: i
    do i = 1, size(pref)
      pref(i) = 100000.0 - 2200.0 * i
      pdel(i) = 2200.0
      hyai(i) = 0.001 * i
      hybi(i) = 1.0 - 0.0125 * i
    end do
  end subroutine ref_pres_init
end module ref_pres
`)

	c.add("physics_types.F90", "cam", true, `
module physics_types
  type physstate
    real :: t(:)
    real :: u(:)
    real :: v(:)
    real :: omega(:)
    real :: ps(:)
    real :: q(:)
    real :: z3(:)
  end type physstate
  type(physstate) :: state
end module physics_types
`)

	// The internal-variability engine: a logistic-map field seeded by
	// temperature deviations. This is what turns O(1e-9) initial
	// perturbations into a usable ensemble spread by step 9.
	c.add("chaos_turb.F90", "cam", true, fmt.Sprintf(`
module chaos_turb
  use physics_types
  real :: chi(:), turb(:)
  real, parameter :: turbcoef = %.6g
contains
  subroutine turb_init()
    chi = (state%%t - 200.0) * 0.004
    chi = max(0.05, min(0.95, chi))
    turb = 0.0
  end subroutine turb_init
  subroutine turb_tend()
    real :: tbar
    integer :: k
    tbar = sum(state%%t) / size(state%%t)
    chi = chi + (state%%t - tbar) * 1.0e-6
    chi = max(0.02, min(0.98, chi))
    do k = 1, 4
      chi = 3.97 * chi * (1.0 - chi)
    end do
    turb = (chi - 0.6) * 0.5 + shift(chi, 1) * 0.05
    state%%t = state%%t + turb * turbcoef
    state%%u = state%%u + turb * (turbcoef * 0.5)
    state%%v = state%%v + shift(turb, 2) * (turbcoef * 0.3)
  end subroutine turb_tend
end module chaos_turb
`, cfg.TurbCoef))

	// Goff-Gratch saturation vapor pressure; the 8.1328e-3 coefficient
	// is the GOFFGRATCH bug site (GoffGratchPatch).
	c.add("wv_saturation.F90", "cam", true, `
module wv_saturation
  use physconst
  interface svp
    module procedure goffgratch_svp, svp_ice
  end interface
contains
  elemental function goffgratch_svp(tt) result(es)
    real, intent(in) :: tt
    real :: es
    real :: e1, e2
    e1 = 10.79574 * (1.0 - 373.16 / tt)
    e2 = 8.1328e-3 * (10.0 ** (-(3.49149 * (373.16 / tt - 1.0))) - 1.0)
    es = 1013.246 * 10.0 ** (e1 - e2)
  end function goffgratch_svp
  elemental function svp_ice(tt) result(es)
    real, intent(in) :: tt
    real :: es
    es = goffgratch_svp(tt) * 0.92
  end function svp_ice
end module wv_saturation
`)

	// microp_aero: wsub is deliberately near-isolated (paper §6.1) —
	// its only stochastic input is the harness-perturbed wpert field.
	// The 0.20 floor is the WSUBBUG site (WsubPatch).
	c.add("microp_aero.F90", "cam", true, `
module microp_aero
  use ref_pres
  real :: wsub(:), ccn(:), kvh(:), wpert(:)
contains
  subroutine aero_init()
    kvh = pref * 4.0e-6
    wpert = 0.0
    ccn = 0.0
  end subroutine aero_init
  subroutine aero_run()
    real :: tke(:)
    tke = kvh * 0.6 + wpert + 0.35
    wsub = max(0.20, tke * 0.5)
    call outfld('WSUB', wsub)
    ccn = 20.0 + kvh * 60.0 + wpert * 5.0
    call outfld('CCN3', ccn)
  end subroutine aero_run
end module microp_aero
`)

	// micro_mg: the Morrison-Gettelman-style microphysics kernel with
	// the paper's variable cast. The pk/fsens pair is the
	// deterministic near-cancellation that makes FMA rounding visible
	// (§6.4): 1000003*0.999997 = 999999.999991 exactly in real
	// arithmetic, so pk is pure rounding residue whose value depends
	// on whether the multiply-add is fused.
	c.add("micro_mg.F90", "cam", true, fmt.Sprintf(`
module micro_mg
  use physconst
  use ref_pres
  use physics_types
  use wv_saturation
  use microp_aero, only: ccn
  real :: qsout2(:), nsout2(:), freqs(:), snowl(:)
  real, parameter :: pfac = 0.999997
  real, parameter :: pnegoff = -999999.999991
  real, parameter :: fmagain = %.6g
contains
  subroutine micro_mg_tend()
    real :: es(:), qvs(:), ssat(:), rho(:), dum(:), ratio(:), tlat(:)
    real :: qniic(:), nric(:), nsic(:), qctend(:), qric(:), qitend(:)
    real :: prds(:), pre(:), nctend(:), qvlat(:), mnuccc(:), nitend(:)
    real :: nsagg(:), qsout(:)
    real :: pk, fsens
    es = goffgratch_svp(state%%t)
    qvs = epsqs * es / (pref * 0.001 - es * 0.378)
    qvs = max(1.0e-8, qvs)
    ssat = state%%q / qvs - 0.5
    rho = pref / (rair * state%%t)
    pk = 1000003.0 * pfac + pnegoff
    fsens = pk * fmagain
    dum = max(0.0, ssat) * 0.02
    qric = dum * rho * 0.5 + 0.001
    dum = qric * 0.3 + ccn * 1.0e-4
    nric = dum * 12.0
    dum = nric * 0.05 + qric * 0.2
    qniic = dum * 0.7
    nsic = qniic * 3.0 + dum * 0.1
    pre = (qric * 0.8 + dum * 0.1) * 0.01 + fsens
    prds = qniic * 0.02 + pre * 0.3
    mnuccc = dum * 0.004 + prds * 0.1
    nsagg = nsic * 0.01 + mnuccc * 0.5
    ratio = qniic / max(1.0e-12, qric + qniic)
    dum = ratio * pre + prds * 0.5
    qctend = -(dum * 0.8) - mnuccc
    qitend = dum * 0.3 + mnuccc - nsagg * 0.01
    qvlat = -(pre + prds) - dum * 0.05
    tlat = (pre + prds) * 0.02 + fsens
    nctend = -(nric * 0.001) - dum * 0.02
    nitend = mnuccc * 2.0 - nsagg + dum * 0.01
    qsout = qniic * 0.9 + dum * 0.05
    qsout2 = qsout * 0.98
    nsout2 = nsic * 0.9
    freqs = min(1.0, max(0.0, qsout * 50.0))
    snowl = qsout * 0.5
    state%%t = state%%t + tlat
    state%%q = state%%q + qvlat * 1.0e-4
    call outfld('AQSNOW', qsout2)
    call outfld('ANSNOW', nsout2)
    call outfld('FREQS', freqs)
    call outfld('PRECSL', snowl)
  end subroutine micro_mg_tend
end module micro_mg
`, cfg.FMAGain))

	// Cloud fraction: relative humidity + turbulence.
	c.add("cldfrc.F90", "cam", true, `
module cldfrc
  use physconst
  use ref_pres
  use physics_types
  use wv_saturation
  use chaos_turb
  real :: cld(:), cllow(:), clmed(:), clhgh(:), cltot(:)
contains
  subroutine cldfrc_run()
    real :: es(:), qvs(:), rh(:)
    es = goffgratch_svp(state%t)
    qvs = max(1.0e-8, epsqs * es / (pref * 0.001 - es * 0.378))
    rh = state%q / qvs
    cld = min(0.95, max(0.05, rh * 1.1 + turb * 0.2))
    cllow = min(1.0, cld * 1.1)
    clmed = cld * 0.9 + shift(cld, 1) * 0.05
    clhgh = cld * 0.5 + shift(cld, 2) * 0.1
    cltot = min(0.99, cllow * 0.4 + clmed * 0.3 + clhgh * 0.3)
    call outfld('CLOUD', cld)
    call outfld('CLDLOW', cllow)
    call outfld('CLDMED', clmed)
    call outfld('CLDHGH', clhgh)
    call outfld('CLDTOT', cltot)
  end subroutine cldfrc_run
end module cldfrc
`)

	// Longwave radiation with PRNG-sampled cloud overlap (RAND-MT bug
	// location 1).
	c.add("cloud_rand_lw.F90", "cam", true, `
module cloud_rand_lw
  use physconst
  use physics_types
  use cldfrc
  real :: flwds(:), flns(:), qrl(:), rnum_lw(:)
contains
  subroutine radlw_run()
    real :: ovrlp(:)
    call random_number(rnum_lw)
    ovrlp = cld * (0.7 + 0.3 * rnum_lw)
    flwds = stebol * state%t ** 4.0 * (0.62 + 0.25 * ovrlp)
    flns = stebol * state%t ** 4.0 * 0.22 - flwds * 0.15
    qrl = -(flns * 0.008) - ovrlp * 0.05
    state%t = state%t + qrl * 0.001
    call outfld('FLDS', flwds)
    call outfld('FLNS', flns)
    call outfld('QRL', qrl)
  end subroutine radlw_run
end module cloud_rand_lw
`)

	// Shortwave radiation with its own PRNG draw (RAND-MT location 2).
	c.add("cloud_rand_sw.F90", "cam", true, `
module cloud_rand_sw
  use physconst
  use physics_types
  use cldfrc
  real :: fsds(:), qrs(:), rnum_sw(:)
contains
  subroutine radsw_run()
    real :: trans(:)
    call random_number(rnum_sw)
    trans = 1.0 - cld * (0.45 + 0.25 * rnum_sw)
    fsds = 340.0 * trans
    qrs = fsds * 0.0022
    state%t = state%t + qrs * 0.001
    call outfld('FSDS', fsds)
    call outfld('QRS', qrs)
  end subroutine radsw_run
end module cloud_rand_sw
`)

	// dyn3: the hydrostatic-pressure dynamics kernel (DYN3BUG and
	// RANDOMBUG sites: Dyn3Patch, RandomIdxPatch).
	c.add("dyn3.F90", "cam", true, `
module dyn3
  use physconst
  use ref_pres
  use physics_types
  real :: omegat(:), pint(:), omg_tmp(:)
contains
  subroutine dyn3_hydro()
    real :: pgf(:), zfac(:)
    pint = state%ps * 0.001 + pref * 0.5
    zfac = rair * state%t / (gravit * pint) * 100.0
    state%z3 = zfac * 70.0 + shift(zfac, 1) * 5.0
    pgf = (shift(pint, 1) - pint) * 0.0004
    state%u = state%u * 0.98 + pgf + 0.1
    state%v = state%v * 0.98 - pgf * 0.8
    omg_tmp = (shift(state%u, 1) - state%u) * pint * 0.00002
    state%omega = omg_tmp * 0.6 + state%omega * 0.4
    omegat = state%omega * state%t
    state%t = state%t + state%omega * 0.0005
    state%ps = state%ps + (sum(state%u) / size(state%u)) * 0.01
    call outfld('OMEGAT', omegat)
  end subroutine dyn3_hydro
end module dyn3
`)

	// Surface/diagnostic fields.
	c.add("cam_diag.F90", "cam", true, `
module cam_diag
  use physconst
  use physics_types
  use dyn3
  real :: tref(:), u10(:), shf(:), wsx(:)
contains
  subroutine diag_run()
    tref = state%t * 0.96 + 9.5
    u10 = state%u * 0.8 + state%v * 0.1
    shf = (state%t - (state%t * 0.97 + 8.0)) * 12.0
    wsx = -(state%u * 0.018)
    call outfld('TREFHT', tref)
    call outfld('U10', u10)
    call outfld('SHFLX', shf)
    call outfld('TAUX', wsx)
    call outfld('T', state%t)
    call outfld('PS', state%ps)
    call outfld('U', state%u)
    call outfld('V', state%v)
    call outfld('OMEGA', state%omega)
    call outfld('Z3', state%z3)
  end subroutine diag_run
end module cam_diag
`)

	// Land component: snow accumulation (the snowhland internal in
	// Table 2). The retention coefficient is the LANDBUG site
	// (LandPatch).
	c.add("lnd_snow.F90", "lnd", true, `
module lnd_snow
  use physconst
  use physics_types
  use micro_mg
  real :: snowhland(:), soilw(:)
contains
  subroutine lnd_init()
    snowhland = 120.0
    soilw = 0.3
  end subroutine lnd_init
  subroutine lnd_run()
    snowhland = snowhland * 0.98 + snowl * 0.5 + max(0.0, tmelt - state%t) * 0.0001
    soilw = soilw * 0.99 + snowl * 0.01
    call outfld('SNOWHLND', snowhland)
    call outfld('SOILW', soilw)
  end subroutine lnd_run
end module lnd_snow
`)

	// Feedback coupler: a fraction of auxiliary parameterizations
	// accumulate a tendency that feeds temperature, so their whole
	// upstream chains become ancestors of the core outputs and the
	// induced slices grow with corpus scale (as the paper's do).
	c.add("aux_coupler.F90", "cam", true, `
module aux_coupler
  use physics_types
  real :: auxten(:)
contains
  subroutine coupler_init()
    auxten = 0.0
  end subroutine coupler_init
  subroutine coupler_apply()
    state%t = state%t + auxten * 1.0e-4
    auxten = 0.0
  end subroutine coupler_apply
end module aux_coupler
`)

	// Ground truth for the output→internal mapping (Table 2 columns).
	for lbl, internal := range map[string]string{
		"WSUB": "wsub", "CCN3": "ccn", "AQSNOW": "qsout2",
		"ANSNOW": "nsout2", "FREQS": "freqs", "PRECSL": "snowl",
		"CLOUD": "cld", "CLDLOW": "cllow", "CLDMED": "clmed",
		"CLDHGH": "clhgh", "CLDTOT": "cltot", "FLDS": "flwds",
		"FLNS": "flns", "QRL": "qrl", "FSDS": "fsds", "QRS": "qrs",
		"OMEGAT": "omegat", "TREFHT": "tref", "U10": "u10",
		"SHFLX": "shf", "TAUX": "wsx", "T": "t", "PS": "ps", "U": "u",
		"V": "v", "OMEGA": "omega", "Z3": "z3",
		"SNOWHLND": "snowhland", "SOILW": "soilw",
	} {
		c.OutputToInternal[lbl] = internal
	}
}
