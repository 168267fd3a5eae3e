"""End-to-end acceptance gate.

One test per contracted behavior, at the contracted tolerance: closed-form
spectra, convergence to the reflective limit, fluctuation-dissipation
consistency, algebraic kernel identities, causality metrics, squeezing
support rules, dissipation as the squeezing of the output, the radiation
reaction force in the time domain, and bit-level CLI determinism.
"""

import numpy as np

import oracles
from vacmirror import (
    FrequencyGrid,
    MonochromaticOscillation,
    PerfectMirror,
    SinglePoleMirror,
    Spectrum,
    TabulatedMirror,
    TabulatedSpectrum,
    VacuumState,
    causality_report,
    chi_kernel,
    chi_kernel_comoving,
    chi_kernel_symmetrized,
    delta_cout_vacuum,
    energy_exchange_kernel,
    fdt_check,
    inverse_fourier_to_time,
    mean_force_integrand,
    motional_force_spectrum,
    noise_spectrum,
    oscillation_line_strength,
    oscillation_squeeze_lines,
    susceptibility,
    susceptibility_grid,
    unitarity_identities,
    xi_spectrum,
)
from vacmirror.cli import main


def test_perfect_mirror_cubic_susceptibility():
    # chi(w) = i hbar w^3 / 6 pi for the perfectly reflecting mirror
    vac = VacuumState()
    mirror = PerfectMirror()
    for w in (0.1, 1.0, 10.0):
        got = susceptibility(mirror, vac, w)
        ref = 1j * w**3 / (6.0 * np.pi)
        assert abs(got - ref) <= 1e-10 * abs(ref)


def test_transparent_mirror_converges_to_cubic_law():
    # the single-pole model approaches the reflective cubic law as its
    # cutoff grows, monotonically and within 2% by cutoff 100 at w = 1
    vac = VacuumState()
    w = 1.0
    ref = 1j * w**3 / (6.0 * np.pi)
    errs = []
    for oc in (1e1, 1e2, 1e3, 1e4):
        got = susceptibility(SinglePoleMirror(oc), vac, w)
        errs.append(abs(got - ref) / abs(ref))
    assert all(a > b for a, b in zip(errs, errs[1:]))
    assert errs[1] <= 0.02


def test_vacuum_noise_closed_form_values():
    # C_FF(1) = 1/(3 pi) in the reflective limit; cutoff 100 lands within 2%
    vac = VacuumState()
    got = noise_spectrum(PerfectMirror(), vac, 1.0)
    ref = 1.0 / (3.0 * np.pi)
    assert abs(got - ref) <= 1e-10 * ref
    near = noise_spectrum(SinglePoleMirror(100.0), vac, 1.0)
    assert abs(near - ref) <= 0.02 * ref


def test_fluctuation_dissipation_routes_agree():
    # commutator-kernel convolution, antisymmetrized noise, and Im chi
    # coincide to 1e-8 relative across [-5, 5]
    rep = fdt_check(SinglePoleMirror(10.0), VacuumState(), FrequencyGrid.symmetric(5.0, 41))
    assert rep.relative_deviation <= 1e-8


def test_vacuum_noise_is_one_sided():
    # the vacuum damps mirror motion but cannot excite it: exact zeros for
    # w < 0 and C_FF = 2 hbar xi for w > 0
    m = SinglePoleMirror(1.0)
    vac = VacuumState()
    hbar = vac.hbar
    for w in (0.5, 1.0, 4.0):
        assert noise_spectrum(m, vac, -w) == 0.0
        cff = noise_spectrum(m, vac, w)
        assert abs(cff - 2.0 * hbar * xi_spectrum(m, vac, w)) <= 1e-10 * cff
    assert noise_spectrum(m, vac, 0.0) == 0.0


def test_static_mirror_feels_no_mean_force():
    # pointwise-vanishing vacuum pressure integrand and zero net energy
    # exchange for the single-pole model
    m = SinglePoleMirror(1.0)
    grid = FrequencyGrid.symmetric(50.0, 1001)
    vals = np.asarray(mean_force_integrand(m, VacuumState(), grid.omega))
    assert np.max(np.abs(vals)) <= 1e-12
    assert np.max(np.abs(energy_exchange_kernel(m, grid.omega))) <= 1e-12


def test_kernel_identity_suite():
    # unitary models satisfy both product identities at 1e-12 over 1000
    # random pairs; a rescaled-reflection table must violate them
    rng = np.random.default_rng(123)
    pairs = rng.uniform(-20.0, 20.0, (1000, 2))
    m = SinglePoleMirror(1.0)
    res_a, res_b = unitarity_identities(m, pairs[:, 0], pairs[:, 1])
    assert max(res_a.max(), res_b.max()) <= 1e-12
    sp = SinglePoleMirror(1.0)
    om = np.linspace(0.0, 60.0, 601)
    broken = TabulatedMirror(om, sp.s(om), 1.3 * sp.r(om))
    res_a, res_b = unitarity_identities(broken, 0.5, 1.5)
    assert max(res_a, res_b) > 1e-3


def test_frame_equivalence():
    # laboratory and comoving evaluations of the response kernel agree to
    # 1e-12 on 1000 random pairs
    m = SinglePoleMirror(1.0)
    vac = VacuumState()
    rng = np.random.default_rng(321)
    w1, w2 = rng.uniform(-10.0, 10.0, (1000, 2)).T
    lab = chi_kernel(m, vac, w1, w2)
    lab_full = chi_kernel_symmetrized(m, vac, w1, w2)
    com = chi_kernel_comoving(m, vac, w1, w2)
    scale = np.maximum(np.abs(lab), 1.0)
    assert np.all(np.abs(lab - com) <= 1e-12 * scale)
    assert np.all(np.abs(lab_full - com) <= 1e-12 * scale)


def test_susceptibility_is_causal():
    # the reconstructed response lives at positive times and satisfies the
    # dispersion relation; an injected pure-cubic spectrum fails
    grid = FrequencyGrid.symmetric(200.0, 16001)
    spec = susceptibility_grid(SinglePoleMirror(2.0), VacuumState(), grid)
    rep = causality_report(spec)
    assert rep.negative_time_fraction < 1e-3
    assert rep.kk_residual <= 0.01
    cubic = Spectrum(grid, 1j * grid.omega**3 / (6.0 * np.pi))
    bad = causality_report(cubic)
    assert bad.negative_time_fraction >= 1e-3
    assert not bad.passes()


def test_squeezing_support_rule():
    # oscillation at 2 w0 populates only same-sign pairs on w + w' = +/-2 w0,
    # and the lines extinguish as the drive slows down
    m = SinglePoleMirror(1.0)
    vac = VacuumState()
    w0 = 1.0
    osc = MonochromaticOscillation(amplitude=1.0, frequency=2.0 * w0)
    for w, w2, mat in oscillation_squeeze_lines(m, vac, osc):
        assert abs(abs(w + w2) - 2.0 * w0) <= 1e-15
        assert np.sign(w) == np.sign(w2)
        assert np.max(np.abs(mat)) > 0.0
    # mixed-sign pairs carry exactly nothing
    assert np.array_equal(delta_cout_vacuum(m, 1.5, -3.5), np.zeros((2, 2)))
    assert np.array_equal(delta_cout_vacuum(m, -0.5, 2.5), np.zeros((2, 2)))
    strengths = []
    for scale in (1.0, 0.1, 0.01):
        st = oscillation_line_strength(
            m, vac, MonochromaticOscillation(1.0, 2.0 * w0 * scale)
        )
        strengths.append(st[2.0 * w0 * scale])
    assert strengths[0] > strengths[1] > strengths[2] > 0.0
    assert strengths[2] < 0.02 * strengths[0]


def test_dissipation_is_the_squeezing_of_the_output():
    # over the vacuum the damping Im chi(w) equals the squeezing the motion
    # puts on the output field, (1/2 pi hbar) int_0^w dw' w' (w - w') ||dC_out||_F^2
    vac = VacuumState()
    for model in (SinglePoleMirror(1.0), PerfectMirror()):
        for w in (0.5, 2.0, 7.0):
            xi = susceptibility(model, vac, w).imag
            assert abs(oracles.xi_from_squeezing(model, vac, w) - xi) <= 1e-13 * xi


def test_radiation_reaction_force_in_the_time_domain():
    # q(t) = exp(-t^2/2): the perfect mirror feels hbar q'''(t) / 6 pi, and the
    # single pole approaches it as Omega grows, the leading correction being
    # -hbar q''''(t) / 12 pi Omega; what remains falls as Omega^-2
    grid = FrequencyGrid.symmetric(12.0, 1201)
    traj = TabulatedSpectrum(grid, np.sqrt(2.0 * np.pi) * np.exp(-grid.omega**2 / 2.0))
    vac = VacuumState()
    hbar = vac.hbar

    def force(model):
        # 161 times on [-4, 4], in steps of 2 pi / (6284 dw) = 0.049993
        return inverse_fourier_to_time(motional_force_spectrum(model, vac, traj, grid), 6284, 161)

    t, perfect = force(PerfectMirror())
    assert np.isclose(t[-1], 4.0, rtol=1e-3)
    q = np.exp(-t**2 / 2.0)
    q3, q4 = (3.0 * t - t**3) * q, (t**4 - 6.0 * t**2 + 3.0) * q

    limit = hbar * q3 / (6.0 * np.pi)
    peak = np.max(np.abs(perfect))
    assert np.max(np.abs(perfect.real - limit)) <= 1e-14 * peak
    assert np.max(np.abs(perfect.imag)) <= 1e-14 * peak
    plain, corrected = [], []
    for omega_c in (10.0, 100.0, 1000.0):
        f = force(SinglePoleMirror(omega_c))[1]
        plain.append(np.max(np.abs(f - limit)) / peak)
        corrected.append(np.max(np.abs(f - limit + hbar * q4 / (12.0 * np.pi * omega_c))) / peak)
    plain, corrected = np.array(plain), np.array(corrected)
    assert np.all(corrected < 0.2 * plain)
    assert np.allclose(plain[:-1] / plain[1:], 10.0, rtol=0.05)
    assert np.allclose(corrected[:-1] / corrected[1:], 100.0, rtol=0.05)


def test_cli_runs_are_bit_identical(tmp_path):
    out = tmp_path / "chi.csv"
    argv = ["susceptibility", "--grid", "-2:2:21", "--out", str(out)]
    assert main(argv) == 0
    first = out.read_bytes()
    assert main(argv) == 0
    assert out.read_bytes() == first
    jout = tmp_path / "squeeze.json"
    jargv = ["squeeze", "--osc-freq", "0.5", "--out", str(jout)]
    assert main(jargv) == 0
    jfirst = jout.read_bytes()
    assert main(jargv) == 0
    assert jout.read_bytes() == jfirst
