import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.linalg

from hybridbec import ConfigError, PhysicalParams, bdg, build_grid, gpe
from hybridbec.bdg import ATOM, MOLECULE, direct_grid_spectrum
from hybridbec.gpe import CondensateState, _one_body, gaussian_ansatz, solve_coupled_gpe
from hybridbec.grid import (
    RadialGrid, RadialOperator, band_eigenvalues, harmonic_potential, solve_banded_shifted,
)

import spectrum_reference as reference


def test_grid_layout():
    g = build_grid(r_max=8.0, n_points=400)
    assert g.h == pytest.approx(0.02)
    assert g.r[0] == pytest.approx(g.h)
    assert g.r[-1] == pytest.approx(8.0)
    assert np.allclose(np.diff(g.r), g.h)
    assert np.allclose(g.w, 4.0 * np.pi * g.r**2 * g.h)
    assert np.all(g.w > 0.0)
    g2 = build_grid(r_max=10.0, n_points=100)
    assert g2.h == pytest.approx(0.1)
    assert g2.r[0] == pytest.approx(0.1)
    assert g2.r[-1] == pytest.approx(10.0)


def test_grid_validation():
    with pytest.raises(ConfigError):
        build_grid(r_max=-1.0)
    # an infinite box made h infinite and the solve exit 3 with warnings;
    # a box whose volume weights 4*pi*r^2*h underflow to 0 or overflow
    # raised ZeroDivisionError or OverflowError in the first operator
    for r_max in (np.inf, np.nan, "8.0", True, 1e-300, 1e300):
        with pytest.raises(ConfigError, match="r_max"):
            build_grid(r_max=r_max)
    with pytest.raises(ConfigError):
        build_grid(n_points=15)
    with pytest.raises(ConfigError):
        build_grid(n_points=400.5)
    # an integral float is a valid size and is stored as an int
    assert build_grid(n_points=400.0).n_points == 400


def test_quadrature_gaussian_and_moments():
    # int exp(-r^2) d^3r = pi^(3/2); the integrand dies before r_max so the
    # midpoint-type rule on r^2*f is spectrally accurate here
    g = build_grid()
    assert g.integrate(np.exp(-g.r**2)) == pytest.approx(np.pi**1.5, rel=1e-12)
    # <r^2> of the unit gaussian = 3/2
    phi = (1.0 / np.pi) ** 0.75 * np.exp(-g.r**2 / 2.0)
    assert g.norm(phi) == pytest.approx(1.0, rel=1e-12)
    assert g.rms_width(phi) == pytest.approx(np.sqrt(1.5), rel=1e-10)


def test_quadrature_second_order_in_h():
    # polynomial-with-cutoff integrand: error should drop ~4x per h halving
    exact = np.pi**1.5  # reuse gaussian but on a short box so truncation dominates? no:
    # use f = exp(-r); int = 8*pi. Truncation at r_max=8 ~ exp(-8), below 1e-3 of value.
    errs = []
    for n in (100, 200, 400):
        g = build_grid(r_max=30.0, n_points=n)
        val = g.integrate(np.exp(-g.r))
        errs.append(abs(val - 8.0 * np.pi))
    assert errs[0] / errs[1] > 3.0
    assert errs[1] / errs[2] > 3.0


def test_oscillator_spectrum_l0_and_l1():
    # s-wave levels (2j + 3/2), p-wave (2j + 5/2) in trap units
    g = build_grid(r_max=10.0, n_points=600)
    op = RadialOperator.build(g, mass=1.0, potential=harmonic_potential(g, 1.0, 1.0))
    vals, vecs = op.eigensolve(3)
    # O(h^2) discretization error grows with level; 1e-3 covers the third
    assert vals == pytest.approx([1.5, 3.5, 5.5], abs=1e-3)
    op1 = RadialOperator.build(g, mass=1.0, potential=harmonic_potential(g, 1.0, 1.0), l=1)
    v1, _ = op1.eigensolve(2)
    assert v1 == pytest.approx([2.5, 4.5], abs=5e-4)
    # sign convention: chi ~ r near origin, so leading entry positive
    assert vecs[0, 0] > 0.0


def test_oscillator_molecule_mass_scaling():
    # mass 2M, frequency omega: levels hbar*omega*(2j+3/2) independent of mass
    g = build_grid(r_max=10.0, n_points=600)
    op = RadialOperator.build(g, mass=2.0, potential=harmonic_potential(g, 2.0, 1.4))
    vals, _ = op.eigensolve(2)
    assert vals == pytest.approx([1.4 * 1.5, 1.4 * 3.5], abs=2e-3)


def oscillator(species, n, l=0):
    p = PhysicalParams(omega_a=1.0, omega_m=1.4)
    g = build_grid(r_max=8.0, n_points=n)
    mass, omega, _ = _one_body(species, p)
    return RadialOperator.build(g, mass, harmonic_potential(g, mass, omega), l=l)


def test_operator_and_trap_past_the_floats_raise_config_error():
    # the kinetic scale hbar^2/(2 m h^2) and the trap term m w^2 r^2 / 2
    # raised ZeroDivisionError or OverflowError, or warned and gave inf
    g = build_grid(r_max=8.0, n_points=100)
    for mass, hbar in ((1e-310, 1.0), (1.0, 1e200)):
        with pytest.raises(ConfigError, match="mass"):
            RadialOperator.build(g, mass, np.zeros(100), hbar=hbar)
    for mass, omega in ((1.0, 1e200), (1e300, 1e10), (1.0, 1e154)):
        with pytest.raises(ConfigError, match="omega_a or omega_m"):
            harmonic_potential(g, mass, omega)
    for key, value in (("omega_a", 1e200), ("omega_m", 1e160)):
        p = PhysicalParams(**{"omega_a": 1.0, "omega_m": 1.4, "n_a": 50.0, "n_m": 10.0,
                              key: value})
        with pytest.raises(ConfigError, match=key):
            solve_coupled_gpe(p, g)


def same_arrays(a, b):
    return (a.dtype, a.shape, a.strides, a.tobytes()) == (b.dtype, b.shape, b.strides, b.tobytes())


@pytest.mark.parametrize("n", [16, 200, 400])
@pytest.mark.parametrize("l", [0, 1, 3])
@pytest.mark.parametrize("species", [ATOM, MOLECULE])
def test_eigensolve_bit_identical_to_lapack_wrappers(species, l, n):
    # the ctypes stebz/stein calls must give the f2py wrappers' pairs, and
    # those of eigh_tridiagonal, to the bit and in the same memory layout
    op = oscillator(species, n, l)
    for n_modes in (1, 8, 32, n):
        got = op.eigensolve(n_modes)
        assert len(got[0]) == min(n_modes, n)
        for ref in (reference.lapack_eigensolve(op.diag, op.offdiag, n_modes),
                    reference.eigensolve(op.diag, op.offdiag, n_modes)):
            assert same_arrays(got[0], ref[0]) and same_arrays(got[1], ref[1])


def test_eigensolve_sorts_split_blocks_like_the_lapack_wrappers():
    # a diagonal past 1/eps times the off-diagonal splits the matrix into
    # 1x1 blocks, and stebz returns the levels block by block, unsorted
    rng = np.random.default_rng(5)
    op = RadialOperator(diag=rng.uniform(1e17, 1e18, 40), offdiag=-1.0)
    vals, vecs = op.eigensolve(8)
    assert np.all(np.diff(vals) > 0.0) and np.all(vecs[0] >= 0.0)
    for ref in (reference.lapack_eigensolve(op.diag, op.offdiag, 8),
                reference.eigensolve(op.diag, op.offdiag, 8)):
        assert same_arrays(vals, ref[0]) and same_arrays(vecs, ref[1])


def test_eigensolve_rejects_non_finite_operator_and_no_modes():
    op = oscillator(ATOM, 200)
    bad = op.diag.copy()
    bad[7] = np.nan
    for broken in (RadialOperator(bad, op.offdiag), RadialOperator(op.diag, np.inf)):
        with pytest.raises(ValueError, match="infs or NaNs"):
            broken.eigensolve(4)
    for n_modes in (0, -3):
        with pytest.raises(ValueError, match="n_modes must be >= 1"):
            op.eigensolve(n_modes)


def test_eigensolve_on_two_threads_gives_serial_bytes():
    ops = [oscillator(ATOM, 400), oscillator(MOLECULE, 400, l=1)]
    serial = [op.eigensolve(32) for op in ops]
    start = threading.Barrier(2)

    def solve(op):
        start.wait()
        return [op.eigensolve(32) for _ in range(4)]

    with ThreadPoolExecutor(max_workers=2) as pool:
        runs = list(pool.map(solve, ops))
    for (vals, vecs), results in zip(serial, runs):
        for got_vals, got_vecs in results:
            assert same_arrays(got_vals, vals) and same_arrays(got_vecs, vecs)


#: the decoupled, item-2 and attractive sets of tests/test_bdg.py; the
#: attractive atoms' l = 0 channel takes the B order
BAND_SETS = {
    "decoupled": PhysicalParams(omega_a=1.0, omega_m=1.4, lambda_a=0.1, n_a=100.0),
    "item2": PhysicalParams(omega_a=1.0, omega_m=1.4, lambda_a=0.1, lambda_m=0.05,
                            lambda_am=0.1, alpha=0.5, n_a=200.0, n_m=100.0),
    "attractive": PhysicalParams(omega_a=1.0, omega_m=1.4, lambda_a=-0.02, n_a=100.0),
}


def symmetric_bands(p, state, g, monkeypatch):
    # every band the grid oracle hands band_eigenvalues over l = 0..1 (K
    # of the A or B order per species), then gpe's interleaved A and B
    # blocks of the second variation
    bands = []

    def capturing(band, *args):
        bands.append(band.copy())
        return band_eigenvalues(band, *args)

    with monkeypatch.context() as mp:
        mp.setattr(bdg, "band_eigenvalues", capturing)
        for l in (0, 1):
            direct_grid_spectrum(state, p, g, l=l)
    ops = [gpe._operator(species, p, g) for species in (ATOM, MOLECULE)]
    fields, mu = (state.phi_a, state.phi_m), (state.mu_a, state.mu_m)
    return bands + [gpe._band(p, ops, fields, mu, [0, 1], block) for block in "AB"]


def assert_band_eigenvalues_match_wrapper(band):
    # by index as the oracle asks, by value as negative_phase_modes asks
    # (floor below every eigenvalue), each also with the other tolerance
    kept = band.copy()
    floor = -1.0 - np.abs(band).max(axis=1) @ (1.0, 2.0, 2.0)
    lowest = band_eigenvalues(band, True, 1, 10, bdg._ABSTOL)
    for by_index, low, high, abstol in (
            (True, 1, 10, bdg._ABSTOL), (True, 3, 20, 0.0), (False, floor, -1e-6, 0.0),
            (False, floor, (lowest[4] + lowest[5]) / 2.0, bdg._ABSTOL)):
        got = band_eigenvalues(band, by_index, low, high, abstol)
        args = (0.0, 1.0, low, high, 2) if by_index else (low, high, 1, 1, 1)
        w, _, m, _, info = scipy.linalg.lapack.dsbevx(
            band, *args[:4], compute_v=0, mmax=1, range=args[4], lower=1,
            overwrite_ab=0, abstol=abstol)
        assert info == 0 and got.dtype == np.float64
        assert got.tobytes() == w[:m].tobytes(), (by_index, low, high, abstol)
    assert len(got) == 5 and kept.tobytes() == band.tobytes()


@pytest.mark.parametrize("n", [200, 400, 800, 1600])
@pytest.mark.parametrize("name", list(BAND_SETS))
def test_band_eigenvalues_bit_identical_to_lapack_wrapper(name, n, monkeypatch):
    # the ctypes sbevx call gives the f2py wrapper's eigenvalues and count
    # to the bit on every band the oracle and the certificate build
    p, g = BAND_SETS[name], build_grid(r_max=8.0, n_points=n)
    bands = symmetric_bands(p, solve_coupled_gpe(p, g), g, monkeypatch)
    assert len(bands) == (4 if name == "item2" else 2) + 2
    for band in bands:
        assert_band_eigenvalues_match_wrapper(band)


def test_band_eigenvalues_count_the_flipped_item2_saddle(monkeypatch):
    # the stationary state the item-2 descent reaches from a seed with
    # phi_m of the wrong sign for alpha: B has two negative eigenvalues
    p, g = BAND_SETS["item2"], build_grid(r_max=8.0, n_points=200)
    seed = gaussian_ansatz(p, g)
    saddle = solve_coupled_gpe(p, g, init=CondensateState(
        grid=g, phi_a=seed.phi_a, phi_m=-seed.phi_m, mu_a=seed.mu_a, mu_m=seed.mu_m))
    assert gpe.negative_phase_modes(saddle, p, g) == 2
    *_, phase = symmetric_bands(p, saddle, g, monkeypatch)
    floor = -1.0 - np.abs(phase).max(axis=1) @ (1.0, 2.0, 2.0)
    assert len(band_eigenvalues(phase, False, floor, -1e-6)) == 2
    assert_band_eigenvalues_match_wrapper(phase)


def test_band_eigenvalues_on_two_threads_give_serial_bytes():
    p, g = BAND_SETS["item2"], build_grid(r_max=8.0, n_points=800)
    s = solve_coupled_gpe(p, g)
    ops = [gpe._operator(species, p, g) for species in (ATOM, MOLECULE)]
    bands = [gpe._band(p, ops, (s.phi_a, s.phi_m), (s.mu_a, s.mu_m), [0, 1], block)
             for block in "AB"]
    serial = [band_eigenvalues(band, True, 1, 20).tobytes() for band in bands]
    start = threading.Barrier(2)

    def solve(band):
        start.wait()
        return [band_eigenvalues(band, True, 1, 20).tobytes() for _ in range(4)]

    with ThreadPoolExecutor(max_workers=2) as pool:
        runs = list(pool.map(solve, bands))
    assert runs == [[want] * 4 for want in serial]


def test_band_eigenvalues_raise_on_a_lapack_error():
    band = np.vstack([np.arange(1.0, 11.0), np.ones(10)])
    with pytest.raises(scipy.linalg.LinAlgError, match="LAPACK info -13"):
        band_eigenvalues(band, True, 1, 11)  # iu, the 13th argument, past n


def test_apply_matches_dense_matvec():
    rng = np.random.default_rng(3)
    g = build_grid(r_max=6.0, n_points=50)
    op = RadialOperator.build(g, mass=1.0, potential=rng.uniform(0, 2, g.n_points))
    dense = np.diag(op.diag) + op.offdiag * (np.eye(g.n_points, k=1) + np.eye(g.n_points, k=-1))
    for _ in range(5):
        chi = rng.standard_normal(g.n_points)
        assert np.allclose(op.apply(chi), dense @ chi, atol=1e-12)


def test_solve_banded_shifted_inverts_apply():
    rng = np.random.default_rng(11)
    g = build_grid(r_max=6.0, n_points=80)
    op = RadialOperator.build(g, mass=1.0, potential=harmonic_potential(g, 1.0, 1.0))
    rhs = rng.standard_normal(g.n_points)
    for shift in (0.0, 0.7, 5.0):
        chi = solve_banded_shifted(op, shift, rhs)
        assert np.allclose(op.apply(chi) + shift * chi, rhs, atol=1e-10)


@pytest.mark.parametrize("n", [16, 400, 1600])
def test_solve_banded_shifted_bit_identical_to_solve_banded(n):
    # the direct gtsv call must reproduce solve_banded((1, 1)) bit for bit
    rng = np.random.default_rng(n)
    op = RadialOperator(diag=rng.uniform(0.5, 4.0, n), offdiag=float(rng.uniform(-1.0, -0.1)))
    rhs = rng.standard_normal(n)
    kept = rhs.copy()
    for shift in (0.0, 0.7, 250.0):
        ab = np.zeros((3, n))
        ab[0, 1:] = op.offdiag
        ab[1] = op.diag + shift
        ab[2, :-1] = op.offdiag
        ref = scipy.linalg.solve_banded((1, 1), ab, rhs)
        assert np.array_equal(solve_banded_shifted(op, shift, rhs), ref)
        assert np.array_equal(rhs, kept)


def test_solve_banded_shifted_singular_raises():
    n = 32
    with pytest.raises(scipy.linalg.LinAlgError):
        solve_banded_shifted(RadialOperator(diag=np.zeros(n), offdiag=0.0), 0.0, np.ones(n))


def test_frozen_grid_rejects_mutation():
    g = build_grid()
    with pytest.raises(Exception):
        g.r_max = 10.0
