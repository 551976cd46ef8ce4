import contextlib
import dataclasses
import gc
import logging
import math
import struct
import weakref

import numpy as np
import pytest
import scipy.linalg

from hybridbec import ConfigError, DomainError, PhysicalParams, bdg, build_grid
from hybridbec.bdg import (
    ATOM,
    MOLECULE,
    Mode,
    basis_levels,
    block_2x2_spectrum,
    direct_grid_spectrum,
    oscillator_basis,
    paper_literal_spectrum,
)
from hybridbec.gpe import CondensateState, SolverOptions, gaussian_ansatz, solve_coupled_gpe

import spectrum_reference as reference


def plus_modes(modeset):
    return [m for m in modeset.modes if m.branch == "+"]


def same_bits(a, b):
    # arrays by dtype, shape and bytes, floats by their 8 bytes (so -0.0
    # differs from 0.0), everything else by type and value
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    if isinstance(a, float):
        return struct.pack("<d", a) == struct.pack("<d", b)
    return a == b


def assert_same_modes(got, ref):
    assert (got.species, got.method, got.skipped) == (ref.species, ref.method, ref.skipped)
    assert len(got.modes) == len(ref.modes)
    for k, (m, r) in enumerate(zip(got.modes, ref.modes)):
        for f in dataclasses.fields(Mode):
            a, b = getattr(m, f.name), getattr(r, f.name)
            assert same_bits(a, b), (got.species, got.method, k, f.name, a, b)


def test_basis_levels_paper_convention():
    p = PhysicalParams(omega_a=1.0, omega_m=1.4)
    atom = basis_levels(ATOM, p, 4)
    assert atom == pytest.approx([0.5, 1.5, 2.5, 3.5], abs=1e-14)
    mol = basis_levels(MOLECULE, p, 3)
    assert mol[2] == pytest.approx(3.5, abs=1e-14)  # 1.4 * 2.5
    assert len(basis_levels(ATOM, p, 7)) == 7


def test_basis_levels_oscillator_convention():
    p = PhysicalParams(omega_a=1.0, omega_m=1.4)
    atom = basis_levels(ATOM, p, 3, convention="oscillator3d")
    assert atom == pytest.approx([1.5, 3.5, 5.5], abs=1e-14)
    with pytest.raises(ConfigError):
        basis_levels(ATOM, p, 3, convention="bogus")
    with pytest.raises(ConfigError):
        basis_levels(ATOM, p, 0)
    with pytest.raises(ConfigError):
        basis_levels("neutron", p, 3)


def test_oscillator_basis_orthonormal():
    p = PhysicalParams(omega_a=1.0, omega_m=1.4)
    g = build_grid(r_max=8.0, n_points=300)
    levels, chi = oscillator_basis(MOLECULE, p, g, 5)
    # O(h^2) eigenvalue error grows with level: relative tolerance
    assert levels == pytest.approx(1.4 * (2.0 * np.arange(5) + 1.5), rel=2e-3)
    gram = chi.T @ chi
    assert np.allclose(gram, np.eye(5), atol=1e-10)


def test_oscillator_basis_reused_read_only():
    p = PhysicalParams(omega_a=1.0, omega_m=1.4)
    g = build_grid(r_max=8.0, n_points=200)
    levels, chi = oscillator_basis(ATOM, p, g, 6)
    again = oscillator_basis(ATOM, p, g, 6)
    assert again[0] is levels and again[1] is chi
    for arr in (levels, chi):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_oscillator_basis_one_per_species_trap_size_and_grid():
    p = PhysicalParams(omega_a=1.0, omega_m=1.4)
    g = build_grid(r_max=8.0, n_points=200)
    _, chi = oscillator_basis(ATOM, p, g, 6)
    others = [
        oscillator_basis(MOLECULE, p, g, 6)[1],
        oscillator_basis(ATOM, PhysicalParams(omega_a=1.2, omega_m=1.4), g, 6)[1],
        oscillator_basis(ATOM, p, g, 5)[1],
        oscillator_basis(ATOM, p, build_grid(r_max=8.0, n_points=200), 6)[1],
    ]
    assert all(other is not chi for other in others)
    assert len({id(other) for other in others}) == len(others)
    assert others[3].tobytes() == chi.tobytes()  # same mesh, rebuilt basis
    assert not np.array_equal(others[0], chi)
    assert not np.array_equal(others[1], chi)
    assert others[2].shape == (200, 5)


def test_oscillator_basis_released_with_its_grid():
    p = PhysicalParams(omega_a=1.0, omega_m=1.4)
    g = build_grid(r_max=8.0, n_points=200)
    gc.collect()
    kept = len(bdg._BASES)
    _, chi = oscillator_basis(ATOM, p, g, 6)
    assert g in bdg._BASES and len(bdg._BASES) == kept + 1
    chi_ref, grid_ref = weakref.ref(chi), weakref.ref(g)
    del g, chi
    gc.collect()
    assert grid_ref() is None and chi_ref() is None
    assert len(bdg._BASES) == kept


def test_basis_spectra_on_reused_grid_match_fresh_grid():
    # block first so every later call on g projects onto stored bases
    p = PhysicalParams(omega_a=1.0, omega_m=1.4, lambda_a=0.1, lambda_m=0.05,
                       lambda_am=0.1, alpha=0.5, n_a=200.0, n_m=100.0)
    g = build_grid(r_max=8.0, n_points=200)
    s = gaussian_ansatz(p, g)

    def digest(modesets):
        return [(m.j, m.branch, np.float64(m.energy).tobytes(),
                 None if m.u is None else m.u.tobytes(),
                 None if m.v is None else m.v.tobytes())
                for ms in modesets for m in ms.modes]

    calls = [(block_2x2_spectrum, {"j_max": 12}),
             (paper_literal_spectrum, {"j_max": 12}),
             (paper_literal_spectrum, {"j_max": 12, "strict_literal": True}),
             (paper_literal_spectrum, {"j_max": 12, "averaging": "volume"}),
             (block_2x2_spectrum, {"j_max": 12, "convention": "oscillator3d"})]
    for fn, kw in calls:
        reused = digest(fn(s, p, g, **kw))
        fresh = digest(fn(s, p, build_grid(r_max=8.0, n_points=200), **kw))
        assert reused == fresh
    assert len(bdg._BASES[g]) == 2  # one basis per species for all five calls


def test_paper_literal_zero_coupling_sign_structure():
    # closed form gives E_j^+ = -(level - mu); with mu = 3/2 the ladder
    # starts at +1 and walks down through zero
    g = build_grid(r_max=8.0, n_points=200)
    p = PhysicalParams(omega_a=1.0, omega_m=1.4, n_a=1e4, n_m=1e4)
    s = gaussian_ansatz(p, g)  # mu_a = 1.5 analytic
    atom, mol = paper_literal_spectrum(s, p, g, j_max=4)
    by_j = {m.j: m.energy for m in plus_modes(atom)}
    assert by_j[0] == pytest.approx(1.0, abs=1e-12)
    assert by_j[1] == pytest.approx(0.0, abs=1e-12)
    assert by_j[2] == pytest.approx(-1.0, abs=1e-12)
    # minus branch mirrors
    minus = {m.j: m.energy for m in atom.modes if m.branch == "-"}
    assert minus[0] == pytest.approx(-1.0, abs=1e-12)
    # zero off-diagonal makes the closed-form coefficient break
    # (f = 0 <= 1): flagged, not raised
    assert all(m.unstable for m in atom.modes)


def test_paper_literal_molecule_detuning():
    # lambda_m = lambda = 0: e_j^+ = -(level + eps - mu_m) with the
    # ansatz mu_m = 1.5*omega_m + eps
    g = build_grid(r_max=8.0, n_points=200)
    p = PhysicalParams(omega_a=1.0, omega_m=1.4, epsilon=0.3, n_a=1e4, n_m=1e4)
    s = gaussian_ansatz(p, g)
    _, mol = paper_literal_spectrum(s, p, g, j_max=3)
    by_j = {m.j: m.energy for m in plus_modes(mol)}
    for j in range(3):
        assert by_j[j] == pytest.approx(2.1 - 1.4 * (j + 0.5), abs=1e-10)


def test_paper_literal_strict_flag_drops_cross_term():
    g = build_grid(r_max=8.0, n_points=200)
    p = PhysicalParams(omega_a=1.0, omega_m=1.4, lambda_a=1e-3, lambda_am=1e-3,
                       n_a=1e4, n_m=1e4)
    s = solve_coupled_gpe(p, g)
    _, mol_default = paper_literal_spectrum(s, p, g, j_max=3)
    _, mol_strict = paper_literal_spectrum(s, p, g, j_max=3, strict_literal=True)
    for md, ms in zip(plus_modes(mol_default), plus_modes(mol_strict)):
        # dropping +lambda*phi_a^2 from the bracket raises e^+ = Delta - H
        assert ms.energy > md.energy


def test_paper_literal_averaging_choices_differ():
    g = build_grid(r_max=8.0, n_points=200)
    p = PhysicalParams(omega_a=1.0, omega_m=1.4, lambda_a=2e-3, n_a=1e4, n_m=1e4)
    s = solve_coupled_gpe(p, g)
    a_dens, _ = paper_literal_spectrum(s, p, g, j_max=2, averaging="density")
    a_vol, _ = paper_literal_spectrum(s, p, g, j_max=2, averaging="volume")
    e_dens = [m.energy for m in plus_modes(a_dens)]
    e_vol = [m.energy for m in plus_modes(a_vol)]
    assert e_dens != e_vol
    with pytest.raises(ConfigError):
        paper_literal_spectrum(s, p, g, j_max=2, averaging="median")


def test_paper_literal_species_without_condensate_averages_by_volume():
    # n_m = 0: the molecule density weights sum to zero, so "density"
    # falls back to grid.w, the "volume" weights, to the bit (lambda_am
    # makes the molecule bracket vary with r, so the weights matter); the
    # atoms have a condensate and average differently
    g = build_grid(r_max=8.0, n_points=200)
    p = PhysicalParams(omega_a=1.0, omega_m=1.4, lambda_a=0.06, lambda_am=0.1, n_a=100.0)
    s = solve_coupled_gpe(p, g, SolverOptions(dt=5e-3))
    assert not s.phi_m.any()
    a_dens, m_dens = paper_literal_spectrum(s, p, g, averaging="density")
    a_vol, m_vol = paper_literal_spectrum(s, p, g, averaging="volume")
    assert_same_modes(m_dens, m_vol)
    assert [m.energy for m in a_dens.modes] != [m.energy for m in a_vol.modes]


def test_block_zero_coupling_matches_paper_literal_exactly():
    g = build_grid(r_max=8.0, n_points=200)
    p = PhysicalParams(omega_a=1.0, omega_m=1.4, n_a=1e4, n_m=1e4)
    s = gaussian_ansatz(p, g)
    pa, pm = paper_literal_spectrum(s, p, g, j_max=6)
    ba, bm = block_2x2_spectrum(s, p, g, j_max=6)
    for lit, blk in ((pa, ba), (pm, bm)):
        lit_abs = sorted(abs(m.energy) for m in plus_modes(lit))
        blk_abs = sorted(abs(m.energy) for m in plus_modes(blk))
        assert lit_abs == blk_abs  # exact float equality, no tolerance


def test_block_delta_zero_gives_abs_h():
    g = build_grid(r_max=8.0, n_points=200)
    p = PhysicalParams(omega_a=1.0, omega_m=1.4, n_a=1e4, n_m=1e4)
    s = gaussian_ansatz(p, g)
    ba, _ = block_2x2_spectrum(s, p, g, j_max=5)
    for m in plus_modes(ba):
        h = (m.j + 0.5) - s.mu_a
        assert abs(m.energy) == pytest.approx(abs(h), abs=1e-12)


def test_block_goldstone_boundary():
    # constant phi_a with mu tuned so h_0 = Delta_0: E collapses to ~0
    g = build_grid(r_max=6.0, n_points=100)
    lam, c = 0.01, 3.0
    p = PhysicalParams(omega_a=1.0, omega_m=1.0, lambda_a=lam)
    st = CondensateState(
        grid=g, phi_a=np.full(g.n_points, c), phi_m=np.zeros(g.n_points),
        mu_a=1.5 + lam * c * c, mu_m=1.5,
    )
    ba, _ = block_2x2_spectrum(st, p, g, j_max=1, convention="oscillator3d")
    m0 = plus_modes(ba)[0]
    assert abs(m0.energy) < 1e-6 and abs(m0.energy_imag) < 1e-3


def test_block_coefficient_identity_and_norm():
    g = build_grid(r_max=8.0, n_points=250)
    p = PhysicalParams(omega_a=1.0, omega_m=1.4, lambda_a=5e-4, lambda_m=2e-4,
                       lambda_am=3e-4, alpha=0.02, n_a=1e4, n_m=1e4)
    s = solve_coupled_gpe(p, g)
    ba, bm = block_2x2_spectrum(s, p, g, j_max=6, convention="oscillator3d")
    checked = 0
    for ms in (ba, bm):
        for m in plus_modes(ms):
            if m.u is None or m.unstable:
                continue
            assert m.coeff_u**2 - m.coeff_v**2 == pytest.approx(1.0, abs=1e-12)
            assert g.integrate(m.u**2 - m.v**2) == pytest.approx(1.0, abs=1e-6)
            checked += 1
    assert checked >= 8


def test_direct_grid_oscillator_levels():
    g = build_grid(r_max=8.0, n_points=400)
    p = PhysicalParams(omega_a=1.0, omega_m=1.4, n_a=1e4, n_m=1e4)
    s = gaussian_ansatz(p, g)
    da, dm = direct_grid_spectrum(s, p, g, l=0, n_modes=3)
    assert [m.energy for m in da.modes] == pytest.approx([0.0, 2.0, 4.0], abs=1e-3)
    # molecule levels (2n+3/2)*1.4 - mu_m with mu_m = 2.1; larger h^2
    # error than the atom channel (heavier mass, stiffer trap)
    assert [m.energy for m in dm.modes] == pytest.approx([0.0, 2.8, 5.6], abs=5e-3)
    da1, _ = direct_grid_spectrum(s, p, g, l=1, n_modes=3)
    assert [m.energy for m in da1.modes] == pytest.approx([1.0, 3.0, 5.0], abs=1e-3)
    assert all(m.degeneracy == 3 for m in da1.modes)


def test_direct_grid_symmetric_under_energy_reversal():
    g = build_grid(r_max=6.0, n_points=120)
    p = PhysicalParams(omega_a=1.0, omega_m=1.4, lambda_a=2e-3, lambda_am=1e-3,
                       lambda_m=1e-3, alpha=0.05, n_a=1e3, n_m=1e3)
    s = solve_coupled_gpe(p, g)
    for species in (ATOM, MOLECULE):
        m = reference.bdg_matrix(s, p, g, species, l=0)
        ev = np.sort_complex(np.linalg.eigvals(m))
        assert np.max(np.abs(ev + ev[::-1])) < 1e-8


def test_direct_grid_refinement_invariance():
    # r_max = 5 keeps the third mode's turning point well inside the box
    # so the remaining error is pure h^2
    p = PhysicalParams(omega_a=1.0, omega_m=1.0, lambda_a=2e-3, n_a=1e4, n_m=0.0)
    energies = {}
    for n in (400, 800):
        g = build_grid(r_max=5.0, n_points=n)
        s = solve_coupled_gpe(p, g)
        da, _ = direct_grid_spectrum(s, p, g, l=0, n_modes=3)
        energies[n] = np.array([m.energy for m in da.modes])
    rel = np.abs(energies[400] - energies[800]) / np.abs(energies[800])
    assert np.all(rel < 1e-4)


def test_sector_decoupling_bitwise():
    # alpha = lambda = 0: molecule spectrum cannot see phi_a
    g = build_grid(r_max=8.0, n_points=150)
    p = PhysicalParams(omega_a=1.0, omega_m=1.4, lambda_a=1e-3, lambda_m=1e-3,
                       n_a=1e4, n_m=1e4)
    s1 = solve_coupled_gpe(p, g)
    s2 = CondensateState(grid=g, phi_a=s1.phi_a * 0.0, phi_m=s1.phi_m,
                         mu_a=s1.mu_a, mu_m=s1.mu_m)
    for fn, kw in ((block_2x2_spectrum, {"j_max": 4}),
                   (paper_literal_spectrum, {"j_max": 4}),
                   (direct_grid_spectrum, {"l": 0, "n_modes": 3})):
        _, mol1 = fn(s1, p, g, **kw)
        _, mol2 = fn(s2, p, g, **kw)
        e1 = [m.energy for m in mol1.modes]
        e2 = [m.energy for m in mol2.modes]
        assert e1 == e2


def test_weak_coupling_block_matches_direct():
    # nearest-match pairing against the oracle; the near-zero block j=0
    # remnant of the dropped Goldstone pair has no direct counterpart
    g = build_grid(r_max=8.0, n_points=400)
    p = PhysicalParams(omega_a=1.0, omega_m=1.4, lambda_a=5e-4, n_a=1e4, n_m=0.0)
    s = solve_coupled_gpe(p, g)
    ba, _ = block_2x2_spectrum(s, p, g, j_max=16, convention="oscillator3d")
    da, _ = direct_grid_spectrum(s, p, g, l=0, n_modes=4)
    block_e = np.array([m.energy for m in plus_modes(ba)])
    for target in [m.energy for m in da.modes if m.energy > 0.1][:2]:
        nearest = block_e[np.argmin(np.abs(block_e - target))]
        assert abs(nearest - target) / target < 0.05


def test_thomas_fermi_lowest_mode_phonon_scale():
    # matched uniform gas: sound speed sqrt(mu), p_min ~ pi/R_TF,
    # estimate E ~ pi/sqrt(2) * omega; trapped value should be close
    g = build_grid()
    p = PhysicalParams(omega_a=1.0, omega_m=1.0, lambda_a=1e-3, n_a=1e6, n_m=0.0)
    s = solve_coupled_gpe(p, g)
    da, _ = direct_grid_spectrum(s, p, g, l=0, n_modes=2)
    lowest = [m.energy for m in da.modes if m.energy > 0.1][0]
    estimate = np.pi / np.sqrt(2.0)
    assert abs(lowest - estimate) / estimate < 0.25


def test_strong_coupling_regression():
    # omega_m=1.4, alpha=5*lambda_a, lambda_a=0.1, N=1e6 each on the
    # r_max=12, n=600 grid; frozen anchors from this implementation
    g = build_grid(r_max=12.0, n_points=600)
    p = PhysicalParams(omega_a=1.0, omega_m=1.4, lambda_a=0.1, alpha=0.5,
                       lambda_am=0.1, lambda_m=0.05, n_a=1e6, n_m=1e6)
    s = solve_coupled_gpe(p, g, SolverOptions(max_iters=60000))
    assert s.mu_a == pytest.approx(60.3668229289, rel=1e-8)
    pa, pm = paper_literal_spectrum(s, p, g, j_max=4)
    ba, _ = block_2x2_spectrum(s, p, g, j_max=4)
    da, dm = direct_grid_spectrum(s, p, g, l=0, n_modes=2)
    pa0 = {m.j: m for m in plus_modes(pa)}[0]
    pm0 = {m.j: m for m in plus_modes(pm)}[0]
    ba0 = {m.j: m for m in plus_modes(ba)}[0]
    assert pa0.energy == pytest.approx(23.91557746, rel=1e-6)
    assert pm0.energy == pytest.approx(33.97185827, rel=1e-6)
    assert ba0.energy == pytest.approx(125.66800680, rel=1e-6)
    assert da.modes[0].energy == pytest.approx(3.39883775, rel=1e-6)
    assert dm.modes[0].energy == pytest.approx(2.85344413, rel=1e-6)
    # the true spectrum is stable here even though the truncated-basis
    # molecule blocks flag h^2 < Delta^2
    assert all(not m.unstable for m in da.modes + dm.modes)


def test_direct_grid_determinism():
    g = build_grid(r_max=6.0, n_points=100)
    p = PhysicalParams(omega_a=1.0, omega_m=1.4, lambda_a=1e-3, lambda_am=5e-4,
                       alpha=0.02, n_a=1e3, n_m=1e3)
    s = solve_coupled_gpe(p, g)
    da1, dm1 = direct_grid_spectrum(s, p, g, l=0, n_modes=4)
    da2, dm2 = direct_grid_spectrum(s, p, g, l=0, n_modes=4)
    for a, b in zip(da1.modes + dm1.modes, da2.modes + dm2.modes):
        assert a.energy == b.energy
        assert np.array_equal(a.u, b.u) and np.array_equal(a.v, b.v)


EQUIVALENCE_SETS = {
    # ROADMAP item-2 set: strong conversion, both species populated
    "item2": PhysicalParams(omega_a=1.0, omega_m=1.4, lambda_a=0.1, lambda_m=0.05,
                            lambda_am=0.1, alpha=0.5, n_a=200.0, n_m=100.0),
    # detuning and conversion on
    "hybrid": PhysicalParams(omega_a=1.0, omega_m=1.3, lambda_a=0.05, lambda_m=0.04,
                             lambda_am=0.02, alpha=0.1, epsilon=0.4, n_a=50.0, n_m=20.0),
    # atoms only: Goldstone pair at l = 0, molecule channel has Delta = 0
    "decoupled": PhysicalParams(omega_a=1.0, omega_m=1.4, lambda_a=0.1,
                                n_a=100.0, n_m=0.0),
}


def dense_reference(state, p, g, species, l, n_modes):
    # ([(E, u, v), ...], skipped) from the full 2n x 2n eigensolve
    return reference.dense_spectrum(state, p, g, species, l, n_modes)


def assert_matches_dense(modeset, ref, skipped):
    # the dense tolerances: energies and growth rates to 1e-8 relative,
    # vectors to 1e-7 of their largest entry; an unstable mode has no
    # vectors, energy 0.0 and its growth rate in energy_imag
    assert modeset.skipped == skipped
    assert len(modeset.modes) == len(ref)
    for m, (e, u, v) in zip(modeset.modes, ref):
        if u is None:
            assert m.unstable and m.energy == 0.0 and m.u is None and m.v is None
            assert math.isnan(m.norm)
            assert m.energy_imag == pytest.approx(e.imag, rel=1e-8)
        else:
            assert e.imag == 0.0 and not m.unstable and m.energy_imag == 0.0
            assert m.energy == pytest.approx(e.real, rel=1e-8)
            assert np.max(np.abs(m.u - u)) <= 1e-7 * np.max(np.abs(u))
            assert np.max(np.abs(m.v - v)) <= 1e-7 * np.max(np.abs(v))


@contextlib.contextmanager
def banded_only():
    # every grid channel takes a banded route: a dense eigensolve fails
    def refuse(*args, **kwargs):
        raise AssertionError("dense eigensolve called")

    with pytest.MonkeyPatch.context() as mp:
        for module in (scipy.linalg, np.linalg):
            mp.setattr(module, "eig", refuse)
            mp.setattr(module, "eigvals", refuse)
        yield


@pytest.fixture(scope="module")
def equivalence_states():
    g = build_grid(r_max=8.0, n_points=200)
    return g, {name: solve_coupled_gpe(p, g, SolverOptions(dt=5e-3))
               for name, p in EQUIVALENCE_SETS.items()}


@pytest.mark.parametrize("name", sorted(EQUIVALENCE_SETS))
def test_direct_grid_matches_dense_eigensolve(name, equivalence_states):
    # every channel here takes the A order or the Delta = 0 route and
    # reproduces the dense result
    g, states = equivalence_states
    p, s = EQUIVALENCE_SETS[name], states[name]
    for l in (0, 1, 2):
        refs = [dense_reference(s, p, g, sp, l, 8) for sp in (ATOM, MOLECULE)]
        with banded_only():
            got = direct_grid_spectrum(s, p, g, l=l, n_modes=8)
        for ms, (ref, skipped) in zip(got, refs):
            assert len(ref) == 8
            assert_matches_dense(ms, ref, skipped)
        if name == "decoupled" and l == 0:
            assert got[0].skipped == 2  # the Goldstone pair


#: one attractive species each, lambda*N = -2, -5, -7 for the atoms
#: (collapse lies between -7.2 and -7.3) and -2 for the molecules: its
#: l = 0 L + Delta is indefinite, so that channel takes the B order
ATTRACTIVE_SETS = {
    "atoms-2": (ATOM, PhysicalParams(omega_a=1.0, omega_m=1.4, lambda_a=-0.02, n_a=100.0)),
    "atoms-5": (ATOM, PhysicalParams(omega_a=1.0, omega_m=1.4, lambda_a=-0.05, n_a=100.0)),
    "atoms-7": (ATOM, PhysicalParams(omega_a=1.0, omega_m=1.4, lambda_a=-0.07, n_a=100.0)),
    "molecules-2": (MOLECULE, PhysicalParams(omega_a=1.0, omega_m=1.4, lambda_m=-0.02,
                                             n_a=0.0, n_m=100.0)),
}


@pytest.mark.parametrize("n", [200, 400])
@pytest.mark.parametrize("name", list(ATTRACTIVE_SETS))
def test_attractive_channels_match_dense_eigensolve(name, n):
    # the attractive species' channels equal the dense reference, the
    # l = 0 one with its Goldstone pair skipped; Kohn's dipole mode sits
    # at hbar*omega of the species' trap up to the O(h^2) grid error,
    # checked on the finer grid (1.4e-3 at 200 points for lambda*N = -7)
    species, p = ATTRACTIVE_SETS[name]
    g = build_grid(r_max=8.0, n_points=n)
    s = solve_coupled_gpe(p, g, SolverOptions(dt=5e-3))
    k = 0 if species == ATOM else 1
    for l in (0, 1, 2):
        ref, skipped = dense_reference(s, p, g, species, l, 8)
        with banded_only():
            got = direct_grid_spectrum(s, p, g, l=l, n_modes=8)[k]
        assert len(ref) == 8
        assert_matches_dense(got, ref, skipped)
        assert got.skipped == (2 if l == 0 else 0)
        if l == 1 and n == 400:
            omega = p.omega_a if species == ATOM else p.omega_m
            assert got.modes[0].energy == pytest.approx(p.hbar * omega, abs=1e-3)


BITWISE_SETS = {
    # oracle_spectrum's family: decoupled weak atoms; molecules have Delta = 0
    "weak-200": (PhysicalParams(omega_a=1.0, omega_m=1.4, lambda_a=0.06, n_a=100.0), 200),
    "weak-400": (PhysicalParams(omega_a=1.0, omega_m=1.4, lambda_a=0.06, n_a=100.0), 400),
    "hybrid": (EQUIVALENCE_SETS["hybrid"], 200),
    "item2": (EQUIVALENCE_SETS["item2"], 200),
    # lambda_a * n_a = -2: L + Delta is indefinite at l = 0, the dense route
    "attractive": (PhysicalParams(omega_a=1.0, omega_m=1.4, lambda_a=-0.02, n_a=100.0), 200),
}


@pytest.mark.parametrize("name", list(BITWISE_SETS))
def test_spectra_match_per_mode_reference_bitwise(name):
    # every Mode field and skipped count of the whole-array methods equals
    # the per-mode loops of tests/spectrum_reference.py to the bit; the
    # one channel the per-mode reference does not cover (the attractive
    # atoms at l = 0, whose L + Delta is indefinite) equals the dense
    # reference to its tolerances, and no channel calls a dense eigensolve
    p, n = BITWISE_SETS[name]
    g = build_grid(r_max=8.0, n_points=n)
    s = solve_coupled_gpe(p, g, SolverOptions(dt=5e-3))
    uncovered = []
    for l in (0, 1, 2):
        with banded_only():
            spectra = direct_grid_spectrum(s, p, g, l=l)
        for got, ref in zip(spectra, reference.direct_grid_spectrum(s, p, g, l=l)):
            if ref is None:
                uncovered.append((got.species, l))
                assert_matches_dense(got, *dense_reference(s, p, g, got.species, l, 8))
            else:
                assert_same_modes(got, ref)
    assert uncovered == ([(ATOM, 0)] if name == "attractive" else [])
    for convention in ("paper", "oscillator3d"):
        for got, ref in zip(block_2x2_spectrum(s, p, g, convention=convention),
                            reference.block_2x2_spectrum(s, p, g, convention=convention)):
            assert_same_modes(got, ref)
        for averaging in ("density", "volume"):
            kwargs = dict(averaging=averaging, convention=convention,
                          strict_literal=averaging == "volume")
            for got, ref in zip(paper_literal_spectrum(s, p, g, **kwargs),
                                reference.paper_literal_spectrum(s, p, g, **kwargs)):
                assert_same_modes(got, ref)


def test_one_second_variation_per_spectrum_call(equivalence_states, monkeypatch):
    # both species' backgrounds come from one gpe._second_variation call
    # per spectrum call (the four calls of an l_max = 1 spectrum --compare
    # case make four), and equal the per-species reference to the bit
    g, states = equivalence_states
    calls = []
    real = bdg._second_variation

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(bdg, "_second_variation", counting)
    for name, s in states.items():
        p = EQUIVALENCE_SETS[name]
        del calls[:]
        paper_literal_spectrum(s, p, g)
        block_2x2_spectrum(s, p, g)
        for l in (0, 1):
            direct_grid_spectrum(s, p, g, l=l)
        assert len(calls) == 4, name
        for species, *got in bdg._backgrounds(s, p):
            want = reference.background(species, s, p)
            assert got[2] == want[2]
            assert [a.tobytes() for a in got[:2]] == [a.tobytes() for a in want[:2]], name


def test_b_order_shift_enters_at_second_order(monkeypatch):
    # mu_a raised by 1e-7 on attractive atoms gives L - Delta an
    # eigenvalue near -1e-7, so the B order factors it only at a shift
    # of a few 1e-7 (eight rungs of the ladder); the shifted eigenvalues
    # are that far off, the Rayleigh quotient of the unshifted blocks
    # meets the dense tolerances
    p, n = BITWISE_SETS["attractive"]
    g = build_grid(r_max=8.0, n_points=n)
    s = solve_coupled_gpe(p, g, SolverOptions(dt=5e-3))
    raised = CondensateState(grid=g, phi_a=s.phi_a, phi_m=s.phi_m,
                             mu_a=s.mu_a + 1e-7, mu_m=s.mu_m)
    factored = []
    real_form = bdg._product_form

    def counted(*args):
        found = real_form(*args)
        factored.append(found is not None)
        return found

    monkeypatch.setattr(bdg, "_product_form", counted)
    atoms, _ = direct_grid_spectrum(raised, p, g, l=0)
    assert factored == [False] * 8 + [True]
    assert_matches_dense(atoms, *dense_reference(raised, p, g, ATOM, 0, 8))


@pytest.mark.parametrize("mu_shift", [0.0, -1e-13, -1e-12, -1e-10])
def test_dense_route_skips_goldstone_pair(equivalence_states, mu_shift):
    # decoupled atoms, l = 0: round-off leaves the Goldstone pair of the
    # dense eigensolve imaginary or real with a small norm (E = 2.1e-7 at
    # a mu_a 1e-13 low); the dense reference counts it as the pair by
    # |E|^2, as the banded route does, and both start at the breathing mode
    g, states = equivalence_states
    p, s = EQUIVALENCE_SETS["decoupled"], states["decoupled"]
    shifted = CondensateState(grid=g, phi_a=s.phi_a, phi_m=s.phi_m,
                              mu_a=s.mu_a + mu_shift, mu_m=s.mu_m)
    ref, skipped = dense_reference(shifted, p, g, ATOM, 0, 8)
    banded, _ = direct_grid_spectrum(shifted, p, g, l=0, n_modes=8)
    assert skipped == banded.skipped == 2
    assert ref[0][0].real == pytest.approx(2.08288, abs=1e-5)
    assert_matches_dense(banded, ref, skipped)


@pytest.mark.parametrize("field", ["phi_a", "mu_m"], ids=["banded", "delta-zero"])
def test_direct_grid_rejects_non_finite_background(equivalence_states, field):
    # stebz and sbevx return eigenvalues for a NaN matrix without an
    # error, so both routes keep the finiteness check of the scipy
    # wrappers they bypass: a NaN in the atoms' condensate reaches the
    # banded route, a NaN mu_m the molecules' Delta = 0 route
    g, states = equivalence_states
    p, s = EQUIVALENCE_SETS["decoupled"], states["decoupled"]
    fields = {"phi_a": s.phi_a.copy(), "phi_m": s.phi_m, "mu_a": s.mu_a, "mu_m": s.mu_m}
    if field == "phi_a":
        fields["phi_a"][10] = np.nan
    else:
        fields["mu_m"] = np.nan
    with pytest.raises(ValueError, match="infs or NaNs"):
        direct_grid_spectrum(CondensateState(grid=g, **fields), p, g, l=0)


def test_direct_grid_keeps_sign_without_anomalous_term():
    # spectrum_weak physics: N_m = 0, so the molecule channel has
    # Delta = 0 and its lowest level sits just below mu_m on the grid;
    # a product form would report |E|
    g = build_grid(r_max=8.0, n_points=400)
    p = EQUIVALENCE_SETS["decoupled"]
    s = solve_coupled_gpe(p, g, SolverOptions(dt=5e-3))
    _, mol = direct_grid_spectrum(s, p, g, l=0, n_modes=3)
    ref, skipped = dense_reference(s, p, g, MOLECULE, 0, 3)
    assert mol.modes[0].energy < 0.0
    assert mol.modes[0].energy == pytest.approx(ref[0][0].real, rel=1e-6)
    assert mol.skipped == skipped == 0
    assert all(np.all(m.v == 0.0) for m in mol.modes)


def flipped_item2_state(g):
    # the stationary state the descent reaches from the item-2 seed with
    # phi_m of the wrong sign for alpha (E = 837.66 at 8/200): a higher
    # branch than the ground state
    p = EQUIVALENCE_SETS["item2"]
    seed = gaussian_ansatz(p, g)
    return solve_coupled_gpe(p, g, init=CondensateState(
        grid=g, phi_a=seed.phi_a, phi_m=-seed.phi_m, mu_a=seed.mu_a, mu_m=seed.mu_m))


def test_direct_grid_reports_growth_rates(caplog):
    # E^2 < 0 is an unstable mode with its growth rate, listed first and
    # equal to the imaginary part of the dense pair: the decoupled set
    # with mu_a raised by 0.1 (L + Delta positive definite, the A order)
    # and the flipped item-2 state, the first sign in the program that it
    # is not the ground state
    g = build_grid(r_max=8.0, n_points=200)
    p = EQUIVALENCE_SETS["decoupled"]
    s = solve_coupled_gpe(p, g, SolverOptions(dt=5e-3))
    raised = CondensateState(grid=g, phi_a=s.phi_a, phi_m=s.phi_m,
                             mu_a=s.mu_a + 0.1, mu_m=s.mu_m)
    cases = [(raised, p, 0, ATOM, [0.25379192])]
    flipped = flipped_item2_state(g)
    p2 = EQUIVALENCE_SETS["item2"]
    cases += [(flipped, p2, 0, ATOM, [3.28162553]), (flipped, p2, 1, ATOM, [0.8458806]),
              (flipped, p2, 0, MOLECULE, [0.63435866]), (flipped, p2, 1, MOLECULE, [])]
    for state, params, l, species, rates in cases:
        with caplog.at_level(logging.WARNING, logger="hybridbec.bdg"), banded_only():
            spectra = direct_grid_spectrum(state, params, g, l=l, n_modes=8)
        got = spectra[0 if species == ATOM else 1]
        assert not caplog.records
        assert_matches_dense(got, *dense_reference(state, params, g, species, l, 8))
        unstable = [m for m in got.modes if m.unstable]
        assert got.modes[:len(unstable)] == unstable
        assert [m.energy_imag for m in unstable] == pytest.approx(rates, abs=1e-8)
        assert all(m.degeneracy == 2 * l + 1 for m in unstable)
        assert [m.j for m in got.modes] == list(range(8))


@pytest.mark.parametrize("l", [0, 1])
def test_direct_grid_rejects_two_indefinite_blocks(l):
    # mu_a raised by 3 hbar*omega_a on the item-2 set: neither L + Delta
    # nor L - Delta of the atom channel is positive definite (the dense
    # eigenvalues form a complex quartet), so no banded order applies
    g = build_grid(r_max=8.0, n_points=200)
    p = EQUIVALENCE_SETS["item2"]
    s = solve_coupled_gpe(p, g, SolverOptions(dt=5e-3))
    raised = CondensateState(grid=g, phi_a=s.phi_a, phi_m=s.phi_m,
                             mu_a=s.mu_a + 3.0, mu_m=s.mu_m)
    with pytest.raises(DomainError, match=f"atom l={l}:"):
        direct_grid_spectrum(raised, p, g, l=l)


@pytest.mark.parametrize("name", ["item2", "attractive"])
def test_direct_grid_zero_pivot_moves_shift(name, monkeypatch):
    # a zero pivot in the inverse iteration's LU factorization (gbtrf
    # info > 0) moves that shift by the least step that changes the
    # factored diagonal and factors again; the modes equal the unforced
    # run's to 1e-12.  The first factored channel is the atoms' l = 0:
    # the A order for item-2, the B order for the attractive set
    p, n = BITWISE_SETS[name]
    g = build_grid(r_max=8.0, n_points=n)
    s = solve_coupled_gpe(p, g, SolverOptions(dt=5e-3))
    unforced = direct_grid_spectrum(s, p, g, l=0, n_modes=8)
    factored, diagonals = [], []
    real_gbtrf = bdg._GBTRF

    def zero_pivot_first(ab, kl, ku, **kwargs):
        diagonals.append(ab[4].copy())  # K minus the shift
        lu, piv, info = real_gbtrf(ab, kl, ku, **kwargs)
        if not factored:
            info = 1
        factored.append(info)
        return lu, piv, info

    monkeypatch.setattr(bdg, "_GBTRF", zero_pivot_first)
    forced = direct_grid_spectrum(s, p, g, l=0, n_modes=8)
    assert factored[0] == 1 and len(factored) > 1 and not any(factored[1:])
    moved = diagonals[0] - diagonals[1]
    assert moved.any() and np.all(np.abs(moved) <= 1e-12 * np.abs(diagonals[0]).max())
    for got, ref in zip(forced, unforced):
        assert got.skipped == ref.skipped and len(got.modes) == len(ref.modes) == 8
        for m, r in zip(got.modes, ref.modes):
            assert m.energy == pytest.approx(r.energy, rel=1e-12)
            assert np.max(np.abs(m.u - r.u)) <= 1e-12 * np.max(np.abs(r.u))
            assert np.max(np.abs(m.v - r.v)) <= 1e-12 * np.max(np.abs(r.v))


@pytest.mark.parametrize("kwargs, message", [
    ({"l": -1}, "l must be"), ({"l": True}, "l must be"), ({"l": 0.5}, "l must be"),
    ({"n_modes": -3}, "n_modes must be"), ({"n_modes": 0}, "n_modes must be"),
    ({"n_modes": 2.5}, "n_modes must be"),
], ids=["l-negative", "l-bool", "l-fraction", "n_modes-negative", "n_modes-zero",
        "n_modes-fraction"])
def test_direct_grid_rejects_bad_counts(equivalence_states, kwargs, message):
    # l = -1 used to run as l = 0 with degeneracy -1, l = True as l = 1,
    # l = 0.5 with degeneracy 2.0, and n_modes = -3 raised an untyped
    # LAPACK error
    g, states = equivalence_states
    with pytest.raises(ConfigError, match=message):
        direct_grid_spectrum(states["decoupled"], EQUIVALENCE_SETS["decoupled"], g, **kwargs)


def test_direct_grid_kohn_mode_and_second_order():
    # interacting decoupled atoms: the l = 1 dipole mode sits at
    # hbar*omega_a whatever the interaction (Kohn's theorem), and the
    # lowest l = 0 and l = 1 modes converge as h^2
    p = EQUIVALENCE_SETS["decoupled"]
    energies = []
    for n in (200, 400, 800, 1600):
        g = build_grid(r_max=8.0, n_points=n)
        s = solve_coupled_gpe(p, g, SolverOptions(dt=5e-3))
        breathing, _ = direct_grid_spectrum(s, p, g, l=0, n_modes=1)
        dipole, _ = direct_grid_spectrum(s, p, g, l=1, n_modes=1)
        energies.append([breathing.modes[0].energy, dipole.modes[0].energy])
    energies = np.array(energies)
    assert energies[-1, 1] == pytest.approx(1.0, abs=1e-4)
    steps = np.diff(energies, axis=0)
    orders = np.log2(steps[:-1] / steps[1:])
    assert np.all((orders >= 1.8) & (orders <= 2.2)), orders
