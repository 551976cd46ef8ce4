import numpy as np
import pytest
import scipy.linalg

from hybridbec import ConfigError, PhysicalParams, bdg, build_grid
from hybridbec.bdg import (
    ATOM,
    MOLECULE,
    NORM_FLOOR,
    basis_levels,
    bdg_matrix,
    block_2x2_spectrum,
    direct_grid_spectrum,
    oscillator_basis,
    paper_literal_spectrum,
)
from hybridbec.gpe import CondensateState, SolverOptions, gaussian_ansatz, solve_coupled_gpe


def plus_modes(modeset):
    return [m for m in modeset.modes if m.branch == "+"]


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
        m = bdg_matrix(s, p, g, species, l=0)
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
    # the full 2n x 2n eigensolve: positive-norm modes in ascending real
    # part, near-zero norms counted as skipped, normalized with the
    # largest |u| entry real and positive
    n = g.n_points
    vals, vecs = scipy.linalg.eig(bdg_matrix(state, p, g, species, l))
    modes, skipped = [], 0
    for k in np.argsort(vals.real):
        cu, cv = vecs[:n, k], vecs[n:, k]
        norm = 4.0 * np.pi * g.h * float((np.abs(cu) ** 2 - np.abs(cv) ** 2).sum())
        if abs(norm) <= NORM_FLOOR:
            skipped += 1
        elif norm > 0.0:
            phase = np.exp(-1j * np.angle(cu[np.argmax(np.abs(cu))])) / np.sqrt(norm)
            modes.append((vals[k], (cu * phase).real / g.r, (cv * phase).real / g.r))
            if len(modes) == n_modes:
                break
    return modes, skipped


@pytest.fixture(scope="module")
def equivalence_states():
    g = build_grid(r_max=8.0, n_points=200)
    return g, {name: solve_coupled_gpe(p, g, SolverOptions(dt=5e-3))
               for name, p in EQUIVALENCE_SETS.items()}


@pytest.mark.parametrize("name", sorted(EQUIVALENCE_SETS))
def test_direct_grid_matches_dense_eigensolve(name, equivalence_states, monkeypatch):
    # every channel here takes the banded or the Delta = 0 route (the
    # dense builder must not be called) and reproduces the dense result
    g, states = equivalence_states
    p, s = EQUIVALENCE_SETS[name], states[name]

    def no_dense(*args, **kwargs):
        raise AssertionError("dense fallback taken")

    for l in (0, 1, 2):
        refs = [dense_reference(s, p, g, sp, l, 8) for sp in (ATOM, MOLECULE)]
        with monkeypatch.context() as mp:
            mp.setattr(bdg, "bdg_matrix", no_dense)
            got = direct_grid_spectrum(s, p, g, l=l, n_modes=8)
        for ms, (ref, skipped) in zip(got, refs):
            assert len(ms.modes) == len(ref) == 8
            assert ms.skipped == skipped
            for m, (e, u, v) in zip(ms.modes, ref):
                assert e.imag == 0.0 and not m.unstable
                assert m.energy == pytest.approx(e.real, rel=1e-8)
                scale = np.max(np.abs(u))
                assert np.max(np.abs(m.u - u)) <= 1e-7 * scale
                assert np.max(np.abs(m.v - v)) <= 1e-7 * np.max(np.abs(v))
        if name == "decoupled" and l == 0:
            assert got[0].skipped == 2  # the Goldstone pair


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


def test_direct_grid_dense_fallback(monkeypatch):
    # raising mu_a by 3 hbar*omega_a on the item-2 set makes L + Delta
    # indefinite; raising it by 0.1 on the decoupled set keeps L + Delta
    # positive definite but gives E^2 < 0.  Either way the atom channel
    # falls back to the dense eigensolve and returns exactly its
    # energies, growth rates, flags and skipped count (the imaginary
    # pairs have zero norm and land in skipped)
    g = build_grid(r_max=8.0, n_points=200)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[3])
        return bdg_matrix(*args, **kwargs)

    monkeypatch.setattr(bdg, "bdg_matrix", counted)
    for name, shift, channels in (("item2", 3.0, (0, 1)), ("decoupled", 0.1, (0,))):
        p = EQUIVALENCE_SETS[name]
        s = solve_coupled_gpe(p, g, SolverOptions(dt=5e-3))
        shifted = CondensateState(grid=g, phi_a=s.phi_a, phi_m=s.phi_m,
                                  mu_a=s.mu_a + shift, mu_m=s.mu_m)
        for l in channels:
            calls.clear()
            atoms, _ = direct_grid_spectrum(shifted, p, g, l=l, n_modes=8)
            assert calls == [ATOM]
            ref, skipped = dense_reference(shifted, p, g, ATOM, l, 8)
            assert [m.energy for m in atoms.modes] == [float(e.real) for e, _, _ in ref]
            assert [m.energy_imag for m in atoms.modes] == [float(e.imag) for e, _, _ in ref]
            assert [m.unstable for m in atoms.modes] == [
                abs(e.imag) > 1e-9 * max(1.0, abs(e.real)) for e, _, _ in ref]
            assert atoms.skipped == skipped


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
