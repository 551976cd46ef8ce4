import math
from dataclasses import replace

import numpy as np
import pytest

from hybridbec import DomainError, PhysicalParams, build_grid
from hybridbec.bdg import Mode, ModeSet, block_2x2_spectrum, direct_grid_spectrum
from hybridbec.gpe import SolverOptions, solve_coupled_gpe
from hybridbec.thermal import (
    NORM_TOL, _thermal_sum, bose_occupation, density_profile, total_numbers,
)

GRID = build_grid(r_max=8.0, n_points=200)

_cache = {}


def weak_setup():
    """Mixed weakly interacting ground state plus its block spectra."""
    if "state" not in _cache:
        p = PhysicalParams(
            omega_a=1.0, omega_m=1.3, lambda_a=0.05, lambda_m=0.04,
            lambda_am=0.02, alpha=0.1, epsilon=0.4, n_a=50.0, n_m=20.0,
        )
        s = solve_coupled_gpe(p, GRID, SolverOptions())
        atoms, mols = block_2x2_spectrum(s, p, GRID, j_max=16)
        _cache.update(params=p, state=s, atoms=atoms, mols=mols)
    return _cache["params"], _cache["state"], _cache["atoms"], _cache["mols"]


def test_occupation_special_points():
    # beta*E = ln 2 puts exactly one quantum in the mode
    assert bose_occupation(math.log(2.0), 1.0) == pytest.approx(1.0, abs=1e-12)
    assert bose_occupation(math.log(2.0) / 3.0, 3.0) == pytest.approx(1.0, abs=1e-12)
    # zero temperature: empty for any positive energy
    assert bose_occupation(1e-8, math.inf) == 0.0


def test_occupation_classical_limit():
    # small beta*E: 1/(e^x - 1) ~ 1/x - 1/2
    x = 1e-3
    assert bose_occupation(x, 1.0) == pytest.approx(1.0 / x - 0.5, rel=1e-3)


def test_occupation_past_expm1_overflow():
    # expm1 overflows past beta*E ~ 709.78; exp(-beta*E) is the occupation
    # there, subnormal and then 0.0
    assert bose_occupation(720.0, 1.0) == math.exp(-720.0)
    assert 0.0 < bose_occupation(7.2, 100.0) < 2.3e-308
    assert bose_occupation(8.0, 100.0) == 0.0
    for x in (1.0, 40.0, 700.0, 709.78):
        assert bose_occupation(x, 1.0) == 1.0 / math.expm1(x)


def test_occupation_rejects_nonpositive_energy():
    with pytest.raises(DomainError):
        bose_occupation(0.0, 1.0)
    with pytest.raises(DomainError):
        bose_occupation(-0.5, 1.0)


def test_zero_temperature_depletion():
    p, s, atoms, mols = weak_setup()
    prof = density_profile(s, atoms, mols, p, GRID)
    # T = 0: thermal block reduces to the quantum depletion sum(|v|^2)
    expect = np.zeros(GRID.n_points)
    for m in atoms.modes:
        if m.energy > 0.0 and not m.unstable and m.v is not None:
            expect += m.degeneracy * m.v**2
    assert np.allclose(prof.rho_a_thermal, expect, rtol=0.0, atol=1e-12)
    # ... and switching depletion off empties the noncondensate exactly
    bare = density_profile(s, atoms, mols, p, GRID, include_quantum_depletion=False)
    assert np.all(bare.rho_a_thermal == 0.0)
    assert np.all(bare.rho_m_thermal == 0.0)


def test_total_identity_and_t0_numbers():
    p, s, atoms, mols = weak_setup()
    prof = density_profile(s, atoms, mols, p, GRID, include_quantum_depletion=False)
    assert np.array_equal(
        prof.rho_total,
        prof.rho_a_cond + prof.rho_a_thermal + 2.0 * (prof.rho_m_cond + prof.rho_m_thermal),
    )
    tot = total_numbers(prof, GRID)
    assert tot["n_a_total"] == pytest.approx(50.0, abs=1e-6)
    assert tot["n_m_total"] == pytest.approx(20.0, abs=1e-6)
    assert tot["n_atom_equivalent"] == pytest.approx(90.0, abs=1e-6)


def test_thermal_cloud_grows_with_temperature():
    p, s, atoms, mols = weak_setup()
    totals = []
    for t in (0.1, 0.5, 1.0):
        prof = density_profile(
            s, atoms, mols, replace(p, temperature=t), GRID,
            include_quantum_depletion=False,
        )
        totals.append(total_numbers(prof, GRID)["n_atom_equivalent"])
        assert prof.temperature == t
    assert totals[0] < totals[1] < totals[2]
    assert totals[0] > 0.0


def test_truncation_insensitive_at_moderate_temperature():
    # occupations die like exp(-beta*E): doubling the basis past j=16
    # moves totals at beta*omega_a = 1 by far less than 1e-3 relative
    p, s, atoms, mols = weak_setup()
    hot = replace(p, temperature=1.0)
    a2, m2 = block_2x2_spectrum(s, p, GRID, j_max=32)
    n16 = total_numbers(density_profile(s, atoms, mols, hot, GRID), GRID)
    n32 = total_numbers(density_profile(s, a2, m2, hot, GRID), GRID)
    rel = abs(n32["n_atom_equivalent"] - n16["n_atom_equivalent"])
    rel /= n16["n_atom_equivalent"]
    assert rel < 1e-3


def test_species_swap_permutes_blocks():
    from hybridbec.gpe import CondensateState

    p, s, atoms, mols = weak_setup()
    hot = replace(p, temperature=0.7)
    direct = density_profile(s, atoms, mols, hot, GRID)
    flipped = CondensateState(
        grid=GRID, phi_a=s.phi_m.copy(), phi_m=s.phi_a.copy(),
        mu_a=s.mu_m, mu_m=s.mu_a,
    )
    swapped = density_profile(flipped, mols, atoms, hot, GRID)
    assert np.array_equal(swapped.rho_a_cond, direct.rho_m_cond)
    assert np.array_equal(swapped.rho_m_thermal, direct.rho_a_thermal)


def test_mode_sum_order_independent():
    p, s, atoms, mols = weak_setup()
    hot = replace(p, temperature=1.0)
    ref = density_profile(s, atoms, mols, hot, GRID)
    rng = np.random.default_rng(11)
    for _ in range(5):
        shuffled = ModeSet(
            species=atoms.species, method=atoms.method,
            modes=[atoms.modes[i] for i in rng.permutation(len(atoms.modes))],
        )
        prof = density_profile(s, shuffled, mols, hot, GRID)
        assert np.allclose(prof.rho_a_thermal, ref.rho_a_thermal, rtol=1e-12, atol=1e-15)


def test_exclusion_counts_and_norm_failure():
    p, s, atoms, mols = weak_setup()
    u = np.ones(GRID.n_points)
    v = np.zeros(GRID.n_points)
    junk = ModeSet(species="atom", method="block-2x2", modes=[
        Mode(j=0, branch="-", energy=-1.0, u=u, v=v, norm=-1.0),
        Mode(j=1, branch="+", energy=2.0, unstable=True),
        Mode(j=2, branch="+", energy=1.0),  # no amplitudes attached
    ])
    empty = ModeSet(species="molecule", method="block-2x2")
    prof = density_profile(s, junk, empty, p, GRID)
    assert prof.excluded_nonpositive == 2
    assert prof.excluded_undefined == 1
    bad = ModeSet(species="atom", method="block-2x2", modes=[
        Mode(j=0, branch="+", energy=1.0, u=u, v=v, norm=0.9),
    ])
    with pytest.raises(DomainError):
        density_profile(s, bad, empty, p, GRID)


def reference_thermal_sum(modeset, beta, include_quantum_depletion, n):
    """The mode sum one mode at a time: exclusions, then a Kahan update."""
    total = np.zeros(n)
    comp = np.zeros(n)
    excluded_nonpos = excluded_undef = 0
    for mode in modeset.modes:
        if mode.energy <= 0.0 or mode.unstable:
            excluded_nonpos += 1
            continue
        if mode.u is None or mode.v is None:
            excluded_undef += 1
            continue
        if abs(abs(mode.norm) - 1.0) > NORM_TOL:
            raise DomainError(f"mode j={mode.j} has norm {mode.norm}")
        occ = bose_occupation(mode.energy, beta)
        if include_quantum_depletion:
            term = mode.u**2 * occ + mode.v**2 * (1.0 + occ)
        else:
            term = (mode.u**2 + mode.v**2) * occ
        term = mode.degeneracy * term
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total, excluded_nonpos, excluded_undef


@pytest.mark.parametrize("include", [True, False], ids=["depletion", "thermal-only"])
@pytest.mark.parametrize("temperature", [0.0, 0.7], ids=["T0", "T0.7"])
def test_mode_sum_matches_per_mode_kahan_loop(include, temperature):
    # block modes (norm +1 and -1, degeneracy 1), grid modes at l = 1
    # (degeneracy 3), and modes that are excluded: the sum over several
    # temperatures at once must be the per-mode loop at each of them, bit
    # for bit, with the same exclusion counts
    p, s, atoms, _ = weak_setup()
    grid_atoms, _ = direct_grid_spectrum(s, p, GRID, l=1, n_modes=6)
    assert {m.degeneracy for m in grid_atoms.modes} == {3}
    u = atoms.modes[-1].u
    mixed = ModeSet(species="atom", method="mixed", modes=[
        Mode(j=0, branch="+", energy=1.5, unstable=True, u=u, v=u, norm=1.0),
        *atoms.modes[:5], *grid_atoms.modes,
        Mode(j=1, branch="+", energy=2.0),  # no amplitudes
        Mode(j=2, branch="-", energy=-1.0, u=u, v=u, norm=-1.0),
        *atoms.modes[5:],
    ])
    # the parametrized temperature alone, and first, inside and repeated
    # in a sweep that also holds T = 0 (beta = inf) and T > 0
    betas = [replace(p, temperature=t).beta
             for t in (temperature, 0.0, 0.35, temperature, 2.5)]
    assert math.isinf(betas[1]) and all(b > 0.0 for b in betas)
    for sweep in (betas[:1], betas):
        got = _thermal_sum(mixed, sweep, include, GRID.n_points)
        assert got[0].shape == (len(sweep), GRID.n_points)
        for row, beta in zip(got[0], sweep):
            ref = reference_thermal_sum(mixed, beta, include, GRID.n_points)
            assert row.tobytes() == ref[0].tobytes()
            assert got[1:] == ref[1:]
        assert got[1] == 2 + sum(m.energy <= 0.0 or m.unstable for m in atoms.modes)
        assert got[2] == 1
    # a bad norm after admitted modes is still an error for the whole sum
    bad = ModeSet(species="atom", method="mixed", modes=[
        *atoms.modes, Mode(j=9, branch="+", energy=1.0, u=u, v=u, norm=0.9)])
    with pytest.raises(DomainError):
        _thermal_sum(bad, betas, include, GRID.n_points)
    with pytest.raises(DomainError):
        reference_thermal_sum(bad, betas[0], include, GRID.n_points)
