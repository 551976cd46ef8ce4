import dataclasses
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from hybridbec import CollapseError, ConfigError, ConvergenceError, PhysicalParams, build_grid
from hybridbec import bdg, gpe, thermal
from hybridbec.gpe import (
    CondensateState,
    SolverOptions,
    energy_functional,
    gaussian_ansatz,
    gpe_defect,
    solve_coupled_gpe,
)

GRID = build_grid(r_max=8.0, n_points=200)


def params(**overrides):
    base = dict(omega_a=1.0, omega_m=1.4, n_a=1e4, n_m=1e4)
    base.update(overrides)
    return PhysicalParams(**base)


def test_ansatz_noninteracting_mu_exact():
    # widths are the exact oscillator ground states, mu analytic: no grid error
    p = params(lambda_a=0.0, lambda_m=0.0, lambda_am=0.0, alpha=0.0)
    s = gaussian_ansatz(p, GRID)
    assert s.mu_a == pytest.approx(1.5, abs=1e-12)
    assert s.mu_m == pytest.approx(1.5 * 1.4, abs=1e-12)
    assert s.residual < 1e-3  # discretization-limited defect
    assert GRID.norm(s.phi_a) == pytest.approx(1e4, rel=1e-8)
    assert GRID.norm(s.phi_m) == pytest.approx(1e4, rel=1e-8)


def test_ansatz_detuning_shifts_mu_m():
    p = params(epsilon=0.7)
    s = gaussian_ansatz(p, GRID)
    assert s.mu_m == pytest.approx(1.5 * 1.4 + 0.7, abs=1e-12)


def test_ansatz_zero_population():
    p = params(n_a=0.0)
    s = gaussian_ansatz(p, GRID)
    assert np.all(s.phi_a == 0.0)
    assert GRID.norm(s.phi_m) == pytest.approx(1e4, rel=1e-8)


def test_solve_noninteracting_decoupled_oscillators():
    p = params(epsilon=0.3)
    s = solve_coupled_gpe(p, GRID)
    assert s.residual < 1e-8
    # grid path: discrete eigenvalue carries O(h^2) error
    assert s.mu_a == pytest.approx(1.5, abs=1e-3)
    assert s.mu_m == pytest.approx(1.5 * 1.4 + 0.3, abs=1e-3)
    assert GRID.norm(s.phi_a) == pytest.approx(p.n_a, rel=1e-8)
    assert GRID.norm(s.phi_m) == pytest.approx(p.n_m, rel=1e-8)
    # ground state nodeless
    assert np.all(s.phi_a > 0.0)


def test_solve_thomas_fermi_limit():
    # lambda_a*N_a = 1e3, no molecules: mu approaches (1/2)(15*N*lambda_a/(4pi))^(2/5)
    g = build_grid(r_max=8.0, n_points=400)
    p = params(lambda_a=1e-3, n_a=1e6, n_m=0.0)
    s = solve_coupled_gpe(p, g)
    mu_tf = 0.5 * (15.0 * 1e3 / (4.0 * np.pi)) ** 0.4
    assert s.mu_a == pytest.approx(mu_tf, rel=0.05)
    assert s.residual < 1e-8
    # repulsion raises mu above the TF value (kinetic energy is positive)
    assert s.mu_a > mu_tf


def test_solve_strong_coupling_regression():
    # omega_m = 1.4, alpha = 5*lambda_a, lambda_a = 0.1, N = 1e6 each;
    # the anchors are the converged mu of this set, from a solve at
    # SolverOptions(tol=1e-12, max_iters=60000) (residual 4.2e-15, 110
    # steps); the default tol stops 2.1e-9 and 2.5e-10 from them
    g = build_grid(r_max=16.0, n_points=800)
    p = PhysicalParams(omega_a=1.0, omega_m=1.4, lambda_a=0.1, alpha=0.5,
                       lambda_am=0.1, lambda_m=0.05, n_a=1e6, n_m=1e6)
    s = solve_coupled_gpe(p, g, SolverOptions(max_iters=60000))
    assert s.residual < 1e-8
    assert s.mu_a == pytest.approx(60.36630119894684, rel=1e-8)
    assert s.mu_m == pytest.approx(99.45050798942498, rel=1e-8)
    # for alpha > 0 the energy term 2*alpha*phi_a^2*phi_m picks phi_m <= 0
    assert np.all(s.phi_m <= 1e-12)
    assert np.all(s.phi_a >= -1e-12)


def test_default_start_reaches_lowest_energy_branch():
    # alpha > 0: a phi_m >= 0 start stops on a stationary state at
    # E = 837.84; the default start, signed against alpha, reaches the
    # phi_m <= 0 ground state with default options.  The phase block B
    # certifies the one (no negative eigenvalue) and flags the other (two,
    # -3.171 and -0.225)
    g = build_grid(r_max=8.0, n_points=400)
    p = PhysicalParams(omega_a=1.0, omega_m=1.4, lambda_a=0.1, lambda_m=0.05,
                       lambda_am=0.1, alpha=0.5, n_a=200.0, n_m=100.0)
    s = solve_coupled_gpe(p, g)
    assert s.residual < 1e-8
    assert s.energy == pytest.approx(368.7505269, rel=1e-9)
    assert np.all(s.phi_m <= 0.0)
    assert gpe.negative_phase_modes(s, p, g) == 0

    seed = gaussian_ansatz(p, g)
    assert np.all(seed.phi_m <= 0.0)
    flipped = CondensateState(grid=g, phi_a=seed.phi_a, phi_m=-seed.phi_m,
                              mu_a=seed.mu_a, mu_m=seed.mu_m)
    other = solve_coupled_gpe(p, g, SolverOptions(tol=1e-6, max_iters=40000),
                              init=flipped)
    assert np.max(other.phi_m) > 0.0
    assert s.energy <= other.energy
    assert gpe.negative_phase_modes(other, p, g) == 2


def test_conversion_term_couples_equations():
    p1 = params(lambda_a=1e-3, lambda_m=5e-4, lambda_am=1e-3, alpha=0.05)
    p0 = params(lambda_a=1e-3, lambda_m=5e-4, lambda_am=1e-3, alpha=0.0)
    s1 = solve_coupled_gpe(p1, GRID)
    s0 = solve_coupled_gpe(p0, GRID)
    assert abs(s1.mu_a - s0.mu_a) > 1e-3


def test_defect_increases_under_perturbation():
    p = params(lambda_a=1e-3)
    s = solve_coupled_gpe(p, GRID)
    base = max(gpe_defect(s, p, GRID))
    rng = np.random.default_rng(5)
    for _ in range(5):
        noise = 1e-3 * rng.standard_normal(GRID.n_points)
        s_pert = replace(s, phi_a=s.phi_a * (1.0 + noise))
        pert = max(gpe_defect(s_pert, p, GRID))
        assert pert > base


def test_energy_nonincreasing_along_flow():
    # run the descent in short segments via tol=inf (returns at first check)
    p = params(lambda_a=2e-3, lambda_m=1e-3, lambda_am=1e-3, alpha=0.02)
    state = gaussian_ansatz(p, GRID)
    energies = [energy_functional(state, p, GRID)]
    opts = SolverOptions(tol=np.inf)
    for _ in range(40):
        state = solve_coupled_gpe(p, GRID, opts, init=state)
        energies.append(energy_functional(state, p, GRID))
    diffs = np.diff(energies)
    assert np.all(diffs <= np.abs(energies[:-1]) * 1e-9 + 1e-9)
    assert energies[-1] < energies[0]


def test_energy_matches_chemical_potentials():
    # projecting the stationary equations on phi_a, phi_m gives
    # E = N_a mu_a + N_m mu_m - integral(lambda_a phi_a^4/2 + lambda_m phi_m^4/2
    #     + lambda phi_a^2 phi_m^2 + alpha phi_a^2 phi_m);
    # the second set has a detuning, so every term of the energy is pinned
    cases = [
        (PhysicalParams(omega_a=1.0, omega_m=1.4, lambda_a=0.1, lambda_m=0.05,
                        lambda_am=0.1, alpha=0.5, n_a=200.0, n_m=100.0),
         build_grid(r_max=8.0, n_points=400)),
        (PhysicalParams(omega_a=1.0, omega_m=1.3, lambda_a=0.05, lambda_m=0.04,
                        lambda_am=0.02, alpha=0.1, epsilon=0.4, n_a=50.0, n_m=20.0),
         build_grid(r_max=8.0, n_points=200)),
    ]
    for p, g in cases:
        s = solve_coupled_gpe(p, g)
        a2, m2 = s.phi_a**2, s.phi_m**2
        rest = g.integrate(0.5 * p.lambda_a * a2**2 + 0.5 * p.lambda_m * m2**2
                           + p.lambda_am * a2 * m2 + p.alpha * a2 * s.phi_m)
        expected = p.n_a * s.mu_a + p.n_m * s.mu_m - rest
        assert energy_functional(s, p, g) == pytest.approx(expected, rel=1e-9)


def test_mu_rayleigh_consistency():
    # re-applying the stationary operator to phi reproduces mu*phi within tol
    p = params(lambda_a=1e-3, lambda_am=5e-4, alpha=0.03)
    s = solve_coupled_gpe(p, GRID)
    da, dm = gpe_defect(s, p, GRID)
    assert da < 1e-8 and dm < 1e-8


def test_attractive_subcritical_converges():
    # N|a|/a_ho = 2/(4pi) = 0.16, well under the critical ~0.57
    p = params(lambda_a=-2.0 / 1e4, n_m=0.0)
    s = solve_coupled_gpe(p, GRID)
    assert s.residual < 1e-8
    # attraction pulls mu below the oscillator value
    assert s.mu_a < 1.5
    assert GRID.rms_width(s.phi_a) < np.sqrt(1.5)


def test_attractive_supercritical_collapses():
    p = params(lambda_a=-20.0 / 1e4, n_m=0.0)
    with pytest.raises(CollapseError) as err:
        solve_coupled_gpe(p, GRID)
    assert err.value.width is not None and err.value.width < 4.0 * GRID.h


def test_nonconvergence_reports_residual():
    # the solve needs 10 descent steps and 2 Newton steps; the check at the
    # cap of 8 finds the defect below START_TOL with no step left
    p = params(lambda_a=1e-3)
    with pytest.raises(ConvergenceError) as err:
        solve_coupled_gpe(p, GRID, SolverOptions(max_iters=8))
    assert err.value.iterations == 8
    assert err.value.residual is not None and err.value.residual > 1e-8


def test_nonfinite_step_raises_convergence_error(monkeypatch):
    # a NaN mean field makes the first step's direction NaN; the
    # descent's slope check turns that into "iteration diverged" (exit 3)
    p = params(lambda_a=1e-3, alpha=0.1)
    start = gaussian_ansatz(p, GRID)

    def nan_fields(params, phi_a, phi_m):
        return np.full_like(phi_a, np.nan), np.full_like(phi_m, np.nan)

    monkeypatch.setattr(gpe, "_mean_fields", nan_fields)
    with pytest.raises(ConvergenceError) as err:
        solve_coupled_gpe(p, GRID, init=start)
    assert "iteration diverged at step 1" in str(err.value)
    assert err.value.iterations == 1


def test_molecules_absent_keeps_field_zero():
    p = params(lambda_a=1e-3, alpha=0.1, n_m=0.0)
    s = solve_coupled_gpe(p, GRID)
    assert np.all(s.phi_m == 0.0)
    assert s.residual < 1e-8


def test_determinism_bitwise():
    p = params(lambda_a=1e-3, lambda_am=5e-4, alpha=0.02)
    s1 = solve_coupled_gpe(p, GRID)
    s2 = solve_coupled_gpe(p, GRID)
    assert np.array_equal(s1.phi_a, s2.phi_a)
    assert np.array_equal(s1.phi_m, s2.phi_m)
    assert s1.mu_a == s2.mu_a and s1.mu_m == s2.mu_m


# the ROADMAP's item-2 set, the density_sweep config, the same with the
# molecular level 5 hbar*omega_a below the atoms' (mu_m < 0), decoupled
# repulsive atoms and the free gas
STAGE_SETS = {
    "item2": (PhysicalParams(omega_a=1.0, omega_m=1.4, lambda_a=0.1, lambda_m=0.05,
                             lambda_am=0.1, alpha=0.5, n_a=200.0, n_m=100.0),
              build_grid(r_max=8.0, n_points=400)),
    "density_sweep": (PhysicalParams(omega_a=1.0, omega_m=1.3, lambda_a=0.05,
                                     lambda_m=0.04, lambda_am=0.02, alpha=0.1,
                                     epsilon=0.4, n_a=50.0, n_m=20.0),
                      build_grid(r_max=8.0, n_points=200)),
    "bound": (PhysicalParams(omega_a=1.0, omega_m=1.3, lambda_a=0.05, lambda_m=0.04,
                             lambda_am=0.02, alpha=0.1, epsilon=-5.0, n_a=50.0, n_m=20.0),
              build_grid(r_max=8.0, n_points=200)),
    "decoupled": (PhysicalParams(omega_a=1.0, omega_m=1.4, lambda_a=0.1,
                                 n_a=100.0, n_m=0.0),
                  build_grid(r_max=8.0, n_points=400)),
    "free": (params(), GRID),
}


# test names ending in "flow" name the conjugate-gradient descent alone,
# which replaced an imaginary-time flow
def descent_only(monkeypatch, p, g, opts):
    # no defect is below START_TOL = 0, so no Newton step is tried
    with monkeypatch.context() as m:
        m.setattr(gpe, "START_TOL", 0.0)
        return solve_coupled_gpe(p, g, opts)


@pytest.mark.parametrize("name", sorted(STAGE_SETS))
def test_newton_agrees_with_flow(monkeypatch, name):
    p, g = STAGE_SETS[name]
    opts = SolverOptions()
    s = solve_coupled_gpe(p, g, opts)
    f = descent_only(monkeypatch, p, g, opts)
    # the Newton directions converge in fewer steps
    assert s.iterations < f.iterations
    # plain floats, as the descent reports them: CSV headers print their repr
    assert all(type(v) is float for v in (s.mu_a, s.mu_m, s.residual, s.energy))
    assert s.residual < 1e-8 and f.residual < 1e-8
    assert s.energy == pytest.approx(f.energy, rel=1e-10)
    assert s.mu_a == pytest.approx(f.mu_a, rel=1e-8)
    assert s.mu_m == pytest.approx(f.mu_m, rel=1e-8)


@pytest.mark.parametrize("name", sorted(STAGE_SETS))
def test_newton_keeps_exact_norms(name):
    p, g = STAGE_SETS[name]
    s = solve_coupled_gpe(p, g)
    for phi, n in ((s.phi_a, p.n_a), (s.phi_m, p.n_m)):
        if n > 0:
            assert g.norm(phi) == pytest.approx(n, rel=1e-12)
        else:
            assert np.all(phi == 0.0)


def test_free_limit_energy_is_n_mu():
    # without interactions E = N_a mu_a + N_m mu_m exactly on the grid, so
    # any norm drift of the Newton steps shows up here
    for p in (params(), params(n_m=0.0)):
        s = solve_coupled_gpe(p, GRID)
        assert s.energy == pytest.approx(p.n_a * s.mu_a + p.n_m * s.mu_m, rel=1e-12)


def test_ac3_set_converges_at_large_n():
    # an imaginary-time flow alone stalled here at residual 3.8e-3 after
    # 400,000 iterations
    g = build_grid(r_max=8.0, n_points=300)
    p = PhysicalParams(omega_a=1.0, omega_m=1.4, lambda_a=0.1, lambda_am=0.1,
                       alpha=0.5, lambda_m=0.0, n_a=1e4, n_m=1e4)
    s = solve_coupled_gpe(p, g)
    assert s.residual < 1e-8
    assert np.all(s.phi_m <= 0.0)
    assert s.energy == pytest.approx(78865.2503, rel=1e-9)


def test_ac3_set_converges_at_any_dt():
    # dt 5e-3 left the imaginary-time flow at residual 2.08e-2 after
    # 20,000 iterations, above the Newton hand-over; the descent has no
    # time step and reaches the same ground state
    g = build_grid(r_max=8.0, n_points=300)
    p = PhysicalParams(omega_a=1.0, omega_m=1.4, lambda_a=0.1, lambda_am=0.1,
                       alpha=0.5, lambda_m=0.0, n_a=1e4, n_m=1e4)
    ref = solve_coupled_gpe(p, g, SolverOptions(dt=1e-3))
    s = solve_coupled_gpe(p, g, SolverOptions(dt=5e-3))
    assert s.residual < 1e-8
    assert np.all(s.phi_m <= 0.0)
    assert s.energy == pytest.approx(ref.energy, rel=1e-12)


def test_item2_set_converges_in_few_steps():
    # the imaginary-time flow with Newton took 852 iterations here
    p, g = STAGE_SETS["item2"]
    s = solve_coupled_gpe(p, g)
    assert s.residual < 1e-8
    assert s.iterations <= 50


def test_start_stage_error_reports_caller_tolerance():
    # 3 steps end inside the start stage (defect above 1e-2)
    p = params(lambda_a=1e-3)
    with pytest.raises(ConvergenceError) as err:
        solve_coupled_gpe(p, GRID, SolverOptions(tol=1e-9, max_iters=3))
    assert "tol 1e-09" in str(err.value)
    assert "after 3 iterations" in str(err.value)
    assert err.value.iterations == 3
    assert err.value.residual > gpe.START_TOL


def test_max_iters_caps_flow_plus_newton_steps():
    # the free gas is below 1e-2 at the first check (CHECK_EVERY descent
    # steps) and needs one Newton step
    p = params()
    n = gpe.CHECK_EVERY
    s = solve_coupled_gpe(p, GRID, SolverOptions(max_iters=n + 1))
    assert s.iterations == n + 1 and s.residual < 1e-8
    with pytest.raises(ConvergenceError) as err:
        solve_coupled_gpe(p, GRID, SolverOptions(max_iters=n))
    assert err.value.iterations == n
    assert 1e-8 < err.value.residual < gpe.START_TOL


@pytest.mark.parametrize("reject", ["higher_energy", "no_result", "ascent", "collapsed"])
def test_guard_falls_back_to_flow(monkeypatch, reject):
    # a Newton direction the line search must not follow: none (a singular
    # system), an ascent direction, or one pointing at a genuine stationary
    # state above the ground state (the phi_m >= 0 branch at E = 837.84) or
    # at a field collapsed onto the first grid point
    p, g = STAGE_SETS["item2"]
    opts = SolverOptions()
    if reject == "higher_energy":
        seed = gaussian_ansatz(p, g)
        flipped = CondensateState(grid=g, phi_a=seed.phi_a, phi_m=-seed.phi_m,
                                  mu_a=seed.mu_a, mu_m=seed.mu_m)
        target = solve_coupled_gpe(p, g, init=flipped)
        assert target.residual < opts.tol and target.energy > 800.0
    elif reject == "collapsed":
        target = gaussian_ansatz(p, g)
        target.phi_a = np.zeros_like(target.phi_a)
        target.phi_a[0] = np.sqrt(p.n_a / g.w[0])
    calls = []

    def fake_step(params, grid, ops, phi, chi, c, mu, res, active):
        calls.append(1)
        if reject == "no_result":
            return None
        if reject == "ascent":
            return {s: res[s] for s in active}
        bad = (g.r * target.phi_a, g.r * target.phi_m)
        return {s: bad[s] - chi[s] for s in active}

    monkeypatch.setattr(gpe, "_newton_step", fake_step)
    s = solve_coupled_gpe(p, g, opts)
    assert calls and s.residual < opts.tol
    assert s.energy == pytest.approx(368.7505269, rel=1e-9)
    assert np.all(s.phi_m <= 0.0)
    if reject in ("no_result", "ascent"):
        # every step fell back to the descent: its state at the same step
        f = descent_only(monkeypatch, p, g, SolverOptions(max_iters=s.iterations))
        assert s.iterations == f.iterations
        assert np.array_equal(s.phi_a, f.phi_a) and np.array_equal(s.phi_m, f.phi_m)
        assert s.mu_a == f.mu_a and s.mu_m == f.mu_m and s.energy == f.energy


@pytest.mark.parametrize("tol", [gpe.START_TOL, 0.05])
def test_newton_never_tried_at_or_above_start_tol(monkeypatch, tol):
    # the first check below tol returns before the defect can fall below
    # START_TOL without also being below tol
    p, g = STAGE_SETS["item2"]
    opts = SolverOptions(tol=tol)

    def no_newton(*args):
        raise AssertionError("Newton tried with tol >= START_TOL")

    monkeypatch.setattr(gpe, "_newton_step", no_newton)
    s = solve_coupled_gpe(p, g, opts)
    f = descent_only(monkeypatch, p, g, opts)
    assert np.array_equal(s.phi_a, f.phi_a) and np.array_equal(s.phi_m, f.phi_m)
    assert s.mu_a == f.mu_a and s.mu_m == f.mu_m
    assert s.iterations == f.iterations


# -- the descent's fast paths, each against the formula it replaces, bit for bit


def bits(x):
    return np.asarray(x, dtype=float).tobytes()


START_SETS = dict(STAGE_SETS, **{
    "negative_alpha": (params(lambda_a=1e-3, alpha=-0.02), GRID),
    "no_molecules_alpha": (params(lambda_a=1e-3, alpha=0.1, n_m=0.0), GRID),
})


@pytest.mark.parametrize("name", sorted(START_SETS))
def test_default_start_is_the_ansatz(name):
    # the descent's start has the ansatz's fields and mu to the bit,
    # signs of zero included (phi_m = -0.0 for alpha > 0 and no molecules)
    p, g = START_SETS[name]
    start, ref = gpe._gaussian_start(p, g), gaussian_ansatz(p, g)
    for field in ("phi_a", "phi_m", "mu_a", "mu_m"):
        assert bits(getattr(start, field)) == bits(getattr(ref, field))


def test_default_start_skips_the_ansatz_diagnostics(monkeypatch):
    calls = []
    for name in ("gpe_defect", "energy_functional"):
        real = getattr(gpe, name)
        monkeypatch.setattr(gpe, name, lambda *a, _real=real, _name=name:
                            calls.append(_name) or _real(*a))
    for p, g in STAGE_SETS.values():
        solve_coupled_gpe(p, g)
    assert calls == []
    gaussian_ansatz(*STAGE_SETS["item2"])
    assert calls == ["gpe_defect", "energy_functional"]


# the benchmark's free, repulsive and attractive families with one species
# empty, in a box wide enough (r_max 45) that the Gaussian tails underflow to
# exact zeros, where lambda*phi^2 is -0.0 for a negative coupling; the
# couplings to the empty field come in both signs, so its zero terms do too
WIDE = build_grid(r_max=45.0, n_points=400)
EMPTY_FAMILIES = {
    "free": dict(n_a=100.0),
    "repulsive": dict(lambda_a=0.08, n_a=100.0),
    "attractive": dict(lambda_a=-0.0628, n_a=190.0),
    "molecules_only": dict(lambda_m=-0.05, n_m=100.0),
    "none": dict(lambda_a=-0.05),
}
COUPLINGS = {"uncoupled": dict(), "positive": dict(alpha=0.1, lambda_am=0.02),
             "negative": dict(alpha=-0.1, lambda_am=-0.02)}


def full_ops(p, g):
    return [gpe._operator(s, p, g) for s in (gpe.ATOM, gpe.MOLECULE)]


def empty_params(family, coupling):
    return PhysicalParams(omega_a=1.0, omega_m=1.4,
                          **EMPTY_FAMILIES[family], **COUPLINGS[coupling])


@pytest.mark.parametrize("coupling", sorted(COUPLINGS))
@pytest.mark.parametrize("family", sorted(EMPTY_FAMILIES))
def test_empty_species_skip_keeps_every_bit(monkeypatch, family, coupling):
    # every _gradients and _energy call of a descent with an empty species
    # gives the full formulas' g and E to the bit on the same fields; the
    # mean field c only up to the sign of its zeros, which the full sum
    # takes from the empty field's zero terms
    p = empty_params(family, coupling)
    ops = full_ops(p, WIDE)
    gradients, energy = gpe._gradients, gpe._energy
    checked = []

    def checked_gradients(params, ops_, phi, chi):
        assert any(op is None for op in ops_)
        (g, c), (g_ref, c_ref) = gradients(params, ops_, phi, chi), gradients(params, ops, phi, chi)
        for s, op in enumerate(ops_):
            if op is None:
                assert g[s] is None and c[s] is None
            else:
                assert bits(g[s]) == bits(g_ref[s])
                assert np.array_equal(c[s], c_ref[s])
        checked.append("gradients")
        return g, c

    def checked_energy(params, grid, ops_, phi, chi):
        out = energy(params, grid, ops_, phi, chi)
        assert bits(out) == bits(energy(params, grid, ops, phi, chi))
        checked.append("energy")
        return out

    monkeypatch.setattr(gpe, "_gradients", checked_gradients)
    monkeypatch.setattr(gpe, "_energy", checked_energy)
    try:
        solve_coupled_gpe(p, WIDE, SolverOptions(max_iters=12))
    except (CollapseError, ConvergenceError):
        pass
    assert "gradients" in checked and "energy" in checked


def ground_outcome(p):
    # the converged state's fields, mu, energy, residual, iterations and
    # phase-mode count, or the error the descent raised
    try:
        s = solve_coupled_gpe(p, WIDE)
    except (CollapseError, ConvergenceError) as exc:
        return type(exc).__name__, str(exc), exc.iterations
    return ([bits(x) for x in (s.phi_a, s.phi_m, s.mu_a, s.mu_m, s.energy, s.residual)],
            s.iterations, gpe.negative_phase_modes(s, p, WIDE))


@pytest.mark.parametrize("coupling", sorted(COUPLINGS))
@pytest.mark.parametrize("family", sorted(EMPTY_FAMILIES))
def test_empty_species_ground_state_matches_full_formulas(monkeypatch, family, coupling):
    # the descent that leaves an empty species out reaches, to the bit, the
    # ground state of one that evaluates the full two-species formulas
    p = empty_params(family, coupling)
    skipped = ground_outcome(p)
    ops = full_ops(p, WIDE)
    gradients, energy = gpe._gradients, gpe._energy
    monkeypatch.setattr(gpe, "_gradients", lambda params, _, phi, chi:
                        gradients(params, ops, phi, chi))
    monkeypatch.setattr(gpe, "_energy", lambda params, grid, _, phi, chi:
                        energy(params, grid, ops, phi, chi))
    assert skipped == ground_outcome(p)


def band_product(band, x):
    # the symmetric matrix of lower band storage `band` times x
    y = band[0] * x
    for k in (1, 2):
        y[k:] += band[k, :-k] * x[:-k]
        y[:-k] += band[k, :-k] * x[k:]
    return y


@pytest.mark.parametrize("name", ["item2", "density_sweep"])
def test_phase_block_goldstone_mode(name):
    # B (chi_a, 2 chi_m) = 0 at a stationary state: the one check of B's
    # coupling 2*alpha*phi_a and of the -4*alpha*phi_m in B_a, which the
    # decoupled oracle never reads
    p, g = STAGE_SETS[name]
    s = solve_coupled_gpe(p, g)
    band = gpe._band(p, full_ops(p, g), (s.phi_a, s.phi_m), (s.mu_a, s.mu_m), [0, 1], "B")
    x = np.empty(2 * g.n_points)
    x[0::2], x[1::2] = g.r * s.phi_a, 2.0 * g.r * s.phi_m
    assert np.linalg.norm(band_product(band, x)) / np.linalg.norm(x) < 1e-9


@pytest.mark.parametrize("name", sorted(STAGE_SETS))
def test_ground_states_have_no_negative_phase_mode(name):
    # the empty molecules of "decoupled" keep the start's mu_m, 2.5e-4 above
    # the lowest level of their one-body operator: their rows are left out
    p, g = STAGE_SETS[name]
    assert gpe.negative_phase_modes(solve_coupled_gpe(p, g), p, g) == 0


def newton_by_solve_banded(params, grid, ops, phi, chi, c, mu, res, active):
    # the step as solve_banded((2, 2), ...) gives it, mean fields recomputed
    n = grid.n_points
    k = gpe._second_variation(params, phi[0], phi[1])
    ab = np.zeros((5, 2 * n))
    ab[2] = 1.0
    rhs = np.zeros((2 * n, 3))
    for s in active:
        ab[0, 2 + s::2] = ab[4, s:-2:2] = ops[s].offdiag
        ab[2, s::2] = ops[s].diag + k[s] - mu[s]
        rhs[s::2, 0] = -res[s]
        rhs[s::2, 1 + s] = chi[s]
    if len(active) == 2:
        ab[1, 1::2] = ab[3, 0::2] = k[2]
    try:
        x = scipy.linalg.solve_banded((2, 2), ab, rhs, check_finite=False)
        x = (x[0::2], x[1::2])
        dmu = np.zeros(2)
        dmu[active] = np.linalg.solve(
            [[chi[s] @ x[s][:, 1 + t] for t in active] for s in active],
            [-(chi[s] @ x[s][:, 0]) for s in active])
    except np.linalg.LinAlgError:
        return None
    return {s: x[s] @ np.r_[1.0, dmu] for s in active}


@pytest.mark.parametrize("name", sorted(STAGE_SETS))
def test_newton_step_gbsv_matches_solve_banded(monkeypatch, name):
    p, g = STAGE_SETS[name]
    step, steps = gpe._newton_step, []

    def compared(*args):
        # mu and res are updated in place by the next step: compare now
        out, ref = step(*args), newton_by_solve_banded(*args)
        assert out.keys() == ref.keys()
        assert all(bits(out[s]) == bits(ref[s]) for s in out)
        steps.append(out)
        return out

    monkeypatch.setattr(gpe, "_newton_step", compared)
    solve_coupled_gpe(p, g)
    assert steps


def test_newton_step_singular_band_gives_none():
    p = params()
    n = GRID.n_points
    flat = gpe.RadialOperator(diag=np.zeros(n), offdiag=0.0)
    zeros = np.zeros(n)
    args = (p, GRID, [flat, flat], (zeros, zeros), (zeros, zeros), (zeros, zeros),
            [0.0, 0.0], {0: zeros, 1: zeros}, [0])
    assert gpe._newton_step(*args) is None
    assert newton_by_solve_banded(*args) is None


@pytest.mark.parametrize("active", [[0], [0, 1]], ids=["atoms", "both"])
def test_newton_step_singular_schur_system_gives_none(active):
    # a nonsingular band whose border columns chi are zero: the band solve
    # succeeds and the 2x2 system for the mu updates is singular
    p = params()
    n = GRID.n_points
    op = gpe.RadialOperator(diag=np.full(n, 2.0), offdiag=-0.5)
    zeros, ones = np.zeros(n), np.ones(n)
    res = {0: ones, 1: ones}

    def args(chi):
        return (p, GRID, [op, op], (zeros, zeros), chi, (zeros, zeros),
                [0.0, 0.0], res, active)

    assert gpe._newton_step(*args((zeros, zeros))) is None
    assert newton_by_solve_banded(*args((zeros, zeros))) is None
    # the same band with nonzero borders gives a step
    step = gpe._newton_step(*args((ones, ones)))
    assert sorted(step) == active and all(np.isfinite(step[s]).all() for s in active)


# every entry point that takes a state and a grid, called as (state, grid);
# the thermal sums take the spectra of the state's own grid
OWN_PARAMS = PhysicalParams(omega_a=1.0, omega_m=1.4, lambda_a=0.1, n_a=100.0)


def _own_sets(state):
    return bdg.block_2x2_spectrum(state, OWN_PARAMS, state.grid, j_max=4)


ENTRY_POINTS = {
    "paper_literal_spectrum":
        lambda s, g: bdg.paper_literal_spectrum(s, OWN_PARAMS, g, j_max=4),
    "block_2x2_spectrum": lambda s, g: bdg.block_2x2_spectrum(s, OWN_PARAMS, g, j_max=4),
    "direct_grid_spectrum":
        lambda s, g: bdg.direct_grid_spectrum(s, OWN_PARAMS, g, n_modes=2),
    "density_profile":
        lambda s, g: thermal.density_profile(s, *_own_sets(s), OWN_PARAMS, g),
    "density_profiles":
        lambda s, g: thermal.density_profiles(s, *_own_sets(s), [OWN_PARAMS], g),
    "negative_phase_modes": lambda s, g: gpe.negative_phase_modes(s, OWN_PARAMS, g),
    "gpe_defect": lambda s, g: gpe_defect(s, OWN_PARAMS, g),
    "energy_functional": lambda s, g: energy_functional(s, OWN_PARAMS, g),
    "solve_coupled_gpe": lambda s, g: solve_coupled_gpe(OWN_PARAMS, g, init=s),
}
OWN_GRID = build_grid(r_max=8.0, n_points=100)


@pytest.fixture(scope="module")
def own_state():
    return solve_coupled_gpe(OWN_PARAMS, OWN_GRID)


def _bits(out):
    """Every number of an entry point's result, arrays as bytes; a
    state's grid is left out."""
    if isinstance(out, (tuple, list)):
        return [_bits(x) for x in out]
    if dataclasses.is_dataclass(out):
        return [_bits(getattr(out, f.name)) for f in dataclasses.fields(out) if f.name != "grid"]
    if isinstance(out, np.ndarray):
        return out.tobytes()
    return repr(out)


@pytest.mark.parametrize("other", [(10.0, 100), (8.0, 120)], ids=["r_max", "n_points"])
@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_a_grid_not_the_states_is_rejected(own_state, name, other):
    # the state's arrays on another mesh: wrong physics or a shape mismatch
    with pytest.raises(ConfigError, match=r"grid \(r_max=.*\) is not the state's grid "
                                          r"\(r_max=8.0, n_points=100\)"):
        ENTRY_POINTS[name](own_state, build_grid(*other))


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_an_equal_grid_built_apart_gives_the_same_bits(own_state, name):
    twin = build_grid(r_max=8.0, n_points=100)
    assert twin is not own_state.grid
    assert _bits(ENTRY_POINTS[name](own_state, twin)) == \
        _bits(ENTRY_POINTS[name](own_state, own_state.grid))
