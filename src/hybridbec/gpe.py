"""Ground state of the coupled atom/molecule condensate equations.

The stationary equations solved here, in natural units,

    {-hbar^2 grad^2/2M + V_a + lambda_a phi_a^2 + lambda phi_m^2} phi_a
        + 2 alpha phi_m phi_a = mu_a phi_a
    {-hbar^2 grad^2/4M + V_m + eps + lambda_m phi_m^2 + lambda phi_a^2} phi_m
        + alpha phi_a^2 = mu_m phi_m

are the constrained gradient of the mean-field energy functional at fixed
norms integral(phi^2 d^3r) = N_a, N_m.  The factor-2 asymmetry between the
conversion terms reflects pair conversion: two atoms per molecule.

Solver: one loop over an imaginary-time flow (the normalized gradient
flow of Bao & Du, SIAM J. Sci. Comput. 25, 1674 (2004)) with one Newton
polish.  The flow is implicit in the kinetic + trap part (backward
Euler, banded solve) and explicit in the nonlinear and conversion terms,
with per-step renormalization and a mu estimate from the log-derivative
of the norm decay.  Where dt*(max c - shift) > 1/2 the explicit factor
1 - dt*(c - shift) could turn negative, so the step applies exp(-dt*c)
instead, which damps but never flips signs.  Only the additive form has
the exact discrete eigenstate as its fixed point, and a dense cloud keeps
max c - mu large even at the solution (about 850 for the resonant set at
N_a = N_m = 1e4, lambda_a = 0.1, so every step is exponential for dt
above about 6e-4): there the flow alone stalls short of the eigenstate.
The mu shift of the implicit solve is clamped to 0.4/dt to keep the
backward-Euler factors positive at any estimate.  At the first check
whose defect is below START_TOL (and not below tol) Newton is tried on
the stationary equations bordered by the two norms (unknowns chi_a,
chi_m, mu_a, mu_m).  With the grid points of the two species interleaved
the Jacobian is a symmetric band of two diagonals each side, so a step
costs one banded solve with three right-hand sides and a 2x2 solve for
the mu updates; chi is rescaled to the exact norms after every step.
Newton converges to whatever stationary state is near, so its result is
kept only if its defect is below tol, no field has collapsed to the grid
floor and its energy is no higher than the flow start's; otherwise the
flow goes on alone.  With tol >= START_TOL the flow returns before
Newton is tried.

Sign convention: fields are real.  For alpha > 0 the energy term
2*alpha*phi_a^2*phi_m is minimized by phi_m <= 0 (phi_m >= 0 for
alpha < 0).  Neither stage finds that branch by itself: started with
the wrong molecular sign the solver can stop on a higher stationary
state.  The default start (`gaussian_ansatz`) therefore seeds phi_m with
the sign -sign(alpha); the solver then reports the natural sign rather
than forcing phi_m >= 0.  (The gauge phi_m -> -phi_m, alpha -> -alpha is
physically equivalent.)
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (
    CollapseError, ConfigError, ConvergenceError, require_count, require_positive,
)
from .grid import RadialGrid, RadialOperator, harmonic_potential, solve_banded_shifted
from .params import PhysicalParams

log = logging.getLogger(__name__)

ATOM = "atom"
MOLECULE = "molecule"

#: defect at which the flow hands the state to Newton
START_TOL = 1e-2
#: Newton steps tried before the flow takes over again
NEWTON_STEPS = 20
#: flow steps between defect/energy/collapse checks
CHECK_EVERY = 25
#: floor for the flow's dt back-off
MIN_DT = 1e-6
#: an RMS width below COLLAPSE_WIDTH*h raises CollapseError
COLLAPSE_WIDTH = 4.0


@dataclass(frozen=True)
class SolverOptions:
    """Ground-state solver controls.

    tol            convergence threshold on the normalized defect
    max_iters      cap on flow iterations plus Newton steps, both counted
                   in the state's `iterations`; a Newton polish the guard
                   rejects (at most NEWTON_STEPS steps) is discarded
                   uncounted and the flow resumes
    dt             initial flow step, units of 1/omega_a; halved (down to
                   MIN_DT) when the energy rises between checks, never
                   re-raised

    tol and dt must be positive numbers and max_iters an integer >= 1;
    anything else raises ConfigError.  The check interval, the dt floor
    and the collapse floor are the module constants CHECK_EVERY, MIN_DT
    and COLLAPSE_WIDTH.
    """

    tol: float = 1e-8
    max_iters: int = 20000
    dt: float = 1e-3

    def __post_init__(self):
        for name in ("tol", "dt"):
            require_positive(name, getattr(self, name))
        object.__setattr__(self, "max_iters", require_count("max_iters", self.max_iters, 1))


@dataclass(eq=False)
class CondensateState:
    """Converged (or trial) condensate fields with chemical potentials.

    phi_a, phi_m are real radial amplitudes with integral(phi^2 d^3r)
    equal to the particle numbers.  residual is the larger of the two
    normalized stationarity defects (see `gpe_defect`); iterations counts
    flow iterations plus Newton steps.
    """

    grid: RadialGrid
    phi_a: np.ndarray
    phi_m: np.ndarray
    mu_a: float
    mu_m: float
    residual: float = math.nan
    energy: float = math.nan
    iterations: int = 0


def _one_body(species: str, params: PhysicalParams) -> tuple[float, float, float]:
    """(mass, trap frequency, energy offset) of the species' one-body
    Hamiltonian -hbar^2 grad^2/2m + m*omega^2*r^2/2 + offset; the
    molecular offset is the detuning eps."""
    if species == ATOM:
        return params.mass, params.omega_a, 0.0
    if species == MOLECULE:
        return params.molecule_mass, params.omega_m, params.epsilon
    raise ConfigError(f"unknown species '{species}'")


def _operator(species: str, params: PhysicalParams, grid: RadialGrid, w=0.0, l=0):
    """The species' one-body operator plus an optional local potential w."""
    mass, omega, offset = _one_body(species, params)
    v = harmonic_potential(grid, mass, omega) + offset
    return RadialOperator.build(grid, mass, v + w, hbar=params.hbar, l=l)


def _mean_fields(params: PhysicalParams, phi_a: np.ndarray, phi_m: np.ndarray):
    """Local potentials c_a, c_m multiplying phi_a, phi_m in the stationary
    equations; the molecular source alpha*phi_a^2 is not included."""
    p = params
    phi_a2 = phi_a * phi_a
    phi_m2 = phi_m * phi_m
    c_a = p.lambda_a * phi_a2 + p.lambda_am * phi_m2 + 2.0 * p.alpha * phi_m
    c_m = p.lambda_m * phi_m2 + p.lambda_am * phi_a2
    return c_a, c_m


def _second_variation(params: PhysicalParams, phi_a: np.ndarray, phi_m: np.ndarray):
    """Local part of the stationary equations' Jacobian in chi = r*phi:
    (k_a, k_m, k_am).  Species s has the diagonal block H_s + k_s - mu_s,
    which is also the BdG L + Delta of that species, and k_am couples
    chi_a and chi_m."""
    p = params
    c_a, c_m = _mean_fields(p, phi_a, phi_m)
    k_a = c_a + 2.0 * p.lambda_a * phi_a * phi_a
    k_m = c_m + 2.0 * p.lambda_m * phi_m * phi_m
    k_am = 2.0 * (p.lambda_am * phi_m + p.alpha) * phi_a
    return k_a, k_m, k_am


def gaussian_ansatz(params: PhysicalParams, grid: RadialGrid) -> CondensateState:
    """Oscillator-ground-state Gaussians scaled to the particle numbers.

    Widths are the noninteracting values alpha_a^2 = M*omega_a/hbar and
    alpha_m^2 = 2M*omega_m/hbar.  The molecular Gaussian carries the sign
    -sign(alpha) (positive for alpha = 0), which makes the conversion
    energy 2*alpha*phi_a^2*phi_m negative and starts the flow on the
    lowest-energy branch.  Chemical potentials come from a single
    Rayleigh-quotient evaluation of the stationary equations, done in
    closed form (all integrals of Gaussians are analytic), so the
    noninteracting mu_a = (3/2)*hbar*omega_a holds to round-off rather
    than to grid accuracy.
    """
    p = params
    aa2 = p.mass * p.omega_a / p.hbar
    am2 = p.molecule_mass * p.omega_m / p.hbar

    def gauss(a2):
        return (a2 / np.pi) ** 0.75 * np.exp(-0.5 * a2 * grid.r**2)

    g_a = gauss(aa2)
    g_m = gauss(am2)
    phi_a = math.sqrt(p.n_a) * g_a
    root_m = (-1.0 if p.alpha > 0.0 else 1.0) * math.sqrt(p.n_m)
    phi_m = root_m * g_m

    # closed-form overlaps of unit-norm gaussians
    def quartic(a2):
        # integral g^4 d^3r
        return (a2 / (2.0 * np.pi)) ** 1.5

    def cross(a2, b2):
        # integral g_a^2 g_b^2 d^3r
        return (a2 * b2 / (np.pi * (a2 + b2))) ** 1.5

    def pump(a2, b2):
        # integral g_a^2 g_b d^3r
        return (a2 / np.pi) ** 1.5 * (b2 / np.pi) ** 0.75 * (np.pi / (a2 + 0.5 * b2)) ** 1.5

    ho_a = 1.5 * p.hbar * p.omega_a
    ho_m = 1.5 * p.hbar * p.omega_m
    mu_a = ho_a + p.lambda_a * p.n_a * quartic(aa2) + p.lambda_am * p.n_m * cross(aa2, am2)
    if p.n_m > 0:
        mu_a += 2.0 * p.alpha * root_m * pump(aa2, am2)
    mu_m = ho_m + p.epsilon + p.lambda_m * p.n_m * quartic(am2) \
        + p.lambda_am * p.n_a * cross(am2, aa2)
    if p.n_m > 0:
        mu_m += p.alpha * p.n_a / root_m * pump(aa2, am2)

    state = CondensateState(grid=grid, phi_a=phi_a, phi_m=phi_m, mu_a=mu_a, mu_m=mu_m)
    da, dm = gpe_defect(state, params, grid)
    state.residual = max(da, dm)
    state.energy = energy_functional(state, params, grid)
    return state


def gpe_defect(
    state: CondensateState, params: PhysicalParams, grid: RadialGrid
) -> tuple[float, float]:
    """Normalized stationarity defects of the two coupled equations.

    Each is ||(lhs - mu*phi)|| / (max(|mu|, hbar*omega) * ||phi||) with
    the quadrature L2 norm; a species with zero norm contributes 0 (its
    field is fixed by constraint and its equation is dropped).
    """
    return _defects(state, params, grid)[1]


def _defects(state: CondensateState, params: PhysicalParams, grid: RadialGrid):
    """((d_a, d_m), (defect_a, defect_m)): the left minus right sides of
    the stationary equations acting on chi = r*phi, and their normalized
    sizes as in `gpe_defect`."""
    p = params
    r = grid.r
    chi_a = r * state.phi_a
    chi_m = r * state.phi_m
    op_a, op_m = (_operator(s, p, grid) for s in (ATOM, MOLECULE))
    c_a, c_m = _mean_fields(p, state.phi_a, state.phi_m)

    d_a = op_a.apply(chi_a) + (c_a - state.mu_a) * chi_a
    d_m = op_m.apply(chi_m) + (c_m - state.mu_m) * chi_m + p.alpha * state.phi_a * chi_a

    four_pi_h = 4.0 * np.pi * grid.h

    def normalized(d, chi, omega, mu):
        nrm2 = four_pi_h * float(np.dot(chi, chi))
        if nrm2 <= 0.0:
            return 0.0
        scale = max(abs(mu), p.hbar * omega) * math.sqrt(nrm2)
        return math.sqrt(four_pi_h * float(np.dot(d, d))) / scale

    return (d_a, d_m), (
        normalized(d_a, chi_a, p.omega_a, state.mu_a),
        normalized(d_m, chi_m, p.omega_m, state.mu_m),
    )


def energy_functional(
    state: CondensateState, params: PhysicalParams, grid: RadialGrid
) -> float:
    """Mean-field energy whose constrained gradient is the stationary
    system; non-increasing along the imaginary-time flow.  The one-body
    part (kinetic + trap + offset) is 4*pi*h * chi.(H chi) per species."""
    p = params
    four_pi_h = 4.0 * np.pi * grid.h
    one_body = 0.0
    for species, phi in ((ATOM, state.phi_a), (MOLECULE, state.phi_m)):
        chi = grid.r * phi
        h_chi = _operator(species, p, grid).apply(chi)
        one_body += four_pi_h * float(np.dot(chi, h_chi))
    phi_a2 = state.phi_a**2
    phi_m2 = state.phi_m**2
    dens = (
        0.5 * p.lambda_a * phi_a2**2
        + 0.5 * p.lambda_m * phi_m2**2
        + p.lambda_am * phi_a2 * phi_m2
        + 2.0 * p.alpha * phi_a2 * state.phi_m
    )
    return one_body + grid.integrate(dens)


def solve_coupled_gpe(
    params: PhysicalParams,
    grid: RadialGrid,
    opts: SolverOptions | None = None,
    init: CondensateState | None = None,
) -> CondensateState:
    """Ground state: the imaginary-time flow, polished once by Newton at
    its first check below START_TOL.

    The polish is kept only if its defect is below opts.tol, no field's
    RMS width is at the grid floor and its energy is no higher than the
    flow start's; otherwise the flow goes on, and its first state below
    opts.tol is returned.

    Raises ConvergenceError if the defect stays above opts.tol after
    opts.max_iters steps, CollapseError if a field's RMS width falls to
    the grid floor (attractive collapse or unresolvable state).
    """
    opts = opts if opts is not None else SolverOptions()
    start = init if init is not None else gaussian_ansatz(params, grid)
    newton_tried = False
    for state in _flow(params, grid, opts, start):
        if state.residual < opts.tol:
            return state
        if state.residual < START_TOL and not newton_tried:
            newton_tried = True
            steps = min(NEWTON_STEPS, opts.max_iters - state.iterations)
            polished = _newton(params, grid, state, opts.tol, steps)
            if (
                polished is not None
                and _narrowest(polished, params, grid) >= COLLAPSE_WIDTH * grid.h
                and polished.energy <= state.energy + _energy_slack(state.energy)
            ):
                return polished
            log.debug("Newton polish rejected; relaxing by the flow alone")
    raise ConvergenceError(
        f"no convergence after {state.iterations} iterations "
        f"(residual {state.residual:.3e}, tol {opts.tol:g})",
        residual=state.residual, iterations=state.iterations,
    )


def _energy_slack(energy: float) -> float:
    """Round-off allowance when comparing energies of nearby states."""
    return 1e-10 * (1.0 + abs(energy))


def _narrowest(state: CondensateState, params: PhysicalParams, grid: RadialGrid) -> float:
    """Smallest RMS width among the populated species."""
    widths = [grid.rms_width(phi)
              for phi, n in ((state.phi_a, params.n_a), (state.phi_m, params.n_m)) if n > 0]
    return min(widths, default=math.inf)


def _flow(params, grid, opts, start):
    """Imaginary-time relaxation from `start` as a generator: every
    CHECK_EVERY steps and at opts.max_iters it checks the widths
    (CollapseError at the grid floor), sets residual, energy and
    iterations on one state object and yields it.  dt is halved when
    the energy rises between checks."""
    p = params
    r = grid.r
    four_pi_h = 4.0 * np.pi * grid.h
    op_a, op_m = (_operator(s, p, grid) for s in (ATOM, MOLECULE))

    chi_a = r * start.phi_a
    chi_m = r * start.phi_m
    mu_a = float(start.mu_a)
    mu_m = float(start.mu_m)
    dt = opts.dt

    state = CondensateState(
        grid=grid, phi_a=start.phi_a.copy(), phi_m=start.phi_m.copy(),
        mu_a=mu_a, mu_m=mu_m,
    )
    prev_energy = math.inf
    residual = math.inf
    width_floor = COLLAPSE_WIDTH * grid.h

    def step(op, chi, mu, pump, c, n):
        # shift clamp keeps every backward-Euler factor 1 + dt*(E - shift)
        # positive even when the mu estimate is far above the spectrum
        shift = min(mu, 0.4 / dt)
        if dt * (float(np.max(c)) - shift) > 0.5:
            # additive explicit factor would turn negative somewhere:
            # exponential form damps but never flips signs
            rhs = np.exp(-np.clip(dt * c, -50.0, 50.0)) * chi / dt
        else:
            # fixed point of this form is the exact discrete eigenstate
            rhs = chi / dt - c * chi
        if pump is not None:
            rhs = rhs - pump
        chi = solve_banded_shifted(op, 1.0 / dt - shift, rhs)
        norm = four_pi_h * float(np.dot(chi, chi))
        # the solve does not check finiteness: a non-finite step ends here
        if not math.isfinite(norm) or norm <= 0.0:
            raise ConvergenceError(
                f"iteration diverged at step {it} (dt={dt:g})",
                residual=residual, iterations=it,
            )
        mu = shift + math.log(n / norm) / (2.0 * dt)
        return chi * math.sqrt(n / norm), mu

    for it in range(1, opts.max_iters + 1):
        phi_a = chi_a / r
        phi_m = chi_m / r
        c_a, c_m = _mean_fields(p, phi_a, phi_m)
        pump_m = p.alpha * phi_a * chi_a if p.alpha != 0.0 else None

        if p.n_a > 0:
            chi_a, mu_a = step(op_a, chi_a, mu_a, None, c_a, p.n_a)
        if p.n_m > 0:
            chi_m, mu_m = step(op_m, chi_m, mu_m, pump_m, c_m, p.n_m)

        if it % CHECK_EVERY == 0 or it == opts.max_iters:
            state.phi_a = chi_a / r
            state.phi_m = chi_m / r
            state.mu_a = mu_a
            state.mu_m = mu_m
            width = _narrowest(state, p, grid)
            if width < width_floor:
                raise CollapseError(
                    f"RMS width {width:.3e} fell below the grid floor "
                    f"{width_floor:.3e}; attractive collapse or "
                    f"unresolvable state",
                    width=width, iterations=it,
                )
            residual = max(gpe_defect(state, p, grid))
            energy = energy_functional(state, p, grid)
            state.residual = residual
            state.energy = energy
            state.iterations = it
            yield state
            if energy > prev_energy + _energy_slack(prev_energy):
                dt = max(0.5 * dt, MIN_DT)
            prev_energy = energy


def _newton(params, grid, start, tol, steps):
    """Newton on the stationary equations with the norms as constraints,
    from `start` and for at most `steps` steps.

    The unknowns are chi_a, chi_m (interleaved a_0, m_0, a_1, ... so the
    symmetric Jacobian is a band with two diagonals each side) and mu_a,
    mu_m.  Each step solves the band once for the defect and the two border
    columns chi_a, chi_m, then a 2x2 Schur system for the mu updates
    keeps chi_s . delta chi_s = 0; chi is then rescaled to the exact norm.
    A species with zero norm keeps its field and mu.  Returns the state
    once its defect is below tol, or None (singular or non-finite step,
    or tol not reached).
    """
    p = params
    n = grid.n_points
    r = grid.r
    four_pi_h = 4.0 * np.pi * grid.h
    op_a, op_m = (_operator(s, p, grid) for s in (ATOM, MOLECULE))
    active = np.array([p.n_a > 0, p.n_m > 0])
    idx = np.flatnonzero(active)
    norms = (p.n_a / four_pi_h, p.n_m / four_pi_h)
    state = CondensateState(grid=grid, phi_a=start.phi_a, phi_m=start.phi_m,
                            mu_a=start.mu_a, mu_m=start.mu_m)
    ab = np.zeros((5, 2 * n))
    ab[0, 2::2] = ab[4, :-2:2] = op_a.offdiag if active[0] else 0.0
    ab[0, 3::2] = ab[4, 1:-2:2] = op_m.offdiag if active[1] else 0.0
    rhs = np.zeros((2 * n, 3))
    for k in range(steps + 1):
        (d_a, d_m), defects = _defects(state, p, grid)
        residual = max(defects)
        if residual < tol:
            state.residual = residual
            state.energy = energy_functional(state, p, grid)
            state.iterations = start.iterations + k
            return state
        if k == steps or not math.isfinite(residual):
            return None
        k_a, k_m, k_am = _second_variation(p, state.phi_a, state.phi_m)
        chi = (r * state.phi_a, r * state.phi_m)
        # an absent species' rows are the identity with zero right-hand side
        ab[2, 0::2] = op_a.diag + k_a - state.mu_a if active[0] else 1.0
        ab[2, 1::2] = op_m.diag + k_m - state.mu_m if active[1] else 1.0
        ab[1, 1::2] = ab[3, 0::2] = k_am if active.all() else 0.0
        rhs[0::2, 0] = -d_a if active[0] else 0.0
        rhs[1::2, 0] = -d_m if active[1] else 0.0
        rhs[0::2, 1] = chi[0]
        rhs[1::2, 2] = chi[1]
        try:
            x = scipy.linalg.solve_banded((2, 2), ab, rhs)
        except scipy.linalg.LinAlgError:
            return None
        x = (x[0::2], x[1::2])  # atom rows, molecule rows; columns -d, chi_a, chi_m
        schur = np.array([[chi[s] @ x[s][:, 1 + t] for t in idx] for s in idx])
        try:
            dmu = np.zeros(2)
            dmu[idx] = np.linalg.solve(schur, [-(chi[s] @ x[s][:, 0]) for s in idx])
        except np.linalg.LinAlgError:
            return None
        new = []
        for s in (0, 1):
            c = chi[s]
            if active[s]:
                c = c + x[s] @ np.r_[1.0, dmu]
                c = c * math.sqrt(norms[s] / float(np.dot(c, c)))
            new.append(c / r)
        state = CondensateState(grid=grid, phi_a=new[0], phi_m=new[1],
                                mu_a=state.mu_a + float(dmu[0]),
                                mu_m=state.mu_m + float(dmu[1]))
    return None
