"""Ground state of the coupled atom/molecule condensate equations.

The stationary equations solved here, in natural units,

    {-hbar^2 grad^2/2M + V_a + lambda_a phi_a^2 + lambda phi_m^2} phi_a
        + 2 alpha phi_m phi_a = mu_a phi_a
    {-hbar^2 grad^2/4M + V_m + eps + lambda_m phi_m^2 + lambda phi_a^2} phi_m
        + alpha phi_a^2 = mu_m phi_m

are the constrained gradient of the mean-field energy functional at fixed
norms integral(phi^2 d^3r) = N_a, N_m.  The factor-2 asymmetry between the
conversion terms reflects pair conversion: two atoms per molecule.

Solver: imaginary-time propagation, implicit in the kinetic + trap part
(backward Euler, banded solve) and explicit in the nonlinear and
conversion terms, with per-step renormalization and a chemical-potential
estimate updated from the log-derivative of the norm decay.  When the
explicit factor 1 - dt*(c - shift) could turn negative (the Gaussian
start at large N*lambda is orders of magnitude denser than the final
cloud), that step instead applies the exponential integrating factor
exp(-dt*c), which damps but never flips signs; near the solution the
additive form is stable and is used, and its fixed point is the exact
discrete eigenstate, so residuals reach 1e-8 and below.  The mu shift
inside the implicit solve is clamped to keep the backward-Euler factors
positive at any estimate.

Sign convention: fields are real.  For alpha > 0 the energy term
2*alpha*phi_a^2*phi_m is minimized by phi_m <= 0 (phi_m >= 0 for
alpha < 0).  The flow does not find that branch by itself: started with
the wrong molecular sign it can stop on a higher stationary state.  The
default start (`gaussian_ansatz`) therefore seeds phi_m with the sign
-sign(alpha); the solver then reports the natural sign rather than
forcing phi_m >= 0.  (The gauge phi_m -> -phi_m, alpha -> -alpha is
physically equivalent.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CollapseError, ConfigError, ConvergenceError, require_count, require_positive,
)
from .grid import RadialGrid, RadialOperator, harmonic_potential, solve_banded_shifted
from .params import PhysicalParams

ATOM = "atom"
MOLECULE = "molecule"


@dataclass(frozen=True)
class SolverOptions:
    """Imaginary-time iteration controls.

    tol            convergence threshold on the normalized defect
    max_iters      hard iteration cap
    dt             initial step, units of 1/omega_a; halved when the
                   energy rises between checks, never re-raised
    check_every    steps between defect/energy/collapse checks
    min_dt         floor for the back-off
    collapse_width RMS width below collapse_width*h triggers CollapseError

    tol, dt and min_dt must be positive numbers and max_iters, check_every
    integers >= 1; anything else raises ConfigError.
    """

    tol: float = 1e-8
    max_iters: int = 20000
    dt: float = 1e-3
    check_every: int = 25
    min_dt: float = 1e-6
    collapse_width: float = 4.0

    def __post_init__(self):
        for name in ("tol", "dt", "min_dt"):
            require_positive(name, getattr(self, name))
        for name in ("max_iters", "check_every"):
            count = require_count(name, getattr(self, name), 1)
            object.__setattr__(self, name, count)


@dataclass(eq=False)
class CondensateState:
    """Converged (or trial) condensate fields with chemical potentials.

    phi_a, phi_m are real radial amplitudes with integral(phi^2 d^3r)
    equal to the particle numbers.  residual is the larger of the two
    normalized stationarity defects (see `gpe_defect`).
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

    return (
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
    """Imaginary-time relaxation to the coupled ground state.

    Raises ConvergenceError if the defect stays above opts.tol after
    opts.max_iters steps, CollapseError if a field's RMS width falls to
    the grid floor (attractive collapse or unresolvable state).
    """
    p = params
    opts = opts if opts is not None else SolverOptions()
    start = init if init is not None else gaussian_ansatz(p, grid)

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
    width_floor = opts.collapse_width * grid.h

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

        if it % opts.check_every == 0 or it == opts.max_iters:
            state.phi_a = chi_a / r
            state.phi_m = chi_m / r
            state.mu_a = mu_a
            state.mu_m = mu_m
            for phi, n in ((state.phi_a, p.n_a), (state.phi_m, p.n_m)):
                if n > 0:
                    width = grid.rms_width(phi)
                    if width < width_floor:
                        raise CollapseError(
                            f"RMS width {width:.3e} fell below the grid floor "
                            f"{width_floor:.3e}; attractive collapse or "
                            f"unresolvable state",
                            width=width, iterations=it,
                        )
            da, dm = gpe_defect(state, p, grid)
            residual = max(da, dm)
            energy = energy_functional(state, p, grid)
            if residual < opts.tol:
                state.residual = residual
                state.energy = energy
                state.iterations = it
                return state
            if energy > prev_energy + 1e-10 * (1.0 + abs(prev_energy)):
                dt = max(0.5 * dt, opts.min_dt)
            prev_energy = energy

    raise ConvergenceError(
        f"no convergence after {opts.max_iters} iterations "
        f"(residual {residual:.3e}, tol {opts.tol:g})",
        residual=residual, iterations=opts.max_iters,
    )
