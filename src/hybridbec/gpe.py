"""Ground state of the coupled atom/molecule condensate equations.

The stationary equations solved here, in natural units,

    {-hbar^2 grad^2/2M + V_a + lambda_a phi_a^2 + lambda phi_m^2} phi_a
        + 2 alpha phi_m phi_a = mu_a phi_a
    {-hbar^2 grad^2/4M + V_m + eps + lambda_m phi_m^2 + lambda phi_a^2} phi_m
        + alpha phi_a^2 = mu_m phi_m

are the constrained gradient of the mean-field energy functional at fixed
norms integral(phi^2 d^3r) = N_a, N_m.  The factor-2 asymmetry between the
conversion terms reflects pair conversion: two atoms per molecule.

Solver: energy descent, the preconditioned gradient on the energy at
fixed norms (Antoine, Levitt & Tang, J. Comput. Phys. 343, 92 (2017)):
one tridiagonal solve per species and step and an Armijo line search,
with no time step to tune.  After every step the state is checked, and
while the last defect is below START_TOL the next step first tries the
Newton step of the stationary equations bordered by the two norms as its
search direction.  Newton alone converges to whatever stationary state
is near; here the line search shortens a Newton step until it lowers the
energy.  The descent returns the first state whose defect is below the
tolerance, or raises.  Each step computes each piece once and only when
it uses it: the preconditioned gradient only for a step that takes it,
the H*chi and phi^2 of the fields from the line search that accepted
them.  A function given a state and a grid raises ConfigError unless it
is the state's grid.

Sign convention: fields are real.  For alpha > 0 the energy term
2*alpha*phi_a^2*phi_m is minimized by phi_m <= 0 (phi_m >= 0 for
alpha < 0).  The descent does not find that branch by itself: started
with the wrong molecular sign it can stop on a higher stationary state,
a saddle that `negative_phase_modes` flags.  The default start
(`gaussian_ansatz`) therefore seeds phi_m with the sign -sign(alpha).
(The gauge phi_m -> -phi_m, alpha -> -alpha is physically equivalent.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (
    CollapseError, ConfigError, ConvergenceError, require_count, require_positive,
)
from .grid import (
    RadialGrid, RadialOperator, band_eigenvalues, harmonic_potential, solve_banded_shifted,
)
from .params import PhysicalParams

ATOM = "atom"
MOLECULE = "molecule"

#: defect below which the descent tries a Newton step
START_TOL = 1e-2
#: share of the first-order energy decrease a descent step must achieve
ARMIJO = 1e-4
#: an RMS width below COLLAPSE_WIDTH*h raises CollapseError
COLLAPSE_WIDTH = 4.0

#: `negative_phase_modes` counts B eigenvalues below -PHASE_TOL*hbar*omega_a
PHASE_TOL = 1e-6
_GBSV, _PBTRF = scipy.linalg.get_lapack_funcs(("gbsv", "pbtrf"), dtype=np.float64)


@dataclass(frozen=True)
class SolverOptions:
    """Ground-state solver controls.

    tol            convergence threshold on the normalized defect
    max_iters      cap on descent steps, Newton steps included, all
                   counted in the state's `iterations`
    dt             accepted for compatibility and has no effect: the
                   descent takes its steps from a line search

    tol and dt must be positive numbers and max_iters an integer >= 1;
    anything else raises ConfigError.  The collapse floor is the module
    constant COLLAPSE_WIDTH.
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
    descent steps, Newton steps included.
    """

    grid: RadialGrid
    phi_a: np.ndarray
    phi_m: np.ndarray
    mu_a: float
    mu_m: float
    residual: float = math.nan
    energy: float = math.nan
    iterations: int = 0


def _require_grid(state: CondensateState, grid: RadialGrid) -> None:
    """ConfigError unless grid has state.grid's r_max and n_points."""
    own = state.grid
    if (grid.r_max, grid.n_points) != (own.r_max, own.n_points):
        raise ConfigError(
            f"grid (r_max={grid.r_max!r}, n_points={grid.n_points}) is not the state's "
            f"grid (r_max={own.r_max!r}, n_points={own.n_points})")


def _one_body(species: str, params: PhysicalParams) -> tuple[float, float, float]:
    """(mass, trap frequency, energy offset) of the species' one-body
    Hamiltonian -hbar^2 grad^2/2m + m*omega^2*r^2/2 + offset; the
    molecular offset is the detuning eps."""
    if species == ATOM:
        return params.mass, params.omega_a, 0.0
    if species == MOLECULE:
        return params.molecule_mass, params.omega_m, params.epsilon
    raise ConfigError(f"unknown species '{species}'")


def _trap(species: str, params: PhysicalParams, grid: RadialGrid) -> np.ndarray:
    """`harmonic_potential` of the species, whose ConfigError names the
    config keys: params.omega_a or params.omega_m, and params.mass."""
    mass, omega, _ = _one_body(species, params)
    try:
        return harmonic_potential(grid, mass, omega)
    except ConfigError:
        key, of = ("omega_a", "params.mass") if species == ATOM else (
            "omega_m", "the molecule's mass 2 * params.mass")
        raise ConfigError(f"{species} trap term mass*omega^2*r^2/2 at r_max = {grid.r_max!r} "
                          f"is not a finite float for params.{key} = {omega!r} and {of} = "
                          f"{mass!r}") from None


def _operator(species: str, params: PhysicalParams, grid: RadialGrid, l=0):
    """The species' one-body operator in angular channel l."""
    mass, _, offset = _one_body(species, params)
    v = _trap(species, params, grid) + offset
    return RadialOperator.build(grid, mass, v, hbar=params.hbar, l=l)


def _mean_fields(params: PhysicalParams, phi_a: np.ndarray, phi_m: np.ndarray):
    """Local potentials c_a, c_m multiplying phi_a, phi_m in the stationary
    equations; the molecular source alpha*phi_a^2 is not included."""
    p = params
    phi_a2 = phi_a * phi_a
    phi_m2 = phi_m * phi_m
    c_a = p.lambda_a * phi_a2 + p.lambda_am * phi_m2 + 2.0 * p.alpha * phi_m
    c_m = p.lambda_m * phi_m2 + p.lambda_am * phi_a2
    return c_a, c_m


def _second_variation(params: PhysicalParams, phi_a: np.ndarray, phi_m: np.ndarray,
                      c=None, phase=True):
    """Local terms (k_a, k_m, k_am, delta_a, delta_m), in chi = r*phi, of
    the energy's second variation about real fields psi = phi + x + i*y:
    its amplitude block A on x has A_s = H_s + k_s - mu_s on species s and
    the coupling k_am, its phase block B on y has B_s = A_s - 2*delta_s
    and the coupling 2*alpha*phi_a (Timmermans et al., Phys. Rep. 315, 199
    (1999)).  A is the Jacobian of the stationary equations; B (phi_a,
    2*phi_m) = 0 at a stationary state (the Goldstone mode); A_s and B_s
    are the BdG L + Delta and L - Delta.  c, the mean fields of
    `_gradients` at these fields, spares recomputing them; a None mean
    field gives None for the species' terms and k_am.  phase=False
    leaves out delta_a and delta_m (None), which A does not read."""
    p = params
    c_a, c_m = _mean_fields(p, phi_a, phi_m) if c is None else c
    k_a = None if c_a is None else c_a + 2.0 * p.lambda_a * phi_a * phi_a
    k_m = None if c_m is None else c_m + 2.0 * p.lambda_m * phi_m * phi_m
    k_am = None if k_a is None or k_m is None else \
        2.0 * (p.lambda_am * phi_m + p.alpha) * phi_a
    if not phase:
        return k_a, k_m, k_am, None, None
    delta_a = None if c_a is None else p.lambda_a * phi_a**2 + 2.0 * p.alpha * phi_m
    delta_m = None if c_m is None else p.lambda_m * phi_m**2
    return k_a, k_m, k_am, delta_a, delta_m


def _block_diagonals(op: RadialOperator, k, delta, mu: float):
    """Diagonals (A_s, B_s) of one species' blocks, op its one-body
    operator in the channel wanted; A_s is summed in Newton's order."""
    a = op.diag + k - mu
    return a, a - 2.0 * delta


def _band(params, ops, phi, mu, species, block="A", c=None):
    """Block "A" or "B" of the species in `species` in the lower band
    storage of pbtrf and sbevx: one species' own tridiagonal block (2
    rows of n), or both with their grid points interleaved (a_0, m_0,
    a_1, ...), a band with two diagonals each side (3 rows of 2n)."""
    k_a, k_m, k_am, *delta = _second_variation(params, phi[0], phi[1], c)
    phase = block == "B"
    stride = len(species)
    band = np.zeros((stride + 1, stride * len(phi[0])))
    for i, s in enumerate(species):
        band[0, i::stride] = _block_diagonals(ops[s], (k_a, k_m)[s], delta[s], mu[s])[phase]
        band[stride, i:-stride:stride] = ops[s].offdiag
    if stride == 2:
        band[1, 0::2] = 2.0 * params.alpha * phi[0] if phase else k_am
    return band


def _general_band(band: np.ndarray) -> np.ndarray:
    """`_band`'s storage turned into the general band storage of gbsv and
    gbtrf for kl = ku = 2: seven rows, the top two for the fill-in of
    partial pivoting, in Fortran order so either routine works in place."""
    full = np.zeros((7, band.shape[1]), order="F")
    full[2, 2:], full[3, 1:] = band[2, :-2], band[1, :-1]
    full[4:] = band
    return full


def negative_phase_modes(state: CondensateState, params: PhysicalParams,
                         grid: RadialGrid) -> int:
    """Eigenvalues of the phase block B below -PHASE_TOL*hbar*omega_a over
    the populated species: 0 on a ground state, whose Goldstone zero
    stays above that, and 2 on the phi_m >= 0 branch that an alpha > 0
    descent reaches from a start of that sign.  An empty species, which
    keeps the start's mu, is left out: a one-species state is counted on
    its own n-row block.  One pbtrf of B + PHASE_TOL*hbar*omega_a shows
    a count of 0; sbevx counts only when it fails."""
    _require_grid(state, grid)
    p = params
    populated = [s for s, n in enumerate((p.n_a, p.n_m)) if n > 0.0]
    ops = [_operator(name, p, grid) if s in populated else None
           for s, name in enumerate((ATOM, MOLECULE))]
    band = _band(p, ops, (state.phi_a, state.phi_m), (state.mu_a, state.mu_m), populated, "B")
    tol = PHASE_TOL * p.hbar * p.omega_a
    shifted = band.copy(order="F")  # the order pbtrf factors in place
    shifted[0] += tol
    if not _PBTRF(shifted, lower=1, overwrite_ab=True)[1]:
        return 0
    # below every eigenvalue
    floor = -1.0 - np.abs(band).max(axis=1) @ (1.0, 2.0, 2.0)[:len(band)]
    return len(band_eigenvalues(band, False, floor, -tol))


def gaussian_ansatz(params: PhysicalParams, grid: RadialGrid) -> CondensateState:
    """Oscillator-ground-state Gaussians scaled to the particle numbers.

    Widths are the noninteracting values alpha_a^2 = M*omega_a/hbar and
    alpha_m^2 = 2M*omega_m/hbar.  The molecular Gaussian carries the sign
    -sign(alpha) (positive for alpha = 0), which makes the conversion
    energy 2*alpha*phi_a^2*phi_m negative and starts the descent on the
    lowest-energy branch.  Chemical potentials come from a single
    Rayleigh-quotient evaluation of the stationary equations, done in
    closed form (all integrals of Gaussians are analytic), so the
    noninteracting mu_a = (3/2)*hbar*omega_a holds to round-off rather
    than to grid accuracy.
    """
    state = _gaussian_start(params, grid)
    state.residual = max(gpe_defect(state, params, grid))
    state.energy = energy_functional(state, params, grid)
    return state


def _gaussian_start(params: PhysicalParams, grid: RadialGrid) -> CondensateState:
    """`gaussian_ansatz` without its residual and energy, which the
    descent does not read: the fields and chemical potentials alone."""
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

    return CondensateState(grid=grid, phi_a=phi_a, phi_m=phi_m, mu_a=mu_a, mu_m=mu_m)


def gpe_defect(
    state: CondensateState, params: PhysicalParams, grid: RadialGrid
) -> tuple[float, float]:
    """Normalized stationarity defects of the two coupled equations.

    Each is ||(lhs - mu*phi)|| / (max(|mu|, hbar*omega) * ||phi||) with
    the quadrature L2 norm; a species with zero norm contributes 0 (its
    field is fixed by constraint and its equation is dropped).
    """
    _require_grid(state, grid)
    p = params
    phi = (state.phi_a, state.phi_m)
    chi = (grid.r * phi[0], grid.r * phi[1])
    g, _ = _gradients(p, [_operator(s, p, grid) for s in (ATOM, MOLECULE)], phi, chi)
    norms = [float(np.dot(f, f)) for f in chi]
    return (
        _defect_size(g[0] - state.mu_a * chi[0], norms[0], state.mu_a, p.hbar * p.omega_a),
        _defect_size(g[1] - state.mu_m * chi[1], norms[1], state.mu_m, p.hbar * p.omega_m),
    )


def _gradients(params, ops, phi, chi, parts=None):
    """((g_a, g_m), (c_a, c_m)): half the energy gradients in chi = r*phi,
    (H_s + c_s) chi_s plus the source alpha*phi_a*chi_a, and c_s.  A None
    operator marks an empty species, its field all zeros: it gets None
    for both and costs no arithmetic, the other's mean field is
    lambda_s*phi_s^2 and an empty atom field drops the source.  parts,
    the dict `_energy` filled for these fields, gives H_s chi_s and
    phi_s^2 of the species it holds; the others' are computed."""
    p = params
    known = {s: parts[s] if parts and s in parts else (op.apply(chi[s]), phi[s] * phi[s])
             for s, op in enumerate(ops) if op is not None}
    if len(known) == 2:
        c_a, c_m = _mean_fields(p, phi[0], phi[1])
        g_m = known[1][0] + c_m * chi[1] + p.alpha * phi[0] * chi[0]
    else:
        c_a = p.lambda_a * known[0][1] if 0 in known else None
        c_m = p.lambda_m * known[1][1] if 1 in known else None
        g_m = None if c_m is None else known[1][0] + c_m * chi[1]
    g_a = None if c_a is None else known[0][0] + c_a * chi[0]
    return (g_a, g_m), (c_a, c_m)


def _defect_size(d, nrm2, mu, scale):
    """||d|| / (max(|mu|, scale) * ||chi||) for nrm2 = chi.chi, 0 for
    chi = 0."""
    if nrm2 <= 0.0:
        return 0.0
    return math.sqrt(float(np.dot(d, d)) / nrm2) / max(abs(mu), scale)


def energy_functional(
    state: CondensateState, params: PhysicalParams, grid: RadialGrid
) -> float:
    """Mean-field energy whose constrained gradient is the stationary
    system; no descent step raises it by more than `_energy_slack`."""
    _require_grid(state, grid)
    ops = [_operator(s, params, grid) for s in (ATOM, MOLECULE)]
    phi = (state.phi_a, state.phi_m)
    return _energy(params, grid, ops, phi, [grid.r * f for f in phi])


def _energy(params, grid, ops, phi, chi, parts=None):
    """`energy_functional` of phi = (phi_a, phi_m) and chi = r*phi; the
    one-body part (kinetic + trap + offset) is 4*pi*h * chi.(H chi).  A
    species with a None operator is empty, its field all zeros, and its
    terms are left out.  parts, when given, is a dict that receives
    (H_s chi_s, phi_s^2) of each populated species s, for the descent
    step at these fields to reuse."""
    p = params
    four_pi_h = 4.0 * np.pi * grid.h
    one_body = 0.0
    populated = [s for s in (0, 1) if ops[s] is not None]
    hchi = [None if op is None else op.apply(f) for op, f in zip(ops, chi)]
    for s in populated:
        one_body += four_pi_h * float(np.dot(chi[s], hchi[s]))
    squares = [None if op is None else f**2 for op, f in zip(ops, phi)]
    if parts is not None:
        parts.update((s, (hchi[s], squares[s])) for s in populated)
    if len(populated) == 2:
        phi_a2, phi_m2 = squares
        dens = (
            0.5 * p.lambda_a * phi_a2**2
            + 0.5 * p.lambda_m * phi_m2**2
            + p.lambda_am * phi_a2 * phi_m2
            + 2.0 * p.alpha * phi_a2 * phi[1]
        )
    elif populated:
        s, = populated
        dens = 0.5 * (p.lambda_a, p.lambda_m)[s] * squares[s]**2
    else:
        return one_body
    return one_body + grid.integrate(dens)


def _energy_slack(energy: float) -> float:
    """Round-off allowance when comparing energies of nearby states."""
    return 1e-10 * (1.0 + abs(energy))


def solve_coupled_gpe(
    params: PhysicalParams,
    grid: RadialGrid,
    opts: SolverOptions | None = None,
    init: CondensateState | None = None,
) -> CondensateState:
    """Ground state by energy descent at fixed norms from `init` (on
    `grid`) or the `gaussian_ansatz` fields.  After every step it checks
    the state: CollapseError if a populated field's RMS width is at the
    grid floor (attractive collapse or unresolvable state), else the
    state if its defect is below opts.tol, else ConvergenceError at
    opts.max_iters.

    A populated species has the residual r = g - mu chi (g from
    `_gradients`, mu its Rayleigh quotient) and the preconditioner
    P = (H - e + max(c, 0) + max(|mu - e|, hbar*omega))^-1, positive
    definite for any mu (e the one-body offset).  z = P r - (chi.P r /
    chi.P chi) P chi is tangent to the norm.  When the last check found
    the defect below START_TOL the direction is the tangent Newton step
    of `_newton_step`; otherwise, or when the bordered system is singular
    or the Newton step does not descend, it is -z.  z is solved for only
    then: not for a Newton step that descends, nor on the pass that
    returns or raises.  The step length halves, from 1 for a Newton step
    and from min(1, 2*previous length) otherwise, until the renormalized
    trial meets the Armijo condition or is within `_energy_slack` of the
    energy, which keeps the descent going once energy differences reach
    round-off: no step, Newton or not, raises the energy by more.  The
    H chi and phi^2 that `_energy` computed for the accepted trial serve
    the next step's gradients and collapse width, and one chi.chi serves
    both mu and the defect.  A species with zero norm keeps its field and
    mu; when that field is all zeros, as the default start makes it, the
    species gets no operator, and a None operator in `_gradients` and
    `_energy` leaves it out at no arithmetic per step.
    Both species' one-body terms must be finite on the grid, populated or
    not, else ConfigError before the first step.
    """
    opts = opts if opts is not None else SolverOptions()
    start = init if init is not None else _gaussian_start(params, grid)
    _require_grid(start, grid)
    p = params
    r = grid.r
    four_pi_h = 4.0 * np.pi * grid.h
    offsets = [_one_body(s, p)[2] for s in (ATOM, MOLECULE)]
    scales = (p.hbar * p.omega_a, p.hbar * p.omega_m)
    norms = (p.n_a / four_pi_h, p.n_m / four_pi_h)
    active = [s for s in (0, 1) if norms[s] > 0.0]

    phi = [start.phi_a, start.phi_m]
    chi = [r * phi[0], r * phi[1]]
    mu = [float(start.mu_a), float(start.mu_m)]
    # an inactive species keeps chi, so its trial field is always the same
    kept = [None if s in active else chi[s] / r for s in (0, 1)]
    # both one-body terms are checked, so every grid command rejects the
    # same traps; an empty species' operator is then dropped
    ops = [_operator(name, p, grid) for name in (ATOM, MOLECULE)]
    ops = [op if s in active or phi[s].any() else None for s, op in enumerate(ops)]
    # the preconditioners' off-diagonals, the same at every step
    off = {s: np.full(grid.n_points - 1, ops[s].offdiag) for s in active}
    parts = {}  # H chi and phi^2 of the present fields, from _energy
    energy = _energy(p, grid, ops, phi, chi, parts)
    residual, width_floor = math.inf, COLLAPSE_WIDTH * grid.h
    res, nrm2, tau = {}, {}, 0.5

    for it in range(opts.max_iters + 1):
        g, c = _gradients(p, ops, phi, chi, parts)
        for s in active:
            nrm2[s] = float(np.dot(chi[s], chi[s]))
            mu[s] = float(np.dot(chi[s], g[s])) / nrm2[s]
            res[s] = g[s] - mu[s] * chi[s]

        if it:
            residual = max([_defect_size(res[s], nrm2[s], mu[s], scales[s]) for s in active],
                           default=0.0)
            width = min([grid.rms_width(phi[s], parts[s][1]) for s in active],
                        default=math.inf)
            if width < width_floor:
                raise CollapseError(f"RMS width {width:.3e} fell below the grid floor "
                                    f"{width_floor:.3e}; attractive collapse or "
                                    f"unresolvable state", width=width, iterations=it)
            if residual < opts.tol:
                return CondensateState(grid=grid, phi_a=phi[0], phi_m=phi[1], mu_a=mu[0],
                                       mu_m=mu[1], residual=residual, energy=energy,
                                       iterations=it)
            if it == opts.max_iters:
                raise ConvergenceError(f"no convergence after {it} iterations (residual "
                                       f"{residual:.3e}, tol {opts.tol:g})",
                                       residual=residual, iterations=it)

        step = (_newton_step(p, grid, ops, phi, chi, c, mu, res, active)
                if residual < START_TOL else None)
        slope = math.nan if step is None else (
            2.0 * four_pi_h * sum(float(np.dot(res[s], step[s])) for s in active))
        if slope < 0.0:
            d, tau = step, 1.0
        else:
            z = {}
            for s in active:
                precond = RadialOperator(ops[s].diag + np.maximum(c[s], 0.0), ops[s].offdiag)
                shift = max(abs(mu[s] - offsets[s]), scales[s]) - offsets[s]
                # the columns res and chi, as a transposed view (no column_stack copy)
                x = solve_banded_shifted(precond, shift, np.array((res[s], chi[s])).T, off[s])
                z[s] = x[:, 0] - (np.dot(chi[s], x[:, 0]) / np.dot(chi[s], x[:, 1])) * x[:, 1]
            d = {s: -z[s] for s in active}
            slope = -2.0 * four_pi_h * sum(float(np.dot(res[s], z[s])) for s in active)
            tau = min(1.0, 2.0 * tau)

        slack = _energy_slack(energy)
        for _ in range(64 if math.isfinite(slope) else 0):
            trial_chi = list(chi)
            for s in active:
                t = chi[s] + tau * d[s]
                trial_chi[s] = t * math.sqrt(norms[s] / float(np.dot(t, t)))
            trial_phi = [t / r if k is None else k for t, k in zip(trial_chi, kept)]
            trial_parts = {}
            trial = _energy(p, grid, ops, trial_phi, trial_chi, trial_parts)
            if trial <= energy + ARMIJO * tau * slope + slack:
                break
            tau *= 0.5
        else:
            # the solves do not check finiteness: non-finite steps end here
            raise ConvergenceError(
                f"iteration diverged at step {it + 1}",
                residual=residual, iterations=it + 1,
            )
        chi, phi, energy, parts = trial_chi, trial_phi, trial, trial_parts


def _newton_step(params, grid, ops, phi, chi, c, mu, res, active):
    """Newton step {species: d} on the stationary equations with the
    norms as constraints, at mean fields c (from `_gradients`), chemical
    potentials mu and residuals res, or None when the bordered system is
    singular.  The Jacobian is block A of `_second_variation`, which
    reads only its k terms, with the species' grid points interleaved as
    in `_band`, built straight into gbsv's general band storage: the
    diagonal in row 4, the coupling k_am one row off it, each species'
    off-diagonal two rows off and rows 0-1 for the fill-in; an absent
    species gets identity rows with zero right-hand side.  One banded
    solve for -res and the border columns chi_a, chi_m, then a 2x2 Schur
    system for the mu updates keeps chi_s . d_s = 0.  gbsv is called as
    solve_banded((2, 2), ...) calls it, so the step is the same to the
    bit without the checks and copies around the call."""
    n = grid.n_points
    k = _second_variation(params, phi[0], phi[1], c, phase=False)
    ab = np.zeros((7, 2 * n), order="F")
    ab[4] = 1.0
    for s in active:
        ab[4, s::2] = ops[s].diag + k[s] - mu[s]
        ab[2, 2 + s::2] = ab[6, s:-2:2] = ops[s].offdiag
    if len(active) == 2:
        ab[3, 1::2] = ab[5, 0::2] = k[2]
    # Fortran order, as gbsv takes its arrays, so neither is copied
    rhs = np.zeros((2 * n, 3), order="F")
    for s in active:
        rhs[s::2, 0] = -res[s]
        rhs[s::2, 1 + s] = chi[s]
    _, _, x, info = _GBSV(2, 2, ab, rhs, overwrite_ab=True, overwrite_b=True)
    if info > 0:
        return None
    x = (x[0::2], x[1::2])  # atom rows, molecule rows; columns -res, chi_a, chi_m
    coef = np.array([1.0, 0.0, 0.0])  # the -res column, then the mu updates
    try:
        coef[[1 + s for s in active]] = np.linalg.solve(
            [[chi[s] @ x[s][:, 1 + t] for t in active] for s in active],
            [-(chi[s] @ x[s][:, 0]) for s in active])
    except np.linalg.LinAlgError:
        return None
    return {s: x[s] @ coef for s in active}
