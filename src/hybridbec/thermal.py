"""Finite-temperature density profiles from condensate plus quasiparticles.

Diagonal of the one-body density matrix,

    rho(r) = rho_a(r) + 2*rho_m(r)
    rho_a(r) = |phi_a|^2 + sum_i [ |u_i|^2 F_i + |v_i|^2 (1 + F_i) ]

with F_i the Bose occupation of mode energy E_i, and the molecule block
analogous.  The "+1" attached to |v|^2 is the quantum depletion, present
at T = 0; it can be switched off to isolate the thermal cloud.  Each
mode enters weighted by its angular degeneracy.

Only positive-energy modes with |norm| = 1 enter the sums; that admits
a norm -1 mode of positive energy too, such as the block method's j = 0
"-" mirror mode on the "paper" ladder (a known defect, ROADMAP item 8).
Modes at or below zero energy (Goldstone remnants, mirror branches,
instability flags) and modes whose amplitudes are undefined (failed
coefficient discriminants of the closed-form method) are excluded and
counted; a mode that carries amplitudes with ||norm| - 1| > 1e-4 is a
hard error rather than an exclusion, since it signals a bug upstream.

A temperature sweep is one mode sum per species (density_profiles): the
scan, the amplitudes and the mode order are shared by every temperature,
and each profile is bit-identical to density_profile at its temperature.

No outer self-consistency loop: the thermal cloud is not fed back into
the condensate equations.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .bdg import ModeSet
from .errors import DomainError
from .gpe import CondensateState, _require_grid
from .grid import RadialGrid
from .params import PhysicalParams

log = logging.getLogger(__name__)

NORM_TOL = 1e-4


def bose_occupation(energy: float, beta: float) -> float:
    """1/(exp(beta*E) - 1); beta = inf gives 1/expm1(inf) = 0 for E > 0.

    Past beta*E ~ 709.78, where expm1 overflows, the occupation is
    exp(-beta*E), equal to 1/(exp(beta*E) - 1) in double precision there
    (subnormal, then 0.0).

    Raises DomainError for E <= 0: the occupation is undefined there and
    such modes must be excluded upstream.
    """
    if energy <= 0.0:
        raise DomainError(f"Bose occupation undefined for E = {energy} <= 0")
    try:
        return 1.0 / math.expm1(beta * energy)
    except OverflowError:
        return math.exp(-beta * energy)


@dataclass(eq=False)
class DensityProfile:
    """Radial densities at one temperature.

    rho_total is the atom-equivalent density rho_a + 2*rho_m (each
    molecule carries two atoms).  excluded_nonpositive and
    excluded_undefined count modes left out of the sums.
    """

    r: np.ndarray
    rho_a_cond: np.ndarray
    rho_a_thermal: np.ndarray
    rho_m_cond: np.ndarray
    rho_m_thermal: np.ndarray
    rho_total: np.ndarray
    temperature: float
    excluded_nonpositive: int = 0
    excluded_undefined: int = 0


def _thermal_sum(
    modeset: ModeSet, betas: Sequence[float], include_quantum_depletion: bool, n: int
) -> tuple[np.ndarray, int, int]:
    """Kahan-compensated mode sum at each inverse temperature of betas;
    order-independent to ~1e-12.

    Returns a (len(betas), n) array, row k the sum at betas[k], and the
    two exclusion counts.  The exclusion scan, the norm check and the
    u^2, v^2, occupation and degeneracy rows are built once; then each
    admitted mode, in mode order, adds its term at every temperature in
    one Kahan update of the whole array.  Each element sees the same
    operations as in a per-mode loop at its temperature, so every row is
    bit-identical to one, and no (modes x temperatures x n) array is
    formed.
    """
    admitted = []
    excluded_nonpos = 0
    excluded_undef = 0
    for mode in modeset.modes:
        if mode.energy <= 0.0 or mode.unstable:
            excluded_nonpos += 1
            continue
        if mode.u is None or mode.v is None:
            excluded_undef += 1
            continue
        if abs(abs(mode.norm) - 1.0) > NORM_TOL:
            raise DomainError(
                f"{modeset.species} mode j={mode.j} branch {mode.branch} has "
                f"norm {mode.norm}; |norm - 1| exceeds {NORM_TOL}"
            )
        admitted.append(mode)
    u2 = np.array([m.u for m in admitted]) ** 2
    v2 = np.array([m.v for m in admitted]) ** 2
    # occupations of each mode at every temperature, as a column
    occ = np.array([[bose_occupation(m.energy, b) for b in betas]
                    for m in admitted]).reshape(len(admitted), len(betas), 1)
    deg = np.array([m.degeneracy for m in admitted], dtype=float)
    if include_quantum_depletion:
        occ_v = 1.0 + occ
    else:
        uv2 = u2 + v2
    total = np.zeros((len(betas), n))
    comp = np.zeros((len(betas), n))
    for k in range(len(admitted)):
        if include_quantum_depletion:
            term = deg[k] * (u2[k] * occ[k] + v2[k] * occ_v[k])
        else:
            term = deg[k] * (uv2[k] * occ[k])
        # Kahan update
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total, excluded_nonpos, excluded_undef


def density_profiles(
    state: CondensateState,
    atoms: ModeSet,
    molecules: ModeSet,
    sweep: Sequence[PhysicalParams],
    grid: RadialGrid,
    include_quantum_depletion: bool = True,
) -> list[DensityProfile]:
    """density_profile at each parameter set of sweep, from one mode sum
    per species over all of their temperatures.

    Only each set's temperature is read; the profiles share the r and
    condensate arrays, which do not depend on it.
    """
    _require_grid(state, grid)
    betas = [p.beta for p in sweep]
    n = grid.n_points
    rho_a_th, ex_a, un_a = _thermal_sum(atoms, betas, include_quantum_depletion, n)
    rho_m_th, ex_m, un_m = _thermal_sum(molecules, betas, include_quantum_depletion, n)
    if ex_a + ex_m:
        log.info("excluded %d nonpositive/unstable modes from thermal sums", ex_a + ex_m)
    if un_a + un_m:
        log.info("excluded %d modes without amplitudes", un_a + un_m)
    r = grid.r.copy()
    rho_a_c = state.phi_a**2
    rho_m_c = state.phi_m**2
    rho_total = rho_a_c + rho_a_th + 2.0 * (rho_m_c + rho_m_th)
    return [
        DensityProfile(
            r=r,
            rho_a_cond=rho_a_c,
            rho_a_thermal=rho_a_th[k],
            rho_m_cond=rho_m_c,
            rho_m_thermal=rho_m_th[k],
            rho_total=rho_total[k],
            temperature=p.temperature,
            excluded_nonpositive=ex_a + ex_m,
            excluded_undefined=un_a + un_m,
        )
        for k, p in enumerate(sweep)
    ]


def density_profile(
    state: CondensateState,
    atoms: ModeSet,
    molecules: ModeSet,
    params: PhysicalParams,
    grid: RadialGrid,
    include_quantum_depletion: bool = True,
) -> DensityProfile:
    """Condensate, noncondensate and atom-equivalent total densities.

    The thermal block is Sum[|u|^2 F + |v|^2 (1+F)] over positive-energy
    modes with |norm| = 1 of each set; with include_quantum_depletion
    False the "+1" is dropped so the noncondensate part vanishes
    identically at T = 0.  This is density_profiles at the one
    temperature of params, bit for bit.
    """
    return density_profiles(
        state, atoms, molecules, [params], grid, include_quantum_depletion)[0]


def total_numbers(profile: DensityProfile, grid: RadialGrid) -> dict[str, float]:
    """Quadrature totals: atoms, molecules, and atom-equivalent count."""
    n_a = grid.integrate(profile.rho_a_cond + profile.rho_a_thermal)
    n_m = grid.integrate(profile.rho_m_cond + profile.rho_m_thermal)
    return {
        "n_a_total": n_a,
        "n_m_total": n_m,
        "n_atom_equivalent": n_a + 2.0 * n_m,
    }
