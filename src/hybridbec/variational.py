"""Variational excitation energies of the trapped hybrid condensate.

Two-parameter Gaussian trial states for the lowest surface mode (0,1,0)
and breathing mode (1,0,0): a Bogoliubov amplitude v >= 0 and a scaling
frequency omega setting the trial-mode width.  The energy functionals
are

    E_010 = (1+2v^2)(5/4)(hw + hw_a^2/w)
          + lam   (1+2v^2) N_m w_m^{3/2} (2M/pi h)^{3/2} [w/(w+2w_m)]^{5/2}
          + [2*lam_a*(1+2v^2) - 2*lam_a*v*sqrt(1+v^2)]
                            N_a w_a^{3/2} (M/pi h)^{3/2}  [w/(w+w_a)]^{5/2}
          - 4 alpha v sqrt(1+v^2) [w/(w+w_m)]^{5/2} N_m^{1/2} w_m^{3/4} (2M/pi h)^{3/4}

and the (1,0,0) analogue with prefactor 7/4 and the bracket powers
replaced by the shape factor f(w, 2w_m), f(w, w_a), f(w, w_m),

    f(x, y) = (3/2) s^{3/2} - 3 s^{5/2} + (5/2) s^{7/2},   s = x/(x+y).

No chemical-potential subtraction is applied, so absolute values carry
a constant offset; differences between parameter sets (the quantity of
interest) are unaffected.

Minimization is a dense coarse scan over a fixed box followed by a
bounded Nelder-Mead polish; v = 0 is a legitimate symmetry point (the
couplings-zero minimum), but a minimizer pinned to the omega edges or
to v_max means the box failed to bracket and raises instead of
returning a truncated answer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import minimize

from .errors import BoundaryMinimumError, ConfigError, DomainError
from .params import PhysicalParams

MODE_SURFACE = "010"
MODE_BREATHING = "100"

#: polished minimizer closer than this (relative) to a box edge -> no bracket
EDGE_TOL = 1e-6


def shape_factor(x, y):
    """f(x, y) = (3/2)s^{3/2} - 3 s^{5/2} + (5/2)s^{7/2} with s = x/(x+y).

    Positive for all x, y > 0; tends to 1 as y -> 0 and to 0 as x -> 0.
    """
    s = x / (x + y)
    return s**1.5 * (1.5 + s * (-3.0 + 2.5 * s))


def _common_terms(v, omega, p: PhysicalParams):
    if (np.asarray(omega) <= 0.0).any():
        raise DomainError("trial frequency must be positive")
    hb, m = p.hbar, p.mass
    quad = 1.0 + 2.0 * v * v
    mix = v * np.sqrt(1.0 + v * v)
    osc = hb * omega + hb * p.omega_a**2 / omega
    # mode-shape-independent coupling strengths
    c_lam = p.lambda_am * p.n_m * p.omega_m**1.5 * (2.0 * m / (math.pi * hb)) ** 1.5
    c_lama = p.n_a * p.omega_a**1.5 * (m / (math.pi * hb)) ** 1.5
    c_alpha = (
        4.0 * p.alpha * math.sqrt(p.n_m) * p.omega_m**0.75
        * (2.0 * m / (math.pi * hb)) ** 0.75
    )
    return quad, mix, osc, c_lam, c_lama, c_alpha


def energy_010(v, omega, params: PhysicalParams):
    """Trial energy of the (0,1,0) surface mode; array-friendly in (v, omega)."""
    quad, mix, osc, c_lam, c_lama, c_alpha = _common_terms(v, omega, params)
    b_lam = (omega / (omega + 2.0 * params.omega_m)) ** 2.5
    b_lama = (omega / (omega + params.omega_a)) ** 2.5
    b_alpha = (omega / (omega + params.omega_m)) ** 2.5
    return (
        quad * 1.25 * osc
        + c_lam * quad * b_lam
        + 2.0 * params.lambda_a * (quad - mix) * c_lama * b_lama
        - c_alpha * mix * b_alpha
    )


def energy_100(v, omega, params: PhysicalParams):
    """Trial energy of the (1,0,0) breathing mode; array-friendly in (v, omega)."""
    quad, mix, osc, c_lam, c_lama, c_alpha = _common_terms(v, omega, params)
    return (
        quad * 1.75 * osc
        + c_lam * quad * shape_factor(omega, 2.0 * params.omega_m)
        + 2.0 * params.lambda_a * (quad - mix) * c_lama * shape_factor(omega, params.omega_a)
        - c_alpha * mix * shape_factor(omega, params.omega_m)
    )


_ENERGY = {MODE_SURFACE: energy_010, MODE_BREATHING: energy_100}


@dataclass(frozen=True)
class SearchBox:
    """Variational search domain; defaults bracket the analytic limits."""

    v_max: float = 5.0
    omega_lo: float = 0.2
    omega_hi: float = 5.0
    coarse: int = 64

    def __post_init__(self):
        if not (0.0 < self.omega_lo < self.omega_hi):
            raise ConfigError("need 0 < omega_lo < omega_hi")
        if self.v_max <= 0.0 or self.coarse < 2:
            raise ConfigError("need v_max > 0 and coarse >= 2")


@dataclass(frozen=True)
class VariationalResult:
    mode: str
    v_opt: float
    omega_opt: float
    energy: float
    n_atoms: float
    resonant: bool


def minimize_mode(
    mode: str,
    params: PhysicalParams,
    n_atoms: float,
    box: SearchBox | None = None,
) -> VariationalResult:
    """Global minimum of the mode functional over the search box.

    n_atoms replaces N_a; N_m follows it unless the configuration fixes
    a molecule number of its own (n_m > 0).  Coarse scan picks the basin,
    a bounded simplex polish finds the minimizer; deterministic.  A
    minimizer pinned against omega_lo, omega_hi or v_max raises
    BoundaryMinimumError carrying the pinned point (v = 0 is allowed).
    """
    fn = _ENERGY.get(mode)
    if fn is None:
        raise ConfigError(f"unknown mode '{mode}'; expected '010' or '100'")
    if n_atoms <= 0:
        raise ConfigError("n_atoms must be positive")
    box = box if box is not None else SearchBox()
    n_m = params.n_m if params.n_m > 0 else float(n_atoms)
    p = replace(params, n_a=float(n_atoms), n_m=n_m)

    vv, ww = np.meshgrid(
        np.linspace(0.0, box.v_max, box.coarse),
        np.linspace(box.omega_lo, box.omega_hi, box.coarse),
        indexing="ij",
    )
    coarse = fn(vv, ww, p)
    i, j = np.unravel_index(int(np.argmin(coarse)), coarse.shape)

    res = minimize(
        lambda x: fn(x[0], x[1], p),
        x0=[vv[i, j], ww[i, j]],
        method="Nelder-Mead",
        bounds=[(0.0, box.v_max), (box.omega_lo, box.omega_hi)],
        options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 4000},
    )
    v_opt, w_opt = float(res.x[0]), float(res.x[1])
    energy = float(res.fun)

    pinned = (
        v_opt > box.v_max * (1.0 - EDGE_TOL)
        or w_opt < box.omega_lo * (1.0 + EDGE_TOL)
        or w_opt > box.omega_hi * (1.0 - EDGE_TOL)
    )
    if pinned:
        raise BoundaryMinimumError(
            f"mode {mode} minimizer pinned to search boundary at "
            f"(v, omega) = ({v_opt:.6g}, {w_opt:.6g}); widen the box",
            v=v_opt, omega=w_opt, energy=energy,
        )
    return VariationalResult(
        mode=mode, v_opt=v_opt, omega_opt=w_opt, energy=energy,
        n_atoms=float(n_atoms), resonant=(p.alpha != 0.0 or p.lambda_am != 0.0),
    )


def sweep_spectrum(
    mode: str,
    params: PhysicalParams,
    n_list,
    box: SearchBox | None = None,
) -> list[VariationalResult]:
    """Paired resonant / decoupled minima over an ascending atom-number list.

    For each N the resonant parameter set and its alpha = lambda = 0
    counterpart are minimized; output is [res(N1), bare(N1), res(N2), ...]
    of length 2*len(n_list).
    """
    n_list = list(n_list)
    if not n_list:
        raise ConfigError("n_list must be nonempty")
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ConfigError("n_list must be strictly ascending")
    bare = replace(params, alpha=0.0, lambda_am=0.0)
    out: list[VariationalResult] = []
    for n in n_list:
        try:
            out.append(minimize_mode(mode, params, n, box))
            out.append(minimize_mode(mode, bare, n, box))
        except BoundaryMinimumError as exc:
            raise BoundaryMinimumError(
                f"sweep failed at N = {n:g}: {exc}",
                v=exc.v, omega=exc.omega, energy=exc.energy,
            ) from exc
    return out
