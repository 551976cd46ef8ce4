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

No chemical-potential subtraction is applied: each minimum is an
excitation energy plus mu_a of its own parameter set.  mu_a differs
between parameter sets, so a resonant-minus-decoupled difference of
minima is the excitation shift plus the mu_a shift, not the excitation
shift alone.  Example (omega_m = 1.4, lambda_a = lambda = 0.1,
alpha = 0.5, N_a = N_m = 100, grid ground states): mu_a is 0.668
resonant against 1.974 decoupled; the (0,1,0) difference of minima,
+0.057, minus that mu_a difference gives 1.363, and the grid oracle's
surface-mode shift is 1.355.

Minimization is a dense coarse scan over a fixed box followed by a
bounded Nelder-Mead polish; v = 0 is a legitimate symmetry point (the
couplings-zero minimum), but a minimizer pinned to the omega edges or
to v_max means the box failed to bracket and raises instead of
returning a truncated answer, as does a functional that overflows in
the box.  Each call builds its mode's energy once with the parameter
constants hoisted; the scan evaluates it on numpy arrays and the polish
on Python floats.  Every factor of the energy depends on v alone or on
omega alone, so the scan passes open grids (a column of v, a row of
omega): the v and omega factors run on `coarse` values each and only
the final products and sums fill the coarse x coarse table, through the
same IEEE operations per cell as on a full meshgrid.  The polish is a
two-variable port of scipy's bounded Nelder-Mead with identical
iterates, so its minima are scipy's to the last bit without scipy's
per-step array overhead on a 3x2 simplex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
# unused; perfbench/run.py --trace 1 needs its -X importtime line (ROADMAP item 9)
import scipy.optimize  # noqa: F401

from .errors import BoundaryMinimumError, ConfigError, DomainError, require_count, require_finite
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


def _mode_energy(mode: str, p: PhysicalParams):
    """E(v, omega, sqrt) of one mode with its parameter constants hoisted.

    The same operation order serves numpy arrays (coarse scan, with
    sqrt = np.sqrt) and Python floats (polish, with math.sqrt).  No
    omega > 0 check: callers pass omega inside a positive box or check.
    """
    hb, m = p.hbar, p.mass
    # mode-shape-independent coupling strengths
    c_lam = p.lambda_am * p.n_m * p.omega_m**1.5 * (2.0 * m / (math.pi * hb)) ** 1.5
    c_lama = p.n_a * p.omega_a**1.5 * (m / (math.pi * hb)) ** 1.5
    c_alpha = (
        4.0 * p.alpha * math.sqrt(p.n_m) * p.omega_m**0.75
        * (2.0 * m / (math.pi * hb)) ** 0.75
    )
    hb_wa2, two_lam_a = hb * p.omega_a**2, 2.0 * p.lambda_a
    w_lam, w_lama, w_alpha = 2.0 * p.omega_m, p.omega_a, p.omega_m
    if mode == MODE_SURFACE:
        pre, shape = 1.25, lambda x, y: (x / (x + y)) ** 2.5
    else:
        pre, shape = 1.75, shape_factor

    def energy(v, omega, sqrt=math.sqrt):
        quad = 1.0 + 2.0 * v * v
        mix = v * sqrt(1.0 + v * v)
        osc = hb * omega + hb_wa2 / omega
        return (
            quad * pre * osc
            + c_lam * quad * shape(omega, w_lam)
            + two_lam_a * (quad - mix) * c_lama * shape(omega, w_lama)
            - c_alpha * mix * shape(omega, w_alpha)
        )

    return energy


def _checked_energy(mode: str, v, omega, params: PhysicalParams):
    if (np.asarray(omega) <= 0.0).any():
        raise DomainError("trial frequency must be positive")
    return _mode_energy(mode, params)(v, omega, np.sqrt)


def energy_010(v, omega, params: PhysicalParams):
    """Trial energy of the (0,1,0) surface mode; array-friendly in (v, omega)."""
    return _checked_energy(MODE_SURFACE, v, omega, params)


def energy_100(v, omega, params: PhysicalParams):
    """Trial energy of the (1,0,0) breathing mode; array-friendly in (v, omega)."""
    return _checked_energy(MODE_BREATHING, v, omega, params)


def _clip(t: float, lo: float, hi: float) -> float:
    # np.clip on one float: a tie takes the bound, NaN passes through
    return lo if t <= lo else hi if t >= hi else t


def _nan_last(vertex):
    # np.argsort's order of f: ascending, NaN last; sorted() keeps ties stable
    f = vertex[0]
    return f != f, f


def _nelder_mead(f, v, w, lo, hi, xatol=1e-10, fatol=1e-12, maxiter=4000):
    """Bounded Nelder-Mead minimum (v, w, f) of f(v, w) over lo <= (v, w) <= hi.

    A two-variable port of scipy.optimize.minimize(method="Nelder-Mead",
    bounds=...) on Python floats, step for step: coefficients rho, chi,
    psi, sigma = 1, 2, 1/2, 1/2 (written out as literals below), a start
    simplex of +5% per coordinate (0.00025 for a zero one) with vertices
    past an upper bound reflected back, every trial point clipped and
    the same xatol/fatol test.  It visits the same points as scipy and
    returns the same floats, NaN energies included.

    The vertices (f0, v0, w0) .. (f2, v2, w2) are locals kept in the
    order of scipy's np.argsort of f, which is stable on three values:
    ascending, NaN last, and a new vertex (always written to the last
    slot) after any vertex of equal f.  A step that replaces the worst
    vertex places the new one with at most two comparisons: an expansion
    or a kept reflection beats f0 and f1 respectively by its own branch
    test, and a kept contraction is finite with finite f0 and f1.  Only
    the shrink, which replaces two vertices, sorts.  Like scipy's
    np.min(fsim), the returned f is NaN if any vertex's f is.
    """
    (vl, wl), (vh, wh) = lo, hi
    v, w = _clip(v, vl, vh), _clip(w, wl, wh)
    start = []
    for pv, pw in ((v, w), ((1 + 0.05) * v if v != 0 else 0.00025, w),
                   (v, (1 + 0.05) * w if w != 0 else 0.00025)):
        pv = _clip(2 * vh - pv if pv > vh else pv, vl, vh)
        pw = _clip(2 * wh - pw if pw > wh else pw, wl, wh)
        start.append((f(pv, pw), pv, pw))
    (f0, v0, w0), (f1, v1, w1), (f2, v2, w2) = sorted(start, key=_nan_last)
    for _ in range(maxiter - 1):
        if (abs(v1 - v0) <= xatol and abs(w1 - w0) <= xatol
                and abs(v2 - v0) <= xatol and abs(w2 - w0) <= xatol
                and abs(f0 - f1) <= fatol and abs(f0 - f2) <= fatol):
            break
        vb, wb = (v0 + v1) / 2, (w0 + w1) / 2
        vr, wr = 2 * vb - v2, 2 * wb - w2
        vr = vl if vr <= vl else vh if vr >= vh else vr
        wr = wl if wr <= wl else wh if wr >= wh else wr
        fr = f(vr, wr)
        if fr < f0:  # expand; the new vertex goes first
            ve, we = 3 * vb - 2 * v2, 3 * wb - 2 * w2
            ve = vl if ve <= vl else vh if ve >= vh else ve
            we = wl if we <= wl else wh if we >= wh else we
            fe = f(ve, we)
            if fe < fr:
                fr, vr, wr = fe, ve, we
            f0, v0, w0, f1, v1, w1, f2, v2, w2 = fr, vr, wr, f0, v0, w0, f1, v1, w1
            continue
        if fr < f1:  # reflect; f0 <= fr < f1
            f1, v1, w1, f2, v2, w2 = fr, vr, wr, f1, v1, w1
            continue
        if fr < f2:  # contract outside
            vc, wc = 1.5 * vb - 0.5 * v2, 1.5 * wb - 0.5 * w2
            vc = vl if vc <= vl else vh if vc >= vh else vc
            wc = wl if wc <= wl else wh if wc >= wh else wc
            fc = f(vc, wc)
            keep = fc <= fr
        else:  # contract inside
            vc, wc = 0.5 * vb + 0.5 * v2, 0.5 * wb + 0.5 * w2
            vc = vl if vc <= vl else vh if vc >= vh else vc
            wc = wl if wc <= wl else wh if wc >= wh else wc
            fc = f(vc, wc)
            keep = fc < f2
        if not keep:  # shrink towards the best vertex
            v1, w1 = _clip(v0 + 0.5 * (v1 - v0), vl, vh), _clip(w0 + 0.5 * (w1 - w0), wl, wh)
            f1 = f(v1, w1)
            v2, w2 = _clip(v0 + 0.5 * (v2 - v0), vl, vh), _clip(w0 + 0.5 * (w2 - w0), wl, wh)
            f2 = f(v2, w2)
            (f0, v0, w0), (f1, v1, w1), (f2, v2, w2) = sorted(
                ((f0, v0, w0), (f1, v1, w1), (f2, v2, w2)), key=_nan_last)
        elif fc < f0:
            f0, v0, w0, f1, v1, w1, f2, v2, w2 = fc, vc, wc, f0, v0, w0, f1, v1, w1
        elif fc < f1:
            f1, v1, w1, f2, v2, w2 = fc, vc, wc, f1, v1, w1
        else:
            f2, v2, w2 = fc, vc, wc
    return v0, w0, (f0 if f2 == f2 else f2)


@dataclass(frozen=True)
class SearchBox:
    """Variational search domain; defaults bracket the analytic limits."""

    v_max: float = 5.0
    omega_lo: float = 0.2
    omega_hi: float = 5.0
    coarse: int = 64

    def __post_init__(self):
        for name in ("v_max", "omega_lo", "omega_hi"):
            require_finite(name, getattr(self, name))
        if not (0.0 < self.omega_lo < self.omega_hi):
            raise ConfigError("need 0 < omega_lo < omega_hi")
        if self.v_max <= 0.0:
            raise ConfigError("need v_max > 0")
        # an integral float (64.0) is kept as the int np.linspace needs
        object.__setattr__(self, "coarse", require_count("coarse", self.coarse, 2))


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
    minimizer pinned against omega_lo, omega_hi or v_max, or a minimum
    that is not finite (the functional overflowed in the box), raises
    BoundaryMinimumError carrying the point (v = 0 is allowed).
    """
    if mode not in (MODE_SURFACE, MODE_BREATHING):
        raise ConfigError(f"unknown mode '{mode}'; expected '010' or '100'")
    if not (math.isfinite(n_atoms) and n_atoms > 0):
        raise ConfigError(f"n_atoms must be positive and finite, got {n_atoms!r}")
    box = box if box is not None else SearchBox()
    n_m = params.n_m if params.n_m > 0 else float(n_atoms)
    p = replace(params, n_a=float(n_atoms), n_m=n_m)

    vs = np.linspace(0.0, box.v_max, box.coarse)
    ws = np.linspace(box.omega_lo, box.omega_hi, box.coarse)
    energy_of = _mode_energy(mode, p)
    coarse = energy_of(vs[:, None], ws, np.sqrt)  # open grids: see module docstring
    i, j = divmod(int(np.argmin(coarse)), box.coarse)
    v_opt, w_opt, energy = _nelder_mead(
        energy_of, float(vs[i]), float(ws[j]),
        (0.0, float(box.omega_lo)), (float(box.v_max), float(box.omega_hi)),
    )

    if not math.isfinite(energy):
        raise BoundaryMinimumError(
            f"mode {mode} energy functional overflowed in the search box at "
            f"(v, omega) = ({v_opt:.6g}, {w_opt:.6g}); shrink the box",
            v=v_opt, omega=w_opt, energy=energy,
        )
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
    of length 2*len(n_list).  A set that is already decoupled is its own
    counterpart: it is minimized once per N and listed twice.
    """
    n_list = list(n_list)
    if not n_list:
        raise ConfigError("n_list must be nonempty")
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ConfigError("n_list must be strictly ascending")
    bare = replace(params, alpha=0.0, lambda_am=0.0)
    decoupled = bare == params
    out: list[VariationalResult] = []
    for n in n_list:
        try:
            res = minimize_mode(mode, params, n, box)
            out += (res, res if decoupled else minimize_mode(mode, bare, n, box))
        except BoundaryMinimumError as exc:
            raise BoundaryMinimumError(
                f"sweep failed at N = {n:g}: {exc}",
                v=exc.v, omega=exc.omega, energy=exc.energy,
            ) from exc
    return out
