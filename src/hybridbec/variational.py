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

Every term of either functional is (1+2v^2) P(omega) or
-v sqrt(1+v^2) S(omega), so E = (1+2v^2) P - v sqrt(1+v^2) S, and with
v = sinh t this is P cosh 2t - (S/2) sinh 2t.  Its minimum over v >= 0 is
known in closed form:

    G(omega) = sqrt(P^2 - S^2/4)  at tanh 2t = S/(2P)   if S > 0,
    G(omega) = P                  at v = 0              if S <= 0,

provided P > S/2; where S/2 >= P the trial energy is unbounded below in
v (the conversion pull outweighs the quadratic cost) and no trial mode
of that width is stable.  So the search is over omega alone: G is
scanned on `coarse` evenly spaced frequencies of the box to pick the
basin, a golden section between the scan points next to the best one
finds the minimizer, and v follows from the closed form.  v_max bounds
that v.  v = 0 is a legitimate symmetry point (the couplings-zero
minimum), but a minimizer pinned to an omega edge or a v above v_max
means the box failed to bracket and raises instead of returning a
truncated answer, as do a scan point with S/2 >= P and a functional
that overflows in the box.

P and S are sums of terms that depend on omega alone (the oscillator
term and the shape factors), the last three times coupling strengths
that carry the populations and couplings.  An N sweep scans once per
mode: its lanes, one per (N, parameter set), share those terms, so G on
the scan is one lanes x coarse table.  The terms are evaluated once on
the scan, and each lane's strengths, computed by the same scalar
expressions as for a lane alone, are one row of the columns that
multiply them; every cell is thus the single-lane scan's to the bit.
The lanes are then refined in order, each by a golden section over a
flat kernel of its own (`_lane_kernel`: the same IEEE operations on
Python floats, shape factors inline, terms of zero strength left out),
once for all lanes of equal strengths and scan basin (the free gas's,
say); each keeps its own N and resonant flag.  A single minimization is
a sweep of one lane.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
# unused; perfbench/run.py --trace 1 needs its -X importtime line (ROADMAP item 9)
import scipy.optimize  # noqa: F401

from .errors import (
    BoundaryMinimumError, ConfigError, DomainError, require_choice, require_count, require_finite,
    require_positive,
)
from .params import PhysicalParams

MODE_SURFACE = "010"
MODE_BREATHING = "100"

#: minimizer closer than this (relative) to an omega edge -> no bracket
EDGE_TOL = 1e-6
#: the golden section stops at this relative bracket width, about where
#: round-off in G hides the minimum's curvature
OMEGA_RTOL = 1e-9
INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
#: most cells of a sweep's scan table built at once; a box with more
#: scan points than this is scanned one lane at a time
SCAN_BLOCK_CELLS = 4096


def shape_factor(x, y):
    """f(x, y) = (3/2)s^{3/2} - 3 s^{5/2} + (5/2)s^{7/2} with s = x/(x+y).

    Positive for all x, y > 0; tends to 1 as y -> 0 and to 0 as x -> 0.
    """
    s = x / (x + y)
    return s**1.5 * (1.5 + s * (-3.0 + 2.5 * s))


def _surface_factor(x, y):
    return (x / (x + y)) ** 2.5


def _couplings(p: PhysicalParams, n_a: float, n_m: float):
    """(c_lam, c_lama, c_alpha), the coupling strengths of P and S at
    populations n_a and n_m, as Python floats."""
    hb, m = p.hbar, p.mass
    return (
        p.lambda_am * n_m * p.omega_m**1.5 * (2.0 * m / (math.pi * hb)) ** 1.5,
        2.0 * p.lambda_a * n_a * p.omega_a**1.5 * (m / (math.pi * hb)) ** 1.5,
        4.0 * p.alpha * math.sqrt(n_m) * p.omega_m**0.75
        * (2.0 * m / (math.pi * hb)) ** 0.75,
    )


def _mode_kernel(mode: str, p: PhysicalParams):
    """(omega, c_lam, c_lama, c_alpha) -> (P, S) of one mode, with
    E(v, omega) = (1+2v^2) P - v sqrt(1+v^2) S.

    Only hbar and the trap frequencies of p enter; the populations and
    couplings come in as the strengths of `_couplings`.  Takes Python floats, or a scan
    of omega with columns (lanes x 1) of strengths, which gives P and S
    as lanes x scan tables with each shape factor evaluated once.  No
    omega > 0 check: callers pass omega inside a positive box or check.
    """
    hb, hb_wa2 = p.hbar, p.hbar * p.omega_a**2
    w_lam, w_lama, w_alpha = 2.0 * p.omega_m, p.omega_a, p.omega_m
    pre, shape = (1.25, _surface_factor) if mode == MODE_SURFACE else (1.75, shape_factor)

    def parts(omega, c_lam, c_lama, c_alpha):
        lama = c_lama * shape(omega, w_lama)
        quad = pre * (hb * omega + hb_wa2 / omega) + c_lam * shape(omega, w_lam) + lama
        return quad, lama + c_alpha * shape(omega, w_alpha)

    return parts


def _checked_energy(mode: str, v, omega, params: PhysicalParams):
    # the public energies' domain: every omega positive and finite
    w = np.asarray(omega)
    if not (np.isfinite(w) & (w > 0.0)).all():
        raise DomainError("trial frequency must be positive and finite")
    quad, mix = _mode_kernel(mode, params)(
        omega, *_couplings(params, params.n_a, params.n_m))
    return (1.0 + 2.0 * v * v) * quad - v * np.sqrt(1.0 + v * v) * mix


def energy_010(v, omega, params: PhysicalParams):
    """Trial energy of the (0,1,0) surface mode; array-friendly in (v, omega)."""
    return _checked_energy(MODE_SURFACE, v, omega, params)


def energy_100(v, omega, params: PhysicalParams):
    """Trial energy of the (1,0,0) breathing mode; array-friendly in (v, omega)."""
    return _checked_energy(MODE_BREATHING, v, omega, params)


def _golden_min(g, a: float, b: float):
    """(x, g(x)) at the least g found by golden section on [a, b]."""
    c, d = b - INV_PHI * (b - a), a + INV_PHI * (b - a)
    gc, gd = g(c), g(d)
    while b - a > OMEGA_RTOL * (a + b):
        if gc <= gd:
            b, d, gd = d, c, gc
            c = b - INV_PHI * (b - a)
            gc = g(c)
        else:
            a, c, gc = c, d, gd
            d = a + INV_PHI * (b - a)
            gd = g(d)
    return (c, gc) if gc <= gd else (d, gd)


@dataclass(frozen=True)
class SearchBox:
    """Variational search domain; defaults bracket the analytic limits.

    omega is searched on [omega_lo, omega_hi], first on `coarse` evenly
    spaced points; the closed-form v must not exceed v_max.
    """

    v_max: float = 5.0
    omega_lo: float = 0.2
    omega_hi: float = 5.0
    coarse: int = 64

    def __post_init__(self):
        for name in ("v_max", "omega_lo", "omega_hi"):
            require_finite(name, getattr(self, name))
        if not (0.0 < self.omega_lo < self.omega_hi):
            raise ConfigError("need 0 < omega_lo < omega_hi")
        require_positive("v_max", self.v_max)
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


def _unbounded(mode: str, omega: float) -> BoundaryMinimumError:
    return BoundaryMinimumError(
        f"mode {mode} trial energy is unbounded below in v at omega = {omega:.6g}: "
        "S/2 >= P, the conversion term outweighs the quadratic one",
        v=math.inf, omega=omega, energy=-math.inf,
    )


def _lane_kernel(mode: str, p: PhysicalParams, c_lam, c_lama, c_alpha):
    """omega -> G(omega) of one lane, raising where S/2 >= P: the
    operations of `_mode_kernel` in its order, on Python floats (numpy's
    array power is not libm pow to the bit), shape factors inline.

    A term of zero strength (+0.0 or -0.0) is left out.  It only adds a
    signed zero: each partial sum of P, from the positive oscillator
    term on, is nonzero or +0.0 and keeps its bits, and S can lose only
    the sign of a zero S, whose h = +-0.0 compares as 0.0 in `h >= P`
    and `h > 0.0` and gives v = 0 either way.  No bit of G, of those
    tests or of v moves.
    """
    hb, hb_wa2 = p.hbar, p.hbar * p.omega_a**2
    w_lam, w_lama, w_alpha = 2.0 * p.omega_m, p.omega_a, p.omega_m
    surface = mode == MODE_SURFACE
    pre = 1.25 if surface else 1.75

    def lowest(omega):
        quad = pre * (hb * omega + hb_wa2 / omega)
        if c_lam:
            s = omega / (omega + w_lam)
            quad += c_lam * (s**2.5 if surface else s**1.5 * (1.5 + s * (-3.0 + 2.5 * s)))
        mix = 0.0
        if c_lama:
            s = omega / (omega + w_lama)
            mix = c_lama * (s**2.5 if surface else s**1.5 * (1.5 + s * (-3.0 + 2.5 * s)))
            quad += mix
        if c_alpha:
            s = omega / (omega + w_alpha)
            mix += c_alpha * (s**2.5 if surface else s**1.5 * (1.5 + s * (-3.0 + 2.5 * s)))
        h = 0.5 * mix
        if h >= quad:
            raise _unbounded(mode, omega)
        return math.sqrt((quad - h) * (quad + h)) if h > 0.0 else quad

    return lowest


def _scan_table(parts, ws, strengths):
    """(G, first) on the scan ws for a block of lanes.

    parts is the mode's kernel and strengths the lanes' coupling strengths
    as rows (lanes x 3).  G is lanes x scan; first[k] is the index of lane k's
    first scan point with S/2 >= P, or -1.  Such a lane is set aside
    before the square root, so its G row is P, not G.  A cell past the
    floats is +inf, which the basin choice passes over, so its overflow
    is not reported.
    """
    with np.errstate(over="ignore"):
        quad, mix = parts(ws, *strengths.T[:, :, None])
        h = 0.5 * mix
        over = h >= quad
        first = np.where(over.any(axis=1), over.argmax(axis=1), -1)
        h[first >= 0] = 0.0
        h = np.maximum(h, 0.0)  # h = 0 where G = P
        return np.where(h > 0.0, np.sqrt((quad - h) * (quad + h)), quad), first


def _minimize_lanes(mode: str, lanes, box: SearchBox | None):
    """Minimize one mode for each (params, n_atoms) lane; yields each
    lane's VariationalResult in order, and raises a lane's error when it
    is reached.

    The lanes must share hbar, mass, omega_a and omega_m, as a set and
    its alpha = lambda = 0 counterpart do.  Every lane is checked, then G
    is scanned for all of them at once (`_scan_table`, in blocks of at
    most SCAN_BLOCK_CELLS cells, or one lane), and each lane is refined,
    once for all lanes of its strengths and basin.
    """
    require_choice("mode", mode, (MODE_SURFACE, MODE_BREATHING))
    populations, couplings = [], []
    for params, n_atoms in lanes:
        n_a = require_finite("n_atoms", n_atoms)
        if not n_a > 0:
            raise ConfigError(f"n_atoms must be positive and finite, got {n_atoms!r}")
        populations.append(n_a)
        couplings.append(_couplings(params, n_a, params.n_m if params.n_m > 0 else n_a))
    box = box if box is not None else SearchBox()
    parts = _mode_kernel(mode, lanes[0][0])

    ws = np.linspace(box.omega_lo, box.omega_hi, box.coarse)
    strengths = np.array(couplings)
    step = max(1, SCAN_BLOCK_CELLS // box.coarse)
    unbounded_at, basin = [], []
    for k in range(0, len(lanes), step):
        g, first = _scan_table(parts, ws, strengths[k:k + step])
        unbounded_at += first.tolist()
        basin += g.argmin(axis=1).tolist()
        del g  # so that no two blocks' tables are alive at once

    refined = {}
    for (params, _), n_a, strengths, j, i in zip(
            lanes, populations, couplings, unbounded_at, basin):
        if j >= 0:
            raise _unbounded(mode, float(ws[j]))
        key = (*strengths, i)
        if key not in refined:
            w_opt, energy = _golden_min(
                _lane_kernel(mode, params, *strengths),
                float(ws[max(i - 1, 0)]), float(ws[min(i + 1, box.coarse - 1)]))
            quad, mix = parts(w_opt, *strengths)
            v_opt = math.sinh(0.5 * math.atanh(0.5 * mix / quad)) if mix > 0.0 else 0.0
            if not math.isfinite(energy):
                raise BoundaryMinimumError(
                    f"mode {mode} energy functional overflowed in the search box at "
                    f"omega = {w_opt:.6g}; shrink the box",
                    v=v_opt, omega=w_opt, energy=energy,
                )
            if (v_opt > box.v_max or w_opt < box.omega_lo * (1.0 + EDGE_TOL)
                    or w_opt > box.omega_hi * (1.0 - EDGE_TOL)):
                raise BoundaryMinimumError(
                    f"mode {mode} minimizer at or beyond the search boundary at "
                    f"(v, omega) = ({v_opt:.6g}, {w_opt:.6g}); widen the box",
                    v=v_opt, omega=w_opt, energy=energy,
                )
            refined[key] = v_opt, w_opt, energy
        v_opt, w_opt, energy = refined[key]
        yield VariationalResult(
            mode=mode, v_opt=v_opt, omega_opt=w_opt, energy=energy,
            n_atoms=n_a, resonant=(params.alpha != 0.0 or params.lambda_am != 0.0),
        )


def minimize_mode(
    mode: str,
    params: PhysicalParams,
    n_atoms: float,
    box: SearchBox | None = None,
) -> VariationalResult:
    """Global minimum of the mode functional over the search box.

    n_atoms replaces N_a; N_m follows it unless the configuration fixes
    a molecule number of its own (n_m > 0).  n_atoms must be a finite
    real number > 0, not a bool, else ConfigError.  A scan of G(omega)
    on the box's `coarse` frequencies picks the basin, a golden section
    finds the minimizer and v is the closed-form one; deterministic.  A
    scan point with S/2 >= P (the trial energy is unbounded below in v),
    a minimizer pinned against omega_lo or omega_hi, a v above v_max, or
    a minimum that is not finite (the functional overflowed in the box)
    raises BoundaryMinimumError carrying the point (v = 0 is allowed).
    This is a sweep's path with one lane: a point of a sweep is this
    call's result to the bit.
    """
    return next(_minimize_lanes(mode, [(params, n_atoms)], box))


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
    counterpart: it is minimized once per N and listed twice.  One scan
    table serves every (N, set) lane; the lanes are then refined in that
    order, and the first that fails raises, its message prefixed with
    "sweep failed at N = ...".  Each result is minimize_mode's at that
    N and set, to the bit.
    """
    n_list = [require_finite("n_list entry", n) for n in n_list]
    if not n_list:
        raise ConfigError("n_list must be nonempty")
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ConfigError("n_list must be strictly ascending")
    bare = replace(params, alpha=0.0, lambda_am=0.0)
    decoupled = bare == params
    sets = (params,) if decoupled else (params, bare)
    minima = _minimize_lanes(mode, [(p, n) for n in n_list for p in sets], box)
    out: list[VariationalResult] = []
    for n in n_list:
        try:
            res = next(minima)
            out += (res, res if decoupled else next(minima))
        except BoundaryMinimumError as exc:
            raise BoundaryMinimumError(
                f"sweep failed at N = {n:g}: {exc}",
                v=exc.v, omega=exc.omega, energy=exc.energy,
            ) from exc
    return out
