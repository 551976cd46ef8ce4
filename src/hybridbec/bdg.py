"""Quasiparticle excitation spectra over a converged condensate.

Three interchangeable methods solve the linearized fluctuation problem

    L u - Delta v = E u,   Delta u - L v = E v

of each species, where L + Delta and L - Delta are the species' blocks
of the amplitude block A and the phase block B of the energy's second
variation, which `gpe._second_variation` writes out.  This is the
sector-decoupled approximation, and all three methods solve it: the a-m
couplings of A and B are dropped, so alpha enters only through the atom
Delta.  The energy that `gpe` minimises does couple the sectors at this
order; the coupled problem is ROADMAP item 2.

Methods:

* ``direct_grid_spectrum``: the grid BdG problem per angular channel,
  with no approximation beyond the sector decoupling; this is the oracle
  the other two are judged against.  With g = u - v and f = u + v it reads
  (L - Delta)(L + Delta) g = E^2 g, a product of tridiagonal blocks
  (`_product_form`).  In the A order L + Delta is factored; where it is
  not positive definite (the l = 0 channel of an attractive species) the
  B order factors L - Delta (`_swapped_channel`).

* ``block_2x2_spectrum``: project onto auxiliary oscillator levels |j>
  and solve the standard symplectic 2x2 problem per level,
  E_j = sqrt(h_j^2 - Delta_j^2), with u = A|j>, v = B|j>, A^2 - B^2 = 1.

* ``paper_literal_spectrum``: the closed-form prescription
  E_j^+-(r) = +-(Delta(r) - H_j(r)) evaluated pointwise and then averaged
  over r once; coefficients from
  f = Delta/(H_j - E^2), B = (1/(f-1))^(1/2), A = f*B.  This form is kept
  as-is (including the dimensionally inhomogeneous E^2 in the denominator
  and the sign structure) behind a method flag; negative discriminants
  (f <= 1) flag the mode rather than raising.

Basis-level conventions: "paper", the default, pairs basis state j with
the paper's ladder hbar*omega*(j + 1/2); "oscillator3d" pairs it with
its own eigenvalue, the level `oscillator_basis` solves on the grid:
the s-wave 3D oscillator level hbar*omega*(2j + 3/2) to O(h^2) where the
state fits in the box, and the box state's level where it does not.
The latter is what matches the direct grid spectrum.

Both species are solved side by side (`_side_by_side`): one module-level
worker thread builds the molecule's oscillator basis for the basis
methods (`_projections`) where neither basis is on the grid, and solves
the grid oracle's molecule channel, while the calling thread does the
atoms'.  The bisections that are most of that work, the tridiagonal
eigensolve and the banded sbevx of `_product_form`, are LAPACK calls
made through ctypes, which releases the GIL (scipy's wrappers hold it),
so on two CPUs the two run at once, with the bits of a serial run.  An
atom error is raised after the worker finishes, so a call raises what
the serial order (atoms first) raised, and the grid oracle logs on the
calling thread in that order.  There is no option and no CPU-count
branch: on one CPU the same two threads take turns.
"""

from __future__ import annotations

import functools
import logging
import math
import os
import weakref
from concurrent import futures
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import ConfigError, DomainError, require_choice, require_count
from .gpe import (
    ATOM, MOLECULE, CondensateState, _block_diagonals, _general_band, _one_body, _operator,
    _require_grid, _second_variation, _trap,
)
from .grid import RadialGrid, RadialOperator, band_eigenvalues
from .params import PhysicalParams

log = logging.getLogger(__name__)

#: |E^2| at or below this, in units of (hbar*omega_a)^2, marks the
#: Goldstone mode of the grid routes
ZERO_MODE_E2 = 1e-6
#: basis-level conventions (module docstring); weights of the paper-literal average
CONVENTIONS = ("paper", "oscillator3d")
AVERAGINGS = ("density", "volume")

_GBSV, _GBTRF, _GBTRS, _PBTRF = scipy.linalg.get_lapack_funcs(
    ("gbsv", "gbtrf", "gbtrs", "pbtrf"), dtype=np.float64)
#: sbevx's absolute eigenvalue tolerance as eig_banded sets it
_ABSTOL = 2.0 * scipy.linalg.lapack.dlamch("s")


@dataclass(eq=False)
class Mode:
    """One quasiparticle mode.

    j          basis index (basis methods) or ascending-order index (grid)
    branch     "+" or "-"
    energy     real part; energy_imag nonzero only for flagged modes
    u, v       radial amplitudes, or None when coefficients are undefined
    coeff_u/v  A, B (atoms) or C, D (molecules); nan for grid modes
    degeneracy angular multiplicity entering thermal sums: 2l+1 for a
               grid channel, 1 for the s-wave auxiliary basis
    norm       signed integral(u^2 - v^2) after normalization
    unstable   negative discriminant (basis methods) or E^2 < 0 (grid);
               a grid mode so flagged has energy 0.0, its growth rate in
               energy_imag, no u and v, and norm nan
    """

    j: int
    branch: str
    energy: float
    u: np.ndarray | None = None
    v: np.ndarray | None = None
    coeff_u: float = math.nan
    coeff_v: float = math.nan
    degeneracy: int = 1
    norm: float = math.nan
    energy_imag: float = 0.0
    unstable: bool = False


@dataclass(eq=False)
class ModeSet:
    """Spectrum of one species by one method; skipped counts the
    Goldstone pair a grid channel leaves out."""

    species: str
    method: str
    modes: list[Mode] = field(default_factory=list)
    skipped: int = 0


#: bases built on each grid, kept for as long as the grid object lives
_BASES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _basis_key(species: str, params: PhysicalParams, j_max: int) -> tuple:
    mass, omega, _ = _one_body(species, params)
    return mass, omega, params.hbar, j_max


def oscillator_basis(
    species: str, params: PhysicalParams, grid: RadialGrid, j_max: int
) -> tuple[np.ndarray, np.ndarray]:
    """Lowest j_max s-wave oscillator states of the species' trap.

    Returns (levels, chi): levels are the states' own eigenvalues, the
    basis levels of the "oscillator3d" convention, and chi columns are
    reduced radial functions with sum(chi^2) = 1, so <j|f(r)|j> is just
    sum(f * chi[:, j]**2); the corresponding density-normalized amplitude
    is chi/(r*sqrt(4*pi*h)).

    The arrays are read-only: each basis is built once per grid object
    and (mass, omega, hbar, j_max), and handed out again for as long as
    that grid lives, so `spectrum --compare` solves it once for both
    basis methods.  The basis methods build a grid's two missing bases
    at once, the molecule's on a worker thread (`_projections`), and
    raise an atom error only after the worker is done.  Raises
    ConfigError when the grid holds fewer than j_max states, or when the
    species' trap term is past the floats (`gpe._trap`).
    """
    key = _basis_key(species, params, j_max)
    bases = _BASES.setdefault(grid, {})
    if key not in bases:
        op = RadialOperator.build(grid, key[0], _trap(species, params, grid), hbar=params.hbar)
        vals, vecs = op.eigensolve(j_max)
        if len(vals) < j_max:
            raise ConfigError(
                f"grid supports only {len(vals)} basis states, j_max={j_max}"
            )
        vals.flags.writeable = vecs.flags.writeable = False
        bases[key] = vals, vecs
    return bases[key]


@functools.cache
def _basis_worker() -> futures.ThreadPoolExecutor:
    """The one thread that solves the molecule's share of `_side_by_side`,
    started at first use."""
    return futures.ThreadPoolExecutor(max_workers=1, thread_name_prefix="hybridbec-basis")


if hasattr(os, "register_at_fork"):  # a forked child has no worker thread
    os.register_at_fork(after_in_child=_basis_worker.cache_clear)


def _side_by_side(atom, molecule):
    """(atom(), molecule()), the molecule's call on the basis worker
    while this thread makes the atom's.  Errors come as in the serial
    order: an atom error is raised once the worker is done, else a
    molecule error."""
    future = _basis_worker().submit(molecule)
    try:
        first = atom()
    except BaseException:
        future.exception()  # waits; the atom error wins, as in the serial order
        raise
    return first, future.result()


def _backgrounds(state: CondensateState, params: PhysicalParams):
    """(species, plus, delta, mu) for ATOM and then MOLECULE from one
    `gpe._second_variation` call: the local part of L + Delta (beyond the
    one-body operator and -mu), Delta(r) and mu; L carries W = plus - delta."""
    k_a, k_m, _, delta_a, delta_m = _second_variation(params, state.phi_a, state.phi_m)
    return (ATOM, k_a, delta_a, state.mu_a), (MOLECULE, k_m, delta_m, state.mu_m)


def _projections(state, params, grid, j_max, convention):
    """(species, delta, mu, levels, chi, w, amp) of ATOM and then
    MOLECULE for the basis methods: delta and mu of `_backgrounds`, the
    basis levels of the convention, basis chi, W with the one-body offset
    (eps for molecules) folded in and the density-normalized amplitude of
    each basis state, chi and amp one contiguous row per state.  Where
    neither basis is on the grid both are built side by side
    (`_side_by_side`), the grid's `_BASES` entry made here before the
    worker reads it; else each is looked up, or built here."""
    _require_grid(state, grid)
    require_choice("convention", convention, CONVENTIONS)
    backgrounds = _backgrounds(state, params)
    pair = ATOM, MOLECULE
    bases = _BASES.setdefault(grid, {})
    calls = [functools.partial(oscillator_basis, sp, params, grid, j_max) for sp in pair]
    missing = all(_basis_key(sp, params, j_max) not in bases for sp in pair)
    built = _side_by_side(*calls) if missing else [call() for call in calls]
    scale = grid.r * math.sqrt(4.0 * np.pi * grid.h)
    out = []
    for (species, plus, delta, mu), (levels, chi) in zip(backgrounds, built):
        _, omega, offset = _one_body(species, params)
        if convention == "paper":
            levels = params.hbar * omega * (np.arange(j_max, dtype=float) + 0.5)
        chi = np.ascontiguousarray(chi.T)
        out.append((species, delta, mu, levels, chi, plus - delta + offset, chi / scale))
    return out


def _weighted_averages(rows: np.ndarray, weights: np.ndarray, total: float) -> list[float]:
    """Weighted average over r of each row, total = sum(weights) > 0.

    A constant row gives its value exactly, so the zero-coupling limit
    keeps the block method's scalar arithmetic.  Each other row is one
    np.dot of contiguous vectors, the dot product the average always
    took (a matrix-vector product may sum in another order)."""
    constant = (rows == rows[:, :1]).all(axis=1).tolist()
    return [float(row[0]) if same else float(np.dot(weights, row)) / total
            for row, same in zip(rows, constant)]


def paper_literal_spectrum(
    state: CondensateState,
    params: PhysicalParams,
    grid: RadialGrid,
    j_max: int = 16,
    averaging: str = "density",
    convention: str = "paper",
    strict_literal: bool = False,
) -> tuple[ModeSet, ModeSet]:
    """Closed-form E_j^+-(r) = +-(Delta - H_j), r-eliminated by averaging.

    The position dependence is removed by replacing the eigenvalue with
    its weighted average over r.  The closed form has no eigenvalue
    feedback, so one average is the fixed point of the paper's repeated
    re-averaging.  averaging "density" weights by the species' condensate
    density, "volume" by the bare volume element; a species with no
    condensate (density weights summing to zero) is averaged by volume.

    strict_literal drops the lambda*phi_a^2 term from the molecule
    bracket, which the closed form omits even though the projected
    operator includes it; the default keeps the two consistent.

    Coefficients follow f = Delta/(H - E^2) with no regularization; modes with
    f <= 1 get a negative discriminant and are flagged unstable instead
    of raising.  Stable modes are renormalized to integral(u^2-v^2) = +-1
    and the raw A, B are kept in coeff_u, coeff_v.  Raises ConfigError
    unless j_max is an integer >= 1.
    """
    require_choice("averaging", averaging, AVERAGINGS)
    j_max = require_count("j_max", j_max, 1)
    out = []
    for species, delta, mu, levels, _, w, amp in _projections(
            state, params, grid, j_max, convention):
        if species == MOLECULE and strict_literal:
            w -= params.lambda_am * state.phi_a**2
        dens = state.phi_a**2 if species == ATOM else state.phi_m**2
        weights = grid.w * dens if averaging == "density" else grid.w
        total = float(np.sum(weights))
        if total <= 0.0:
            weights = grid.w
            total = float(np.sum(weights))

        # one row per level: H_j(r) = level_j - mu + W(r) and E_j^+(r)
        h_of_r = (levels - mu)[:, None] + w
        e_of_r = delta - h_of_r
        d_bar, = _weighted_averages(delta[None, :], weights, total)
        h_bar = _weighted_averages(h_of_r, weights, total)
        # the (-) branch averages -E_j(r) to exactly -e, and e enters only as e^2
        e_bar = _weighted_averages(e_of_r, weights, total)
        modes = []
        for j, e in enumerate(e_bar):
            denom = h_bar[j] - e**2
            f = d_bar / denom if denom != 0.0 else math.inf
            if not (f > 1.0 and math.isfinite(f)):
                modes += Mode(j, "+", e, unstable=True), Mode(j, "-", -e, unstable=True)
                continue
            b = math.sqrt(1.0 / (f - 1.0))
            a = f * b
            scale = math.sqrt(a * a - b * b)  # = sqrt(f + 1)
            u, v = (a / scale) * amp[j], (b / scale) * amp[j]
            modes += (Mode(j, "+", e, u, v, a, b, norm=1.0),
                      Mode(j, "-", -e, u.copy(), v.copy(), a, b, norm=1.0))
        modes.sort(key=lambda m: (m.branch, m.energy))
        out.append(ModeSet(species=species, method="paper-literal", modes=modes))
    return out[0], out[1]


def block_2x2_spectrum(
    state: CondensateState,
    params: PhysicalParams,
    grid: RadialGrid,
    j_max: int = 16,
    convention: str = "paper",
) -> tuple[ModeSet, ModeSet]:
    """Per-level 2x2 reduction: E_j = sqrt(h_j^2 - Delta_j^2).

    h_j = level_j + <j|W|j> - mu and Delta_j = <j|Delta(r)|j> with matrix
    elements by quadrature against the |j> densities.  Stable modes get
    u = A|j>, v = B|j> with A^2 - B^2 = 1 exactly; h_j^2 < Delta_j^2 is
    flagged unstable with the growth rate in energy_imag.  For h_j < 0
    (level below the condensate chemical potential, under-resolved basis)
    the positive-norm branch energy is negative, reported as sign(h)*|E|.
    Raises ConfigError unless j_max is an integer >= 1.
    """
    j_max = require_count("j_max", j_max, 1)
    out = []
    for species, delta, mu, levels, chi, w, amp in _projections(
            state, params, grid, j_max, convention):
        chi2 = chi**2  # the |j> densities; one np.dot per matrix element
        modes = []
        for j, level in enumerate(levels.tolist()):
            h = level + float(np.dot(w, chi2[j])) - mu
            d = float(np.dot(delta, chi2[j]))
            disc = h * h - d * d
            if not disc >= 0.0:
                rate = math.sqrt(-disc)
                modes += (Mode(j, "+", 0.0, energy_imag=rate, unstable=True),
                          Mode(j, "-", 0.0, energy_imag=-rate, unstable=True))
                continue
            e_mag = math.sqrt(disc)
            e = e_mag if h >= 0.0 else -e_mag
            if e_mag == 0.0:  # Goldstone-like boundary, coefficients diverge
                modes += Mode(j, "+", e), Mode(j, "-", -e)
                continue
            a2 = (abs(h) / e_mag + 1.0) / 2.0
            a = math.sqrt(a2)
            b = math.copysign(math.sqrt(a2 - 1.0), d) if a2 > 1.0 else 0.0
            # the (-) branch swaps A and B; no two modes share an array
            modes += (Mode(j, "+", e, a * amp[j], b * amp[j], a, b, norm=1.0),
                      Mode(j, "-", -e, b * amp[j], a * amp[j], b, a, norm=-1.0))
        modes.sort(key=lambda m: (m.branch, m.energy))
        out.append(ModeSet(species=species, method="block-2x2", modes=modes))
    return out[0], out[1]


def _real_rows(chi_u, chi_v, four_pi_h):
    """Real mode vectors, one per column of chi_u and chi_v, as rows u
    and v scaled to four_pi_h * sum(u^2 - v^2) = 1 with the largest |u|
    entry positive (-0.0 turned into +0.0, hence the + 0.0).  Each row is
    contiguous, so its norm is the pairwise sum of a single vector."""
    u, v = chi_u.T.copy(), chi_v.T.copy()
    pivot = u[np.arange(len(u)), np.abs(u).argmax(axis=1)]
    factor = (np.where(pivot < 0.0, -1.0, 1.0)
              / np.sqrt(four_pi_h * (u * u - v * v).sum(axis=1)))[:, None]
    return u * factor + 0.0, v * factor + 0.0


def _solve_ct(c, y):
    """C^-T y for pbtrf's bidiagonal factor c, as solve_banded((0, 1), ...)."""
    upper = np.empty_like(c)  # C^T in upper band storage
    upper[0, 0], upper[0, 1:], upper[1] = 0.0, c[1, :-1], c[0]
    return _GBSV(0, 1, upper, y)[2]


def _product_form(factored, other, offdiag, n_modes, zero_e2):
    """Lowest eigenpairs of Q P x = E^2 x, P and Q symmetric tridiagonal
    with diagonals `factored` and `other`.  P = C C^T is a tridiagonal
    Cholesky (C lower bidiagonal), so K = C^T Q C is symmetric
    pentadiagonal with K y = E^2 y and x = C^-T y.  Returns
    (c, y, z, e2, zero): the Cholesky band, columns y and z = C y, the
    Rayleigh quotients e2 = z^T Q z and the Goldstone mask
    |e2| <= zero_e2, with n_modes pairs outside it where n allows.  None
    when P is not positive definite.

    The lowest eigenvalues come from sbevx, inverse iteration on K gives
    the vectors.  Every LAPACK routine is called directly, with the
    arguments of the scipy.linalg wrapper that runs it, so the bits are
    the wrapper's: pbtrf (cholesky_banded), sbevx (eig_banded,
    eigenvalues by index).  sbevx, the bisection that is most of a
    channel, goes through ctypes (`grid.band_eigenvalues`) rather than
    scipy's f2py wrapper, which holds the GIL for the whole call: that
    way the molecule channel on the worker thread runs while the atom
    channel bisects.  Inverse iteration LU-factors K - E^2 I once
    by gbtrf and both steps reuse the factors through gbtrs, the
    arithmetic of solve_banded((2, 2), ...) without its second
    factorization.  An exact zero pivot (info > 0) raises E^2 by the
    least step that changes K - E^2 I, one ulp of the larger of E^2 and
    min |K_ii - E^2| (the next float of E^2 alone leaves K - E^2 I as it
    is where |K_ii| >> E^2).  The wrappers' finiteness check is kept as
    one check of K's band.
    """
    n = len(factored)
    c, info = _PBTRF(np.vstack([factored, np.full(n, offdiag)]), lower=1)
    if info:
        return None
    a, b, d = c[0], c[1, :-1], other
    band = np.zeros((3, n))  # lower band storage of K
    band[0] = a * a * d
    band[0, :-1] += b * (2.0 * offdiag * a[:-1] + b * d[1:])
    band[1, :-1] = a[1:] * (offdiag * a[:-1] + b * d[1:])
    band[1, :-2] += offdiag * b[1:] * b[:-1]
    band[2, :-2] = offdiag * a[2:] * b[:-1]
    if not np.isfinite(band).all():
        raise ValueError("array must not contain infs or NaNs")
    # gbtrf factors each shifted copy of K in place
    full = _general_band(band)
    shifted = np.empty_like(full)
    ones = np.ones(n)
    count = min(n, n_modes + 2)
    while True:
        # eigenvalues alone cost O(n^2) where eig_banded's eigenvectors
        # cost O(n^3); each vector then takes two O(n) banded solves,
        # which reach round-off from a flat start (one leaves ~1e-6 of
        # the neighbouring modes at 800 points)
        y = np.empty((n, count))
        for k, shift in enumerate(band_eigenvalues(band, True, 1, count, _ABSTOL)):
            while True:
                shifted[...] = full
                shifted[4] -= shift
                lu, piv, info = _GBTRF(shifted, 2, 2, overwrite_ab=1)
                if not info:
                    break
                shift += np.spacing(max(abs(shift), np.abs(full[4] - shift).min()))
            x, _ = _GBTRS(lu, 2, 2, ones, piv)
            x /= math.sqrt(x.dot(x))  # np.linalg.norm's arithmetic
            x, _ = _GBTRS(lu, 2, 2, x, piv, overwrite_b=1)
            x /= math.sqrt(x.dot(x))
            y[:, k] = x
        # E^2 taken in factored form: its round-off scales with ||Q||,
        # where eig_banded's eigenvalues carry eps*||K|| ~ eps*||Q||^2
        z = a[:, None] * y
        z[1:] += b[:, None] * y[:-1]
        e2 = np.einsum("ik,ik->k", z, RadialOperator(d, offdiag).apply(z))
        zero = np.abs(e2) <= zero_e2
        if count - zero.sum() >= n_modes or count == n:
            return c, y, z, e2, zero
        count = min(n, 2 * count)


def _banded_channel(plus_diag, minus_diag, offdiag, n_modes, zero_e2):
    """Lowest modes from (L - D)(L + D) g = E^2 g, g = u - v, in the A
    order: L + D is factored, g = C^-T y and f = u + v = C y / E.
    Returns (growth rates, energies, chi_u columns, chi_v columns,
    goldstone): each E^2 < -zero_e2 is an unstable mode, returned as its
    rate sqrt(-E^2) in place of vectors, and the |E^2| <= zero_e2 pairs
    are counted in goldstone.  plus_diag and minus_diag are the diagonals
    of L + D and L - D.  None when L + D is not positive definite."""
    found = _product_form(plus_diag, minus_diag, offdiag, n_modes, zero_e2)
    if found is None:
        return None
    c, y, z, e2, zero = found
    keep = np.flatnonzero(~zero)[:n_modes]
    stable = keep[e2[keep] > 0.0]
    energies = np.sqrt(e2[stable])
    g = _solve_ct(c, y[:, stable])
    f = z[:, stable] / energies
    rates = np.sqrt(-e2[keep[e2[keep] < 0.0]])
    return rates, energies, (f + g) / 2.0, (f - g) / 2.0, 2 * int(zero.sum())


def _swapped_channel(plus_diag, minus_diag, offdiag, n_modes, zero_e2, max_shift):
    """`_banded_channel` in the B order, (L + D)(L - D) f = E^2 f with
    M + sigma = C C^T, M = L - D.  sigma = 0 is tried first, then
    n*eps*||M|| * 4^k to lift M's Goldstone zero above round-off, up to
    the first rung above max_shift.  E^2 is the Rayleigh quotient of the
    unshifted blocks, (M f)^T (L + D) (M f) / f^T M f with f = C^-T y and
    M f = C y - sigma f, so sigma enters it only at second order.  The
    vectors come from M f alone, g = M f / E and f = (L + D) g / E: C^-T y
    amplifies M's Goldstone direction.  Same return value as
    `_banded_channel`; None when no shift factors M."""
    sigma = 0.0
    while (found := _product_form(minus_diag + sigma, plus_diag, offdiag,
                                  n_modes, zero_e2)) is None:
        if sigma > max_shift:
            return None
        sigma = 4.0 * sigma if sigma else (
            len(plus_diag) * np.finfo(float).eps
            * (np.abs(minus_diag).max() + 2.0 * abs(offdiag)))
    c, y, z, e2, zero = found
    keep = np.flatnonzero(~zero)[:n_modes]
    h = z[:, keep]
    if sigma:  # at sigma = 0, f^T M f = y^T y = 1 without the ill-conditioned solve
        f = _solve_ct(c, y[:, keep])
        h -= sigma * f
    qh = RadialOperator(plus_diag, offdiag).apply(h)
    e2 = np.einsum("ik,ik->k", h, qh)
    if sigma:
        e2 /= np.einsum("ik,ik->k", f, h)
    stable = e2 > 0.0
    energies = np.sqrt(e2[stable])
    g = h[:, stable] / energies
    f = qh[:, stable] / energies**2
    return np.sqrt(-e2[~stable]), energies, (f + g) / 2.0, (f - g) / 2.0, 2 * int(zero.sum())


def direct_grid_spectrum(
    state: CondensateState,
    params: PhysicalParams,
    grid: RadialGrid,
    l: int = 0,
    n_modes: int = 8,
) -> tuple[ModeSet, ModeSet]:
    """Lowest n_modes modes per species in channel l; the oracle for
    the other methods.

    Each channel is banded (module docstring), and where Delta = 0 its
    modes are the eigenpairs of L, negative levels included.  Modes come
    in ascending E^2: an instability (E^2 < 0) first, as a mode with
    energy 0.0, its growth rate in energy_imag and no vectors, then the
    positive-norm modes, normalized to integral(u^2 - v^2) = 1 with the
    largest |u| entry positive.  The Goldstone pair (|E|^2 at most
    ZERO_MODE_E2 * (hbar*omega_a)^2) is counted in ModeSet.skipped and
    logged at DEBUG.  The two species' channels are solved side by side
    (module docstring).

    Raises ConfigError unless l is an integer >= 0 and n_modes >= 1,
    and DomainError when neither L + Delta nor L - Delta is positive
    definite (E^2 may then be complex).
    """
    _require_grid(state, grid)
    l = require_count("l", l, 0)
    n_modes = require_count("n_modes", n_modes, 1)
    four_pi_h = 4.0 * np.pi * grid.h
    unit = params.hbar * params.omega_a
    zero_e2 = ZERO_MODE_E2 * unit**2

    def channel(species, plus, delta, mu):
        op = _operator(species, params, grid, l)
        plus_diag, minus_diag = _block_diagonals(op, plus, delta, mu)
        if not delta.any():
            # no anomalous term: E = eigenvalues of L, v = 0, signs kept
            energies, chi_u = RadialOperator(plus_diag, op.offdiag).eigensolve(n_modes)
            found = np.empty(0), energies, chi_u, np.zeros_like(chi_u), 0
        else:
            # a Goldstone zero lambda of L - Delta reads as E^2 ~ lambda*hbar*omega,
            # so shifts past ZERO_MODE_E2*hbar*omega_a exceed round-off of it
            found = (_banded_channel(plus_diag, minus_diag, op.offdiag, n_modes, zero_e2)
                     or _swapped_channel(plus_diag, minus_diag, op.offdiag, n_modes, zero_e2,
                                         ZERO_MODE_E2 * unit))
        if found is None:
            raise DomainError(
                f"{species} l={l}: neither L + Delta nor L - Delta is positive "
                "definite, so the BdG spectrum may be complex")
        rates, energies, chi_u, chi_v, goldstone = found
        u, v = _real_rows(chi_u, chi_v, four_pi_h)
        u /= grid.r
        v /= grid.r
        modes = [Mode(j=k, branch="+", energy=0.0, energy_imag=rate,
                      degeneracy=2 * l + 1, unstable=True)
                 for k, rate in enumerate(rates.tolist())]
        modes += [
            Mode(j=k, branch="+", energy=e, u=u_k, v=v_k, degeneracy=2 * l + 1, norm=1.0)
            for k, (e, u_k, v_k) in enumerate(zip(energies.tolist(), u, v), len(modes))
        ]
        return ModeSet(species=species, method="direct-grid", modes=modes, skipped=goldstone)

    def logged(modes):  # on this thread, in the serial order
        if modes.skipped:
            log.debug("%s l=%d: skipped the Goldstone pair (%d modes)",
                      modes.species, l, modes.skipped)
        return modes

    atom, molecule = _backgrounds(state, params)
    atoms, molecules = _side_by_side(lambda: logged(channel(*atom)),
                                     lambda: channel(*molecule))
    return atoms, logged(molecules)
