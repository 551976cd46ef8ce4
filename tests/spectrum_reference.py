"""Reference implementations of the spectrum methods.

`hybridbec.bdg` builds each species' mode block with whole-array numpy
operations and calls LAPACK directly.  The per-mode functions here keep
the earlier form of the same arithmetic: one loop iteration per level or
mode, the scipy.linalg wrappers (eigh_tridiagonal, cholesky_banded,
eig_banded, solve_banded) and the complex phase rotation of every grid
mode.  The whole-array versions must give the same Mode fields to the
bit, which `tests/test_bdg.py` checks.  The grid reference covers the
Delta = 0 route and the stable channels where L + Delta is positive
definite (the product form's A order); elsewhere it gives None.  Each
species reads its L + Delta terms from a `gpe._second_variation` call
of its own, where `bdg` makes one call per spectrum for both species, and
its Delta from the formulas written out here.  The grid reference sums
the diagonals of L + Delta and L - Delta in the order `bdg` takes from
`gpe._block_diagonals`: one-body operator, then the local terms, then
-mu; L - Delta is L + Delta - 2 Delta.

`lapack_eigensolve` is `RadialOperator.eigensolve` through scipy's f2py
`stebz` and `stein` wrappers, which `hybridbec.grid` calls through ctypes.

`bdg_matrix` and `dense_spectrum` are the independent check of every
grid channel: the dense 2n x 2n BdG matrix and its full complex
eigensolve.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

from hybridbec.bdg import (
    ATOM, MOLECULE, ZERO_MODE_E2, Mode, ModeSet, basis_levels,
)
from hybridbec.gpe import _one_body, _operator, _second_variation
from hybridbec.grid import RadialOperator, harmonic_potential


def eigensolve(diag, offdiag, n_modes):
    """RadialOperator.eigensolve through scipy's eigh_tridiagonal."""
    n = len(diag)
    n_modes = min(n_modes, n)
    vals, vecs = scipy.linalg.eigh_tridiagonal(
        diag, np.full(n - 1, offdiag), select="i", select_range=(0, n_modes - 1))
    return vals, vecs * np.where(vecs[0] < 0.0, -1.0, 1.0)


_STEBZ, _STEIN = scipy.linalg.get_lapack_funcs(("stebz", "stein"), dtype=np.float64)


def lapack_eigensolve(diag, offdiag, n_modes):
    """RadialOperator.eigensolve through scipy's f2py stebz and stein
    wrappers, with the arguments eigh_tridiagonal(select="i") passes."""
    n = len(diag)
    n_modes = min(n_modes, n)
    off = np.full(n - 1, offdiag)
    m, vals, block, split, info = _STEBZ(diag, off, 2, 0.0, 1.0, 1, n_modes, 0.0, "B")
    if not info:
        vecs, info = _STEIN(diag, off, vals[:m], block, split)
    if info:
        raise scipy.linalg.LinAlgError(f"tridiagonal eigensolve failed (LAPACK info {info})")
    order = np.argsort(vals[:m])
    vals, vecs = vals[:m][order], vecs[:, order]
    return vals, vecs * np.where(vecs[0] < 0.0, -1.0, 1.0)


def background(species, state, params):
    """(plus, delta, mu) of one species, plus from its own second variation."""
    p = params
    k_a, k_m = _second_variation(p, state.phi_a, state.phi_m)[:2]
    if species == ATOM:
        return k_a, p.lambda_a * state.phi_a**2 + 2.0 * p.alpha * state.phi_m, state.mu_a
    return k_m, p.lambda_m * state.phi_m**2, state.mu_m


def projection(species, state, params, grid, j_max, convention):
    levels = basis_levels(species, params, j_max, convention)
    mass, omega, _ = _one_body(species, params)
    op = RadialOperator.build(grid, mass, harmonic_potential(grid, mass, omega),
                              hbar=params.hbar)
    _, chi = eigensolve(op.diag, op.offdiag, j_max)
    plus, delta, mu = background(species, state, params)
    w = plus - delta + _one_body(species, params)[2]
    amp = chi / (grid.r[:, None] * math.sqrt(4.0 * np.pi * grid.h))
    return levels, chi, w, delta, mu, amp


def weighted_average(values, weights):
    if np.all(values == values[0]):
        return float(values[0])
    return float(np.dot(weights, values)) / float(np.sum(weights))


def paper_literal_spectrum(state, params, grid, j_max=16, averaging="density",
                           convention="paper", strict_literal=False):
    out = []
    for species in (ATOM, MOLECULE):
        levels, _, w, delta, mu, amp = projection(
            species, state, params, grid, j_max, convention)
        if species == MOLECULE and strict_literal:
            w -= params.lambda_am * state.phi_a**2
        dens = state.phi_a**2 if species == ATOM else state.phi_m**2
        weights = grid.w * dens if averaging == "density" else grid.w
        if float(np.sum(weights)) <= 0.0:
            weights = grid.w
        d_bar = weighted_average(delta, weights)
        modes = []
        for j in range(j_max):
            h_of_r = levels[j] - mu + w
            h_bar = weighted_average(h_of_r, weights)
            for sgn, branch in ((1.0, "+"), (-1.0, "-")):
                e_avg = weighted_average(sgn * (delta - h_of_r), weights)
                mode = Mode(j=j, branch=branch, energy=e_avg)
                denom = h_bar - e_avg**2
                f = d_bar / denom if denom != 0.0 else math.inf
                if f > 1.0 and math.isfinite(f):
                    b = math.sqrt(1.0 / (f - 1.0))
                    a = f * b
                    scale = math.sqrt(a * a - b * b)
                    mode.u = (a / scale) * amp[:, j]
                    mode.v = (b / scale) * amp[:, j]
                    mode.coeff_u = a
                    mode.coeff_v = b
                    mode.norm = 1.0
                else:
                    mode.unstable = True
                modes.append(mode)
        modes.sort(key=lambda m: (m.branch, m.energy))
        out.append(ModeSet(species=species, method="paper-literal", modes=modes))
    return out[0], out[1]


def block_2x2_spectrum(state, params, grid, j_max=16, convention="paper"):
    out = []
    for species in (ATOM, MOLECULE):
        levels, chi, w, delta, mu, amp = projection(
            species, state, params, grid, j_max, convention)
        modes = []
        for j in range(j_max):
            chi2 = chi[:, j] ** 2
            h = levels[j] + float(np.dot(w, chi2)) - mu
            d = float(np.dot(delta, chi2))
            disc = h * h - d * d
            for sgn, branch in ((1.0, "+"), (-1.0, "-")):
                mode = Mode(j=j, branch=branch, energy=math.nan)
                if disc >= 0.0:
                    e_mag = math.sqrt(disc)
                    e_plus = e_mag if h >= 0.0 else -e_mag
                    mode.energy = sgn * e_plus
                    if e_mag > 0.0:
                        a2 = (abs(h) / e_mag + 1.0) / 2.0
                        a = math.sqrt(a2)
                        b = math.copysign(math.sqrt(a2 - 1.0), d) if a2 > 1.0 else 0.0
                        if sgn > 0:
                            mode.coeff_u, mode.coeff_v = a, b
                            mode.u, mode.v = a * amp[:, j], b * amp[:, j]
                            mode.norm = 1.0
                        else:
                            mode.coeff_u, mode.coeff_v = b, a
                            mode.u, mode.v = b * amp[:, j], a * amp[:, j]
                            mode.norm = -1.0
                else:
                    mode.energy = 0.0
                    mode.energy_imag = sgn * math.sqrt(-disc)
                    mode.unstable = True
                modes.append(mode)
        modes.sort(key=lambda m: (m.branch, m.energy))
        out.append(ModeSet(species=species, method="block-2x2", modes=modes))
    return out[0], out[1]


def bdg_matrix(state, params, grid, species=ATOM, l=0):
    """Dense 2n x 2n block matrix [[L, -Delta], [Delta, -L]] for one
    angular channel, acting on stacked reduced functions (r*u, r*v)."""
    plus, delta, mu = background(species, state, params)
    op = _operator(species, params, grid, l)
    n = grid.n_points
    l_block = np.diag(op.diag + (plus - delta) - mu) \
        + op.offdiag * (np.eye(n, k=1) + np.eye(n, k=-1))
    d_block = np.diag(delta)
    return np.block([[l_block, -d_block], [d_block, -l_block]])


def dense_spectrum(state, params, grid, species, l, n_modes):
    """The lowest n_modes modes of one channel from the full complex
    eigensolve of `bdg_matrix`, in the order of direct_grid_spectrum, and
    the count of skipped eigenvalues: ([(E, u, v), ...], skipped).

    Where Delta != 0, |E|^2 <= ZERO_MODE_E2 (hbar*omega_a)^2 is the
    Goldstone pair and skipped (without an anomalous term there is none,
    and a level near mu is a mode).  A purely imaginary pair is one
    unstable mode, E = i*rate with u = v = None, listed first by
    decreasing rate; the positive-norm real modes follow in ascending E,
    normalized to 4*pi*h * sum(|r u|^2 - |r v|^2) = 1 with the largest |u|
    entry real and positive."""
    n = grid.n_points
    mat = bdg_matrix(state, params, grid, species, l)
    vals, vecs = scipy.linalg.eig(mat)
    zero_e2 = ZERO_MODE_E2 * (params.hbar * params.omega_a) ** 2 if mat[:n, n:].any() else -1.0
    unstable, stable, skipped = [], [], 0
    for k in np.argsort(vals.real):
        e, cu, cv = vals[k], vecs[:n, k], vecs[n:, k]
        if abs(e) ** 2 <= zero_e2:
            skipped += 1
        elif abs(e.imag) > 1e-9 * max(1.0, abs(e.real)):
            assert abs(e.real) <= 1e-9 * abs(e.imag), f"complex E = {e}"
            if e.imag > 0.0:
                unstable.append((e, None, None))
        else:
            norm = 4.0 * np.pi * grid.h * float((np.abs(cu) ** 2 - np.abs(cv) ** 2).sum())
            if norm > 0.0:
                phase = np.exp(-1j * np.angle(cu[np.argmax(np.abs(cu))])) / np.sqrt(norm)
                stable.append((e, (cu * phase).real / grid.r, (cv * phase).real / grid.r))
    unstable.sort(key=lambda mode: -mode[0].imag)
    return (unstable + stable)[:n_modes], skipped


def banded_channel(plus_diag, offdiag, delta, n_modes, zero_e2):
    n = len(plus_diag)
    try:
        c = scipy.linalg.cholesky_banded(
            np.vstack([plus_diag, np.full(n, offdiag)]), lower=True)
    except scipy.linalg.LinAlgError:
        return None
    a, b = c[0], c[1, :-1]
    d = plus_diag - 2.0 * delta
    band = np.zeros((3, n))
    band[0] = a * a * d
    band[0, :-1] += b * (2.0 * offdiag * a[:-1] + b * d[1:])
    band[1, :-1] = a[1:] * (offdiag * a[:-1] + b * d[1:])
    band[1, :-2] += offdiag * b[1:] * b[:-1]
    band[2, :-2] = offdiag * a[2:] * b[:-1]
    full = np.zeros((7, n))
    full[2, 2:], full[3, 1:] = band[2, :-2], band[1, :-1]
    full[4:] = band
    count = min(n, n_modes + 2)
    while True:
        e2 = scipy.linalg.eig_banded(band, lower=True, select="i",
                                     select_range=(0, count - 1), eigvals_only=True)
        y = np.empty((n, count))
        for k, shift in enumerate(e2):
            shifted = full.copy()
            shifted[4] -= shift
            lu, piv, info = scipy.linalg.lapack.dgbtrf(shifted, 2, 2, overwrite_ab=1)
            if info:
                return None  # a zero pivot: not covered
            x = np.ones(n)
            for _ in range(2):
                x, _ = scipy.linalg.lapack.dgbtrs(lu, 2, 2, x, piv)
                x /= np.linalg.norm(x)
            y[:, k] = x
        z = a[:, None] * y
        z[1:] += b[:, None] * y[:-1]
        dz = d[:, None] * z
        dz[:-1] += offdiag * z[1:]
        dz[1:] += offdiag * z[:-1]
        e2 = np.einsum("ik,ik->k", z, dz)
        if e2.min() < -zero_e2:
            return None  # unstable: not covered
        zero = np.abs(e2) <= zero_e2
        if count - zero.sum() >= n_modes or count == n:
            break
        count = min(n, 2 * count)
    energies = np.sqrt(e2[~zero][:n_modes])
    y = y[:, ~zero][:, :n_modes]
    g = scipy.linalg.solve_banded((0, 1), np.vstack([np.r_[0.0, b], a]), y)
    f = z[:, ~zero][:, :n_modes] / energies
    return energies, (f + g) / 2.0, (f - g) / 2.0, 2 * int(zero.sum())


def direct_grid_spectrum(state, params, grid, l=0, n_modes=8):
    out = []
    four_pi_h = 4.0 * np.pi * grid.h
    zero_e2 = ZERO_MODE_E2 * (params.hbar * params.omega_a) ** 2
    for species in (ATOM, MOLECULE):
        plus, delta, mu = background(species, state, params)
        op = _operator(species, params, grid, l)
        plus_diag = op.diag + plus - mu
        if not delta.any():
            energies, chi_u = eigensolve(plus_diag, op.offdiag, n_modes)
            found = energies, chi_u, np.zeros_like(chi_u), 0
        else:
            found = banded_channel(plus_diag, op.offdiag, delta, n_modes, zero_e2)
        if found is None:
            out.append(None)
            continue
        energies, chi_u, chi_v, goldstone = found
        modes = []
        for k, e in enumerate(energies):
            cu, cv = chi_u[:, k], chi_v[:, k]
            s = four_pi_h * float((np.abs(cu) ** 2 - np.abs(cv) ** 2).sum())
            scale = 1.0 / math.sqrt(s)
            phase = np.exp(-1j * np.angle(cu[np.argmax(np.abs(cu))]))
            modes.append(Mode(
                j=k, branch="+", energy=float(e),
                u=(cu * phase).real * scale / grid.r,
                v=(cv * phase).real * scale / grid.r,
                degeneracy=2 * l + 1, norm=1.0,
            ))
        out.append(ModeSet(species=species, method="direct-grid", modes=modes,
                           skipped=goldstone))
    return out[0], out[1]
