"""Per-mode reference implementations of the three spectrum methods.

`hybridbec.bdg` builds each species' mode block with whole-array numpy
operations and calls LAPACK directly.  The functions here keep the
earlier form of the same arithmetic: one loop iteration per level or
mode, the scipy.linalg wrappers (eigh_tridiagonal, cholesky_banded,
eig_banded, solve_banded) and the complex phase rotation of every grid
mode.  The whole-array versions must give the same Mode fields to the
bit, which `tests/test_bdg.py` checks.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

from hybridbec.bdg import (
    ATOM, MOLECULE, NORM_FLOOR, ZERO_MODE_E2, Mode, ModeSet, _background, bdg_matrix,
    basis_levels,
)
from hybridbec.gpe import _one_body, _operator
from hybridbec.grid import RadialOperator, harmonic_potential


def eigensolve(diag, offdiag, n_modes):
    """RadialOperator.eigensolve through scipy's eigh_tridiagonal."""
    n = len(diag)
    n_modes = min(n_modes, n)
    vals, vecs = scipy.linalg.eigh_tridiagonal(
        diag, np.full(n - 1, offdiag), select="i", select_range=(0, n_modes - 1))
    return vals, vecs * np.where(vecs[0] < 0.0, -1.0, 1.0)


def projection(species, state, params, grid, j_max, convention):
    levels = basis_levels(species, params, j_max, convention)
    mass, omega, _ = _one_body(species, params)
    op = RadialOperator.build(grid, mass, harmonic_potential(grid, mass, omega),
                              hbar=params.hbar)
    _, chi = eigensolve(op.diag, op.offdiag, j_max)
    plus, delta, mu = _background(species, state, params)
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


def dense_channel(mat, four_pi_h, n_modes, zero_e2):
    vals, vecs = scipy.linalg.eig(mat)
    n = mat.shape[0] // 2
    keep = []
    goldstone = nonnormalizable = 0
    for k in np.argsort(vals.real):
        s = four_pi_h * float((np.abs(vecs[:n, k]) ** 2 - np.abs(vecs[n:, k]) ** 2).sum())
        if abs(vals[k]) ** 2 <= zero_e2:
            goldstone += 1
        elif abs(s) <= NORM_FLOOR:
            nonnormalizable += 1
        elif s > 0.0:
            keep.append(k)
            if len(keep) >= n_modes:
                break
    return vals[keep], vecs[:n, keep], vecs[n:, keep], goldstone, nonnormalizable


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
                return None
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
            return None
        zero = np.abs(e2) <= zero_e2
        if count - zero.sum() >= n_modes or count == n:
            break
        count = min(n, 2 * count)
    energies = np.sqrt(e2[~zero][:n_modes])
    y = y[:, ~zero][:, :n_modes]
    g = scipy.linalg.solve_banded((0, 1), np.vstack([np.r_[0.0, b], a]), y)
    f = z[:, ~zero][:, :n_modes] / energies
    return energies, (f + g) / 2.0, (f - g) / 2.0, 2 * int(zero.sum()), 0


def direct_grid_spectrum(state, params, grid, l=0, n_modes=8):
    out = []
    four_pi_h = 4.0 * np.pi * grid.h
    zero_e2 = ZERO_MODE_E2 * (params.hbar * params.omega_a) ** 2
    for species in (ATOM, MOLECULE):
        plus, delta, mu = _background(species, state, params)
        op = _operator(species, params, grid, plus, l)
        plus_diag = op.diag - mu
        if not delta.any():
            energies, chi_u = eigensolve(plus_diag, op.offdiag, n_modes)
            found = energies, chi_u, np.zeros_like(chi_u), 0, 0
        else:
            found = banded_channel(plus_diag, op.offdiag, delta, n_modes, zero_e2)
        if found is None:
            found = dense_channel(
                bdg_matrix(state, params, grid, species, l), four_pi_h, n_modes, zero_e2)
        energies, chi_u, chi_v, goldstone, nonnormalizable = found
        modes = []
        for k, e in enumerate(energies):
            cu, cv = chi_u[:, k], chi_v[:, k]
            s = four_pi_h * float((np.abs(cu) ** 2 - np.abs(cv) ** 2).sum())
            scale = 1.0 / math.sqrt(s)
            unstable = abs(e.imag) > 1e-9 * max(1.0, abs(e.real))
            phase = np.exp(-1j * np.angle(cu[np.argmax(np.abs(cu))]))
            modes.append(Mode(
                j=k, branch="+", energy=float(e.real), energy_imag=float(e.imag),
                u=(cu * phase).real * scale / grid.r,
                v=(cv * phase).real * scale / grid.r,
                degeneracy=2 * l + 1, norm=1.0, unstable=unstable,
            ))
        out.append(ModeSet(species=species, method="direct-grid", modes=modes,
                           skipped=goldstone + nonnormalizable))
    return out[0], out[1]
