"""Quasiparticle excitation spectra over a converged condensate.

Three interchangeable methods solve the linearized fluctuation problem

    L u - Delta v = E u,   Delta u - L v = -E v,

with, for the atom sector,
    L = -hbar^2 grad^2/2M + V_a + lambda*phi_m^2 + 2*lambda_a*phi_a^2 - mu_a
    Delta(r) = lambda_a*phi_a^2 + 2*alpha*phi_m,
and for the molecule sector (mass 2M, trap V_m, detuning eps)
    L = -hbar^2 grad^2/4M + V_m + eps + lambda*phi_a^2 + 2*lambda_m*phi_m^2 - mu_m
    Delta(r) = lambda_m*phi_m^2.
The sectors decouple at this order; the conversion amplitude enters only
through the atom off-diagonal term.

Methods:

* ``direct_grid_spectrum``: the grid BdG problem per angular channel,
  with no further approximation; this is the oracle the other two are
  judged against.  With g = u - v and f = u + v it reads
  (L - Delta)(L + Delta) g = E^2 g.  The tridiagonal L + Delta is
  factored as C C^T (C bidiagonal), and the lowest eigenpairs of the
  symmetric pentadiagonal C^T (L - Delta) C give E^2, g = C^-T y and
  f = C y / E.  E^2 ~ 0 is the Goldstone mode and is skipped.  Where
  Delta = 0 the modes are the eigenpairs of L itself, negative levels
  included.  If L + Delta is not positive definite or some E^2 < 0
  (a dynamical instability), the channel falls back to diagonalizing
  the dense 2n x 2n block matrix.

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

Basis-level conventions: "paper" uses hbar*omega*(j + 1/2) for the
auxiliary level ladder; "oscillator3d" uses the true s-wave 3D oscillator
levels hbar*omega*(2j + 3/2).  The former is the default, the latter is
what actually matches the direct grid spectrum.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import ConfigError, SimulationError
from .gpe import ATOM, MOLECULE, CondensateState, _one_body, _operator
from .grid import RadialGrid, RadialOperator, harmonic_potential
from .params import PhysicalParams

log = logging.getLogger(__name__)

#: modes with |integral(u^2 - v^2)| below this are non-normalizable and skipped
NORM_FLOOR = 1e-10
#: |E^2| at or below this, in units of (hbar*omega_a)^2, marks the
#: Goldstone mode of the banded grid route
ZERO_MODE_E2 = 1e-6


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
    unstable   negative discriminant (basis) or complex eigenvalue (grid)
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
    """Spectrum of one species by one method."""

    species: str
    method: str
    modes: list[Mode] = field(default_factory=list)
    skipped: int = 0

    def energies(self, branch: str = "+") -> np.ndarray:
        return np.array([m.energy for m in self.modes if m.branch == branch])


def basis_levels(
    species: str, params: PhysicalParams, j_max: int, convention: str = "paper"
) -> np.ndarray:
    """Auxiliary level ladder hbar*omega*(j+1/2), j = 0..j_max-1.

    convention "oscillator3d" returns the s-wave 3D oscillator levels
    hbar*omega*(2j+3/2) instead; see module docstring.
    """
    if j_max < 1:
        raise ConfigError(f"j_max must be >= 1, got {j_max}")
    _, omega, _ = _one_body(species, params)
    j = np.arange(j_max, dtype=float)
    if convention == "paper":
        return params.hbar * omega * (j + 0.5)
    if convention == "oscillator3d":
        return params.hbar * omega * (2.0 * j + 1.5)
    raise ConfigError(f"unknown basis convention '{convention}'")


def oscillator_basis(
    species: str, params: PhysicalParams, grid: RadialGrid, j_max: int
) -> tuple[np.ndarray, np.ndarray]:
    """Lowest j_max s-wave oscillator states of the species' trap.

    Returns (levels, chi) where chi columns are reduced radial functions
    with sum(chi^2) = 1, so <j|f(r)|j> is just sum(f * chi[:, j]**2); the
    corresponding density-normalized amplitude is chi/(r*sqrt(4*pi*h)).
    """
    mass, omega, _ = _one_body(species, params)
    op = RadialOperator.build(
        grid, mass, harmonic_potential(grid, mass, omega), hbar=params.hbar
    )
    vals, vecs = op.eigensolve(j_max)
    if len(vals) < j_max:
        raise ConfigError(
            f"grid supports only {len(vals)} basis states, j_max={j_max}"
        )
    return vals, vecs


def _background(species: str, state: CondensateState, params: PhysicalParams):
    """Diagonal potential W(r) (beyond trap - mu) and off-diagonal Delta(r)."""
    p = params
    phi_a2 = state.phi_a**2
    phi_m2 = state.phi_m**2
    if species == ATOM:
        w = p.lambda_am * phi_m2 + 2.0 * p.lambda_a * phi_a2
        delta = p.lambda_a * phi_a2 + 2.0 * p.alpha * state.phi_m
        mu = state.mu_a
    else:
        w = p.lambda_am * phi_a2 + 2.0 * p.lambda_m * phi_m2
        delta = p.lambda_m * phi_m2
        mu = state.mu_m
    return w, delta, mu


def _projection(species, state, params, grid, j_max, convention):
    """Common setup of the basis methods: level ladder, basis chi columns,
    the background with the one-body offset (eps for molecules) folded
    into W, and the density-normalized amplitude of each basis state."""
    levels = basis_levels(species, params, j_max, convention)
    _, chi = oscillator_basis(species, params, grid, j_max)
    w, delta, mu = _background(species, state, params)
    w = w + _one_body(species, params)[2]
    amp = chi / (grid.r[:, None] * math.sqrt(4.0 * np.pi * grid.h))
    return levels, chi, w, delta, mu, amp


def _weighted_average(values: np.ndarray, weights: np.ndarray) -> float:
    # exact for constant arrays: keeps the zero-coupling limit bit-identical
    # with the scalar arithmetic of the block method
    if values.size and np.all(values == values[0]):
        return float(values[0])
    total = float(np.sum(weights))
    if total <= 0.0:
        return float(np.mean(values))
    return float(np.dot(weights, values)) / total


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
    density, "volume" by the bare volume element.

    strict_literal drops the lambda*phi_a^2 term from the molecule
    bracket, which the closed form omits even though the projected
    operator includes it; the default keeps the two consistent.

    Coefficients follow f = Delta/(H - E^2) with no regularization; modes with
    f <= 1 get a negative discriminant and are flagged unstable instead
    of raising.  Stable modes are renormalized to integral(u^2-v^2) = +-1
    and the raw A, B are kept in coeff_u, coeff_v.
    """
    if averaging not in ("density", "volume"):
        raise ConfigError(f"unknown averaging '{averaging}'")
    out = []
    for species in (ATOM, MOLECULE):
        levels, _, w, delta, mu, amp = _projection(
            species, state, params, grid, j_max, convention)
        if species == MOLECULE and strict_literal:
            w -= params.lambda_am * state.phi_a**2
        dens = state.phi_a**2 if species == ATOM else state.phi_m**2
        weights = grid.w * dens if averaging == "density" else grid.w
        if float(np.sum(weights)) <= 0.0:
            weights = grid.w

        modes = []
        for j in range(j_max):
            h_of_r = levels[j] - mu + w
            for sgn, branch in ((1.0, "+"), (-1.0, "-")):
                e_avg = _weighted_average(sgn * (delta - h_of_r), weights)
                h_bar = _weighted_average(h_of_r, weights)
                d_bar = _weighted_average(delta, weights)
                mode = Mode(j=j, branch=branch, energy=e_avg)
                denom = h_bar - e_avg**2
                f = d_bar / denom if denom != 0.0 else math.inf
                if f > 1.0 and math.isfinite(f):
                    b = math.sqrt(1.0 / (f - 1.0))
                    a = f * b
                    scale = math.sqrt(a * a - b * b)  # = sqrt(f + 1)
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
    """
    out = []
    for species in (ATOM, MOLECULE):
        levels, chi, w, delta, mu, amp = _projection(
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
                    # e_mag == 0: Goldstone-like boundary, coefficients diverge
                else:
                    mode.energy = 0.0
                    mode.energy_imag = sgn * math.sqrt(-disc)
                    mode.unstable = True
                modes.append(mode)
        modes.sort(key=lambda m: (m.branch, m.energy))
        out.append(ModeSet(species=species, method="block-2x2", modes=modes))
    return out[0], out[1]


def bdg_matrix(
    state: CondensateState,
    params: PhysicalParams,
    grid: RadialGrid,
    species: str = ATOM,
    l: int = 0,
) -> np.ndarray:
    """Dense 2n x 2n block matrix [[L, -Delta], [Delta, -L]] for one
    angular channel, acting on stacked reduced functions (r*u, r*v)."""
    p = params
    w, delta, mu = _background(species, state, p)
    op = _operator(species, p, grid, w, l)
    n = grid.n_points
    l_block = np.diag(op.diag - mu) + op.offdiag * (
        np.eye(n, k=1) + np.eye(n, k=-1)
    )
    d_block = np.diag(delta)
    top = np.hstack([l_block, -d_block])
    bot = np.hstack([d_block, -l_block])
    return np.vstack([top, bot])


def _dense_channel(mat, four_pi_h, n_modes):
    """Lowest positive-norm eigenpairs of the dense 2n x 2n BdG matrix:
    (energies, chi_u columns, chi_v columns, skipped).  Near-zero-norm
    pairs met on the way (Goldstone remnants) are counted as skipped."""
    try:
        vals, vecs = scipy.linalg.eig(mat)
    except scipy.linalg.LinAlgError as exc:
        raise SimulationError(f"BdG eigensolver failed: {exc}") from exc
    n = mat.shape[0] // 2
    keep = []
    skipped = 0
    for k in np.argsort(vals.real):
        s = four_pi_h * float((np.abs(vecs[:n, k]) ** 2 - np.abs(vecs[n:, k]) ** 2).sum())
        if abs(s) <= NORM_FLOOR:
            skipped += 1
        elif s > 0.0:
            # negative norms are mirror partners (E -> -E, u <-> v); the
            # positive-norm family carries the same information
            keep.append(k)
            if len(keep) >= n_modes:
                break
    return vals[keep], vecs[:n, keep], vecs[n:, keep], skipped


def _banded_channel(l_diag, offdiag, delta, n_modes, zero_e2):
    """Lowest modes from (L - D)(L + D) g = E^2 g, g = u - v, as
    (energies, chi_u columns, chi_v columns, skipped).

    L + D = C C^T is a tridiagonal Cholesky (C lower bidiagonal), so
    K = C^T (L - D) C is symmetric pentadiagonal with K y = E^2 y,
    g = C^-T y and f = u + v = C y / E.  eig_banded gives the lowest
    eigenvalues, inverse iteration on K the vectors.  Eigenvalues with
    |E^2| <= zero_e2 are the Goldstone mode, counted as its skipped
    pair.  None when L + D is not positive definite or some
    E^2 < -zero_e2 (unstable).
    """
    n = len(l_diag)
    try:
        c = scipy.linalg.cholesky_banded(
            np.vstack([l_diag + delta, np.full(n, offdiag)]), lower=True)
    except scipy.linalg.LinAlgError:
        return None
    a, b = c[0], c[1, :-1]
    d = l_diag - delta
    band = np.zeros((3, n))  # lower band storage of K
    band[0] = a * a * d
    band[0, :-1] += b * (2.0 * offdiag * a[:-1] + b * d[1:])
    band[1, :-1] = a[1:] * (offdiag * a[:-1] + b * d[1:])
    band[1, :-2] += offdiag * b[1:] * b[:-1]
    band[2, :-2] = offdiag * a[2:] * b[:-1]
    # K in the general band storage of solve_banded, for inverse iteration
    full = np.zeros((5, n))
    full[0, 2:], full[1, 1:] = band[2, :-2], band[1, :-1]
    full[2:] = band
    count = min(n, n_modes + 2)
    while True:
        # eigenvalues alone cost O(n^2) where eig_banded's eigenvectors
        # cost O(n^3); each vector then takes two O(n) banded solves,
        # which reach round-off from a flat start (one leaves ~1e-6 of
        # the neighbouring modes at 800 points)
        e2 = scipy.linalg.eig_banded(band, lower=True, select="i",
                                     select_range=(0, count - 1), eigvals_only=True)
        y = np.empty((n, count))
        for k, shift in enumerate(e2):
            shifted = full.copy()
            shifted[2] -= shift
            x = np.ones(n)
            try:
                for _ in range(2):
                    x = scipy.linalg.solve_banded((2, 2), shifted, x)
                    x /= np.linalg.norm(x)
            except scipy.linalg.LinAlgError:  # shift hit an exact pivot zero
                return None
            y[:, k] = x
        # E^2 as the Rayleigh quotient y^T K y = z^T (L - D) z, z = C y,
        # taken in factored form: its round-off scales with ||L||, where
        # eig_banded's eigenvalues carry eps*||K|| ~ eps*||L||^2
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
    return energies, (f + g) / 2.0, (f - g) / 2.0, 2 * int(zero.sum())


def direct_grid_spectrum(
    state: CondensateState,
    params: PhysicalParams,
    grid: RadialGrid,
    l: int = 0,
    n_modes: int = 8,
) -> tuple[ModeSet, ModeSet]:
    """Lowest n_modes positive-norm modes per species in channel l; the
    oracle for the other methods.

    Each channel takes one of three routes (module docstring): the
    tridiagonal eigensolve of L when Delta = 0, the banded product form
    (L - Delta)(L + Delta) g = E^2 g otherwise, and the dense 2n x 2n
    eigensolve when L + Delta is not positive definite or a mode is
    unstable.  Modes are normalized to integral(u^2 - v^2) = 1 with the
    largest |u| entry positive.  The Goldstone pair (E^2 ~ 0, or norm
    ~ 0 on the dense route) is counted in ModeSet.skipped.  Complex
    eigenvalues of the dense route are kept only if their norm is
    meaningful, flagged unstable.
    """
    out = []
    four_pi_h = 4.0 * np.pi * grid.h
    zero_e2 = ZERO_MODE_E2 * (params.hbar * params.omega_a) ** 2
    for species in (ATOM, MOLECULE):
        w, delta, mu = _background(species, state, params)
        op = _operator(species, params, grid, w, l)
        l_diag = op.diag - mu
        if not delta.any():
            # no anomalous term: E = eigenvalues of L, v = 0, signs kept
            energies, chi_u = RadialOperator(l_diag, op.offdiag).eigensolve(n_modes)
            found = energies, chi_u, np.zeros_like(chi_u), 0
        else:
            found = _banded_channel(l_diag, op.offdiag, delta, n_modes, zero_e2)
        if found is None:
            log.debug("%s l=%d: dense BdG eigensolve", species, l)
            found = _dense_channel(
                bdg_matrix(state, params, grid, species, l), four_pi_h, n_modes)
        energies, chi_u, chi_v, skipped = found
        modes = []
        for k, e in enumerate(energies):
            cu, cv = chi_u[:, k], chi_v[:, k]
            s = four_pi_h * float((np.abs(cu) ** 2 - np.abs(cv) ** 2).sum())
            scale = 1.0 / math.sqrt(s)
            unstable = abs(e.imag) > 1e-9 * max(1.0, abs(e.real))
            # positive-norm eigenvectors of real problems are real up to
            # a global phase; rotate it away before storing
            phase = np.exp(-1j * np.angle(cu[np.argmax(np.abs(cu))]))
            modes.append(
                Mode(
                    j=k, branch="+", energy=float(e.real),
                    energy_imag=float(e.imag),
                    u=(cu * phase).real * scale / grid.r,
                    v=(cv * phase).real * scale / grid.r,
                    degeneracy=2 * l + 1, norm=1.0, unstable=unstable,
                )
            )
        if skipped:
            log.warning(
                "%s l=%d: skipped %d non-normalizable BdG modes",
                species, l, skipped,
            )
        out.append(
            ModeSet(species=species, method="direct-grid", modes=modes,
                    skipped=skipped)
        )
    return out[0], out[1]
