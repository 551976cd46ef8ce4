"""Uniform radial grid and spherically symmetric one-body operators.

Fields are isotropic, so everything lives on r_i = i*h, i = 1..n, with
h = r_max/n (last node on r_max).  Reduced functions chi(r) = r*phi(r)
satisfy chi(0) = 0 exactly for regular phi; the outer Dirichlet wall
sits one spacing past the last node, an O(exp) truncation for trapped
states that decay well before r_max.

Quadrature: sum_i 4*pi*r_i^2*h * f(r_i) approximates the volume
integral of an isotropic f.  The kinetic operator acts on chi through
the standard 3-point Laplacian, second-order accurate in h.
"""

from __future__ import annotations

import ctypes
import functools
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.linalg.cython_lapack

from .errors import ConfigError, require_count, require_finite, require_positive


@dataclass(frozen=True, eq=False)
class RadialGrid:
    """Radial mesh r_i = i*h (endpoints excluded) plus volume weights."""

    r_max: float
    n_points: int
    h: float = field(init=False)
    r: np.ndarray = field(init=False)
    w: np.ndarray = field(init=False)

    def __post_init__(self):
        require_positive("r_max", require_finite("r_max", self.r_max))
        n = require_count("n_points", self.n_points, 16)
        h = self.r_max / n
        r = h * np.arange(1, n + 1, dtype=float)
        with np.errstate(over="ignore"):
            w = 4.0 * np.pi * r**2 * h
        # w rises with r: its first entry underflows first, its last overflows
        if not 0.0 < w[0] <= w[-1] < math.inf:
            raise ConfigError(f"r_max = {self.r_max!r} with n_points = {n} gives volume "
                              f"weights 4*pi*r^2*h that are not positive finite floats")
        object.__setattr__(self, "n_points", n)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "w", w)

    def integrate(self, values: np.ndarray) -> float:
        """Volume integral of an isotropic field sampled on the grid."""
        return float(np.dot(self.w, values))

    def norm(self, phi: np.ndarray) -> float:
        """Particle number integral(|phi|^2 d^3r)."""
        return self.integrate(np.abs(phi) ** 2)

    @functools.cached_property
    def _r_squared(self) -> np.ndarray:
        """r^2, computed on the first call and kept with the grid."""
        return self.r**2

    def rms_width(self, phi: np.ndarray, density: np.ndarray | None = None) -> float:
        """sqrt(<r^2>) of |phi|^2; collapse indicator when ~ few h.  A
        caller that has |phi|^2 already passes it as density."""
        density = np.abs(phi) ** 2 if density is None else density
        n = self.integrate(density)
        if n <= 0.0:
            return 0.0
        return math.sqrt(self.integrate(self._r_squared * density) / n)


def build_grid(r_max: float = 8.0, n_points: int = 400) -> RadialGrid:
    return RadialGrid(r_max=r_max, n_points=n_points)


def harmonic_potential(grid: RadialGrid, mass: float, omega: float) -> np.ndarray:
    """V(r) = (1/2) * mass * omega^2 * r^2 on the grid.  Raises
    ConfigError when V at the last node is past the floats."""
    try:
        coeff = 0.5 * mass * omega**2
    except OverflowError:  # omega**2 past the floats
        coeff = math.inf
    with np.errstate(over="ignore"):
        v = coeff * grid.r**2
    if not math.isfinite(v[-1]):
        raise ConfigError(f"trap term mass*omega^2*r^2/2 at r_max = {grid.r_max!r} is not a "
                          f"finite float for mass = {mass!r} and omega = {omega!r} "
                          f"(omega_a or omega_m)")
    return v


_GTSV, = scipy.linalg.get_lapack_funcs(("gtsv",), dtype=np.float64)
_CAPSULE_NAME = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
    ("PyCapsule_GetName", ctypes.pythonapi))
_CAPSULE_POINTER = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
    ("PyCapsule_GetPointer", ctypes.pythonapi))


def _lapack(name: str, n_chars: int, n_pointers: int):
    """LAPACK routine `name` of scipy.linalg.cython_lapack as a ctypes
    function of n_chars character and then n_pointers pointer arguments.
    ctypes releases the GIL for the length of each call."""
    capsule = scipy.linalg.cython_lapack.__pyx_capi__[name]
    address = _CAPSULE_POINTER(capsule, _CAPSULE_NAME(capsule))
    return ctypes.CFUNCTYPE(
        None, *[ctypes.c_char_p] * n_chars, *[ctypes.c_void_p] * n_pointers)(address)


_STEBZ = _lapack("dstebz", 2, 16)
_STEIN = _lapack("dstein", 0, 13)
_SBEVX = _lapack("dsbevx", 3, 19)
#: stebz's vl, vu and abstol, then il, as scipy's stebz wrapper passes
#: them for eigh_tridiagonal(select="i")
_STEBZ_REALS = np.array([0.0, 1.0, 0.0])
_STEBZ_IL = np.array([1], dtype=np.int32)
_VL, _VU, _ABSTOL = (_STEBZ_REALS.ctypes.data + 8 * k for k in range(3))
_IL = _STEBZ_IL.ctypes.data


@dataclass(frozen=True, eq=False)
class RadialOperator:
    """Tridiagonal operator -(hbar^2/2m) d^2/dr^2 + diag acting on chi = r*phi.

    For angular momentum l the centrifugal term l(l+1)*hbar^2/(2m r^2)
    is folded into `diag` by the caller.  Symmetric, so eigensolves use
    the dedicated tridiagonal routine.
    """

    diag: np.ndarray
    offdiag: float

    @classmethod
    def build(
        cls,
        grid: RadialGrid,
        mass: float,
        potential: np.ndarray,
        hbar: float = 1.0,
        l: int = 0,
    ) -> "RadialOperator":
        try:
            k = hbar**2 / (2.0 * mass * grid.h**2)
        except (OverflowError, ZeroDivisionError):  # a power past the floats, or 0.0
            k = math.inf
        if not math.isfinite(k):
            raise ConfigError(f"kinetic scale hbar^2/(2*mass*h^2) with hbar = {hbar!r}, mass = "
                              f"{mass!r} and h = r_max/n_points = {grid.h!r} is not a finite float")
        diag = 2.0 * k + np.asarray(potential, dtype=float)
        if l > 0:
            diag = diag + l * (l + 1) * hbar**2 / (2.0 * mass * grid.r**2)
        return cls(diag=diag, offdiag=-k)

    def apply(self, chi: np.ndarray) -> np.ndarray:
        """The operator on chi, one vector or one per column."""
        out = (self.diag if chi.ndim == 1 else self.diag[:, None]) * chi
        out[:-1] += self.offdiag * chi[1:]
        out[1:] += self.offdiag * chi[:-1]
        return out

    def eigensolve(self, n_modes: int) -> tuple[np.ndarray, np.ndarray]:
        """Lowest eigenpairs; columns of the second return are chi vectors
        normalized to sum(chi^2) = 1 with chi[0] >= 0.

        Calls LAPACK stebz (bisection by index, block order, abstol 0) and
        stein (inverse iteration), the routines and arguments of
        eigh_tridiagonal(select="i"), so the pairs are the same to the bit.
        They are called through ctypes from scipy.linalg.cython_lapack,
        the same routines in the same library as scipy's wrappers, because
        ctypes releases the GIL for each call where the wrappers hold it:
        eigensolves on two threads run side by side.  Every array of both
        calls lives in one float64 workspace, so its address is looked up
        once.  The wrappers' finiteness check is kept: stebz returns
        eigenvalues for a NaN diagonal without an error.
        """
        n = len(self.diag)
        n_modes = min(n_modes, n)
        if n_modes < 1:
            raise ValueError(f"n_modes must be >= 1, got {n_modes}")
        if not (np.isfinite(self.diag).all() and math.isfinite(self.offdiag)):
            raise ValueError("array must not contain infs or NaNs")
        # doubles d, e, w (n each), work (5n) and z (n x n_modes, Fortran
        # order), then int32 n, iu, m, nsplit, info, iblock, isplit (n
        # each), iwork (3n) and ifail (n_modes); stebz finds m = n_modes
        # levels unless its info is set
        zend = 8 * n + n * n_modes
        space = np.empty(zend + (5 * n + n_modes + 6) // 2)
        space[:n] = self.diag
        space[n:2 * n - 1] = self.offdiag
        ints = space[zend:].view(np.int32)
        ints[:2] = n, n_modes
        base = space.ctypes.data
        d, e, w, work, z = (base + 8 * k for k in (0, n, 2 * n, 3 * n, 8 * n))
        n_, iu, m_, nsplit, info_, iblock, isplit, iwork, ifail = (
            base + 8 * zend + 4 * k for k in (0, 1, 2, 3, 4, 5, 5 + n, 5 + 2 * n, 5 + 5 * n))
        _STEBZ(b"I", b"B", n_, _VL, _VU, _IL, iu, _ABSTOL, d, e, m_, nsplit, w,
               iblock, isplit, work, iwork, info_)
        m, info = int(ints[2]), ints[4]
        if not info:
            _STEIN(n_, d, e, m_, w, iblock, isplit, z, n_, work, iwork, ifail, info_)
            info = ints[4]
        if info:
            raise scipy.linalg.LinAlgError(f"tridiagonal eigensolve failed (LAPACK info {info})")
        vals, vecs = space[2 * n:2 * n + m], space[8 * n:8 * n + n * m].reshape(m, n).T
        order = np.argsort(vals)  # block order to ascending order
        vals, vecs = vals[order], vecs[:, order]
        signs = np.where(vecs[0] < 0.0, -1.0, 1.0)
        return vals, vecs * signs


def band_eigenvalues(band: np.ndarray, by_index: bool, low, high,
                     abstol: float = 0.0) -> np.ndarray:
    """Ascending eigenvalues of the symmetric band matrix in lower band
    storage `band` (kd + 1 rows of n columns): by_index the low-th to
    the high-th, counted from 1, else those in the interval (low, high].

    Calls LAPACK sbevx for eigenvalues alone with the arguments of scipy's
    sbevx wrapper at compute_v=0, lower=1 (ldq = ldz = 1, work 7n, iwork
    5n), so they are the wrapper's to the bit.  It is called through
    ctypes for the reason `RadialOperator.eigensolve` gives: the
    wrapper holds the GIL for the whole bisection, ctypes releases it.
    sbevx reduces a copy of band in one workspace that holds every array
    of the call; band is kept.  Like the wrapper, no finiteness check.
    Raises scipy.linalg.LinAlgError when LAPACK reports a failure.
    """
    rows, n = band.shape
    # doubles ab (rows x n, Fortran order), w (n), work (7n), vl, vu,
    # abstol, q and z, then int32 n, kd, ldab, il, iu, ldq = ldz, m,
    # info, ifail and iwork (5n)
    reals = rows * n + 8 * n
    space = np.empty(reals + 5 + (5 * n + 10) // 2)
    vl, vu, il, iu = (0.0, 0.0, low, high) if by_index else (low, high, 1, 1)
    space[:rows * n].reshape(n, rows)[...] = band.T
    space[reals:reals + 3] = vl, vu, abstol
    ints = space[reals + 5:].view(np.int32)
    ints[:6] = n, rows - 1, rows, il, iu, 1
    base = space.ctypes.data
    ab, w, work, vl_, vu_, tol, q, z = (
        base + 8 * k for k in (0, rows * n, rows * n + n, *range(reals, reals + 5)))
    n_, kd, ldab, il_, iu_, ld1, m_, info_, ifail, iwork = (
        base + 8 * (reals + 5) + 4 * k for k in range(10))
    _SBEVX(b"N", b"I" if by_index else b"V", b"L", n_, kd, ab, ldab, q, ld1, vl_, vu_,
           il_, iu_, tol, m_, w, z, ld1, work, iwork, ifail, info_)
    if ints[7]:
        raise scipy.linalg.LinAlgError(f"banded eigensolve failed (LAPACK info {ints[7]})")
    return space[rows * n:rows * n + ints[6]]


def solve_banded_shifted(
    op: RadialOperator, shift: float, rhs: np.ndarray, off: np.ndarray | None = None
) -> np.ndarray:
    """Solve (op + shift*I) chi = rhs for the tridiagonal op; rhs (one
    vector or one column per right-hand side) is kept.  off, op.offdiag
    as an array of n - 1 entries, spares a caller that solves with the
    same off-diagonal many times building it per call.

    Calls LAPACK gtsv directly, the routine solve_banded((1, 1), ...)
    dispatches to, so the result is the same to the bit: this runs at
    every descent step, where solve_banded's checks around the call cost
    about three times the 400-point solve.  Without the finiteness check
    a non-finite rhs gives a non-finite chi, for the caller's check to
    catch.  Raises scipy.linalg.LinAlgError on an exactly zero pivot.
    """
    # gtsv overwrites dl, du and b only when told to; without the
    # overwrite flags the wrapper copies them, so one array serves both
    off = np.full(len(op.diag) - 1, op.offdiag) if off is None else off
    _, _, _, chi, info = _GTSV(off, op.diag + shift, off, rhs)
    if info > 0:
        raise scipy.linalg.LinAlgError("singular matrix")
    return chi
