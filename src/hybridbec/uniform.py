"""Homogeneous-limit formulas: phonon dispersion, critical number,
condensate depletion, and the atom-number-versus-field curve.

With the trap switched off the atom chemical potential and the
excitation energy close over the densities alone,

    mu_a  = lam*n_m + lam_a*n_a - 2*alpha*sqrt(n_m)
    E^2(p) = (hbar^2/2m)^2 p^2 (p^2 + 16 pi n a_eff)

so a_eff < 0 makes long wavelengths dynamically unstable below
p^2 = 16 pi n |a_eff|.  Cutting off at the sample size p_min = pi/R0
gives the critical population N0 = (pi/16) R0/|a_eff|; on the repulsive
side the zero-temperature depletion leaves N0 = N(1 - (8/3)sqrt(N a^3/(pi V))).

The field curve estimates the density from the sample size as n = N/R0^2
(the "paper" estimate) or the dimensionally conventional n = N/R0^3;
the two only agree at R0 = 1.
"""

from __future__ import annotations

import cmath
import logging
import math
from dataclasses import dataclass

from .errors import (
    ConfigError, DomainError, ResonanceSingularityError, require_choice, require_finite,
    require_positive,
)
from .params import PhysicalParams, _scattering_length_at

log = logging.getLogger(__name__)

STABLE = "stable"
UNSTABLE = "unstable-attractive"
#: sample size sqrt(N/n) ("paper") or (N/n)^(1/3) ("conventional")
DENSITY_ESTIMATES = ("paper", "conventional")

#: gas parameter (n * a_eff^3)^(1/3) above this is no longer dilute;
#: results are logged suspect
DILUTENESS_LIMIT = 0.1


def uniform_mu(params: PhysicalParams, n_a: float, n_m: float) -> float:
    """Uniform-gas atom chemical potential from the two densities."""
    if n_a < 0.0 or n_m < 0.0:
        raise DomainError("densities must be nonnegative")
    p = params
    return p.lambda_am * n_m + p.lambda_a * n_a - 2.0 * p.alpha * math.sqrt(n_m)


def dispersion(p, n: float, a_eff: float, params: PhysicalParams) -> complex:
    """Quasiparticle energy at wavenumber p; imaginary below the
    instability scale when a_eff < 0."""
    if n < 0.0:
        raise DomainError("density must be nonnegative")
    k = params.hbar**2 / (2.0 * params.mass)
    x = p * p
    return cmath.sqrt(k * k * x * (x + 16.0 * math.pi * n * a_eff))


def critical_number(r0: float, a_eff: float) -> float:
    """Largest stable population of an attractive uniform sample of size r0."""
    if r0 <= 0.0:
        raise DomainError("sample size must be positive")
    if a_eff >= 0.0:
        raise DomainError(
            "critical number defined only for attractive a_eff < 0; "
            "repulsive interactions impose no population bound"
        )
    return (math.pi / 16.0) * r0 / abs(a_eff)


def depletion_number(n_total: float, volume: float, a_eff: float) -> float:
    """Condensate population after zero-temperature depletion."""
    if a_eff < 0.0:
        raise DomainError("depletion formula requires repulsive a_eff >= 0")
    if n_total <= 0.0 or volume <= 0.0:
        raise DomainError("need positive population and volume")
    dilute = (n_total / volume * a_eff**3) ** (1.0 / 3.0)
    if dilute > DILUTENESS_LIMIT:
        log.warning("gas parameter %.3g exceeds %.1f; depletion formula is "
                    "outside its validity range", dilute, DILUTENESS_LIMIT)
    bracket = 1.0 - (8.0 / 3.0) * math.sqrt(n_total * a_eff**3 / (math.pi * volume))
    if bracket < 0.0:
        raise DomainError(
            f"depletion fraction exceeds unity (bracket = {bracket:.4g}); "
            "the perturbative formula does not apply"
        )
    return n_total * bracket


@dataclass(frozen=True)
class UniformGasPoint:
    """One field point of the condensate-number curve."""

    b: float
    a_eff: float
    n: float
    regime: str
    n0: float
    source: str


def figure3_curve(
    params: PhysicalParams,
    b_list,
    density: float | None = None,
    r0: float | None = None,
    density_estimate: str = "paper",
) -> list[UniformGasPoint]:
    """Condensate number across the resonance.

    Attractive points report the critical population of a sample of size
    r0; repulsive points the depleted population of N = params.n_a atoms
    in the volume V = N/n.  The density may be given directly (r0 then
    follows from the chosen estimate) or via r0 (defaulting to the
    oscillator length).  density and r0, when given, must be positive
    finite numbers, r0^2 ("paper") or r0^3 ("conventional") a positive
    finite float, and the density and sample size used positive finite
    floats; anything else raises ConfigError before any field point.
    """
    for name, value in (("density", density), ("r0", r0)):
        if value is not None:
            require_positive(name, require_finite(name, value))
    if params.resonance is None:
        raise ConfigError("field curve requires resonance parameters")
    n_total = params.n_a
    if n_total <= 0.0:
        raise ConfigError("field curve requires a positive atom number n_a")
    require_choice("density_estimate", density_estimate, DENSITY_ESTIMATES)
    power = 2 if density_estimate == "paper" else 3
    if density is not None:
        given = f"density = {density!r}"
        size = math.sqrt(n_total / density) if power == 2 else (n_total / density) ** (1.0 / 3.0)
    else:
        size = r0 if r0 is not None else params.oscillator_length
        given = f"r0 = {size!r}"
        try:
            density = n_total / size**power
        except (OverflowError, ZeroDivisionError):  # size**power past the floats, or 0.0
            raise ConfigError(f"{given} gives a {density_estimate!r} sample volume "
                              f"r0^{power} that is not a positive finite float") from None
    if not (0.0 < density < math.inf and 0.0 < size < math.inf):
        raise ConfigError(f"{given} with n_a = {n_total!r} gives a {density_estimate!r} "
                          f"density {density!r} and sample size {size!r}; both must be "
                          f"positive finite floats")
    volume = n_total / density

    res = params.resonance
    out: list[UniformGasPoint] = []
    for b in b_list:
        try:
            a_eff = _scattering_length_at(res, b)
            if a_eff < 0.0:
                cap = critical_number(size, a_eff)
                regime = UNSTABLE if n_total > cap else STABLE
                out.append(UniformGasPoint(
                    b=b, a_eff=a_eff, n=density, regime=regime,
                    n0=cap, source="critical-number",
                ))
            else:
                n0 = depletion_number(n_total, volume, a_eff)
                out.append(UniformGasPoint(
                    b=b, a_eff=a_eff, n=density, regime=STABLE,
                    n0=n0, source="depletion",
                ))
        except (DomainError, ResonanceSingularityError) as exc:
            raise type(exc)(f"field point B = {b:g} mT: {exc}") from exc
    return out
