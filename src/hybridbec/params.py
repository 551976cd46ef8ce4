"""Physical parameter record, unit conventions, and magnetic-field maps.

Internally every solver works in natural units hbar = M = omega_a = 1,
with lengths in atomic oscillator units sqrt(hbar/(M*omega_a)).  The
couplings follow lambda_a = 4*pi*hbar^2*a_a/M and
lambda_m = 4*pi*hbar^2*a_m/(2M); the hbar^2 factor is restored where the
compact a/M form would be dimensionally short.

The applied magnetic field enters only through two derived quantities:
the effective scattering length a_eff(B) = a0*(1 + Delta/(B0 - B)) and
the atom-pair <-> molecule conversion amplitude
alpha(B) = sqrt(lambda_a * Delta^2 / (2*|B - B0|)) (proportionality taken
as equality, prefactor 1).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace

from .errors import ConfigError, ResonanceSingularityError, require_finite

#: |B - B0| below SINGULARITY_FLOOR * Delta raises ResonanceSingularityError.
SINGULARITY_FLOOR = 1e-9


@dataclass(frozen=True)
class FeshbachResonance:
    """Resonance parameters: off-resonant length a0, resonant field b0,
    width delta, applied field b.  Fields in mT, a0 in any length unit."""

    a0: float
    b0: float
    delta: float
    b: float

    def __post_init__(self):
        for name in self.__dataclass_fields__:
            require_finite(f"resonance.{name}", getattr(self, name))
        if self.delta <= 0:
            raise ConfigError(f"resonance width must be positive, got {self.delta}")


@dataclass(frozen=True)
class PhysicalParams:
    """All coupling constants, trap frequencies, particle numbers and the
    temperature, in one immutable record.

    omega_a, omega_m  trap angular frequencies (energy/hbar)
    lambda_a          atom-atom coupling 4*pi*hbar^2*a_a/M
    lambda_m          molecule-molecule coupling 4*pi*hbar^2*a_m/(2M)
    lambda_am         atom-molecule density coupling
    alpha             atom-pair <-> molecule conversion amplitude
    epsilon           molecular detuning (energy)
    n_a, n_m          condensate atom / molecule numbers
    temperature       k_B * T as an energy
    mass, hbar        atomic mass and action quantum (1 in natural units)
    resonance         optional field-dependence parameters

    Every number must be a finite real (not a bool), the frequencies, mass
    and hbar positive, the counts and temperature >= 0; anything else
    raises ConfigError.

    All derived quantities are pure functions of the record; equal records
    give bit-identical derived values.
    """

    omega_a: float
    omega_m: float
    lambda_a: float = 0.0
    lambda_m: float = 0.0
    lambda_am: float = 0.0
    alpha: float = 0.0
    epsilon: float = 0.0
    n_a: float = 0.0
    n_m: float = 0.0
    temperature: float = 0.0
    mass: float = 1.0
    hbar: float = 1.0
    resonance: FeshbachResonance | None = None

    def __post_init__(self):
        # checked, not converted: an integer count keeps its config hash
        for name in self.__dataclass_fields__:
            if name != "resonance":
                require_finite(name, getattr(self, name))
        if self.omega_a <= 0 or self.omega_m <= 0:
            raise ConfigError(
                f"trap frequencies must be positive, got omega_a={self.omega_a}, "
                f"omega_m={self.omega_m}"
            )
        if self.mass <= 0 or self.hbar <= 0:
            raise ConfigError(f"mass and hbar must be positive, got {self.mass}, {self.hbar}")
        if self.n_a < 0 or self.n_m < 0:
            raise ConfigError(f"particle numbers must be >= 0, got {self.n_a}, {self.n_m}")
        if self.temperature < 0:
            raise ConfigError(f"temperature must be >= 0, got {self.temperature}")

    @property
    def molecule_mass(self) -> float:
        return 2.0 * self.mass

    @property
    def beta(self) -> float:
        """Inverse temperature 1/(k_B T); +inf at T = 0."""
        return math.inf if self.temperature == 0.0 else 1.0 / self.temperature

    @property
    def oscillator_length(self) -> float:
        return math.sqrt(self.hbar / (self.mass * self.omega_a))

    # -- serialization -------------------------------------------------

    @classmethod
    def from_dict(cls, data: dict) -> "PhysicalParams":
        """Build from a JSON-style dict.  Unknown keys are a hard error."""
        if not isinstance(data, dict):
            raise ConfigError(f"params must be an object, got {type(data).__name__}")
        known = set(cls.__dataclass_fields__)
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown params keys: {sorted(unknown)}")
        kwargs = dict(data)
        res = kwargs.pop("resonance", None)
        if res is not None:
            if not isinstance(res, dict):
                raise ConfigError("resonance must be an object")
            res_known = set(FeshbachResonance.__dataclass_fields__)
            res_unknown = set(res) - res_known
            if res_unknown:
                raise ConfigError(f"unknown resonance keys: {sorted(res_unknown)}")
            missing = res_known - set(res)
            if missing:
                raise ConfigError(f"resonance missing keys: {sorted(missing)}")
            kwargs["resonance"] = FeshbachResonance(**res)
        for name in ("omega_a", "omega_m"):
            if name not in kwargs:
                raise ConfigError(f"params missing required key '{name}'")
        return cls(**kwargs)

    def to_dict(self) -> dict:
        """The fields as `dataclasses.asdict` gives them, without its deep
        copy (every value is a number), and without an absent resonance."""
        d = {name: getattr(self, name) for name in self.__dataclass_fields__}
        res = d.pop("resonance")
        if res is not None:
            d["resonance"] = {name: getattr(res, name) for name in res.__dataclass_fields__}
        return d


def _resonance(params: PhysicalParams) -> FeshbachResonance:
    if params.resonance is None:
        raise ConfigError("params.resonance is required for field-dependent quantities")
    return params.resonance


def _field_offset(res: FeshbachResonance, b) -> float:
    off = b - res.b0
    if abs(off) < SINGULARITY_FLOOR * res.delta:
        raise ResonanceSingularityError(
            f"|B - B0| = {abs(off):.3e} is below the singularity floor "
            f"{SINGULARITY_FLOOR * res.delta:.3e}; the resonance point is excluded"
        )
    return off


def _scattering_length_at(res: FeshbachResonance, b) -> float:
    """a_eff of `res` at the field b, which is checked finite as
    resonance.b is; a field sweep needs no record per point."""
    require_finite("resonance.b", b)
    return res.a0 * (1.0 + res.delta / (-_field_offset(res, b)))


def effective_scattering_length(params: PhysicalParams) -> float:
    """a_eff = a0 * (1 + Delta/(B0 - B)); may be negative (attraction)."""
    res = _resonance(params)
    return _scattering_length_at(res, res.b)


def conversion_amplitude(params: PhysicalParams) -> float:
    """alpha(B) = sqrt(lambda_a * Delta^2 / (2*|B - B0|)).

    Monotonically increasing toward the resonant field, -> 0 far from it.
    """
    res = _resonance(params)
    off = _field_offset(res, res.b)
    return math.sqrt(params.lambda_a * res.delta**2 / (2.0 * abs(off)))


@dataclass(frozen=True)
class UnitScales:
    """Conversion factors from a given unit system to natural units.

    energy: hbar*omega_a, length: sqrt(hbar/(M*omega_a)); frequency,
    coupling and conversion-amplitude scales follow from those.
    """

    energy: float
    length: float
    frequency: float
    mass: float
    hbar: float

    @classmethod
    def from_params(cls, params: PhysicalParams) -> "UnitScales":
        energy = params.hbar * params.omega_a
        length = params.oscillator_length
        return cls(
            energy=energy,
            length=length,
            frequency=params.omega_a,
            mass=params.mass,
            hbar=params.hbar,
        )

    @property
    def coupling(self) -> float:
        """Scale of lambda-type couplings (energy * volume)."""
        return self.energy * self.length**3

    @property
    def conversion(self) -> float:
        """Scale of the conversion amplitude (energy * volume^(1/2))."""
        return self.energy * self.length**1.5


#: UnitScales attribute of each dimensional PhysicalParams field; n_a and
#: n_m are pure numbers, and of the resonance only a0 (a length) scales
_DIMENSIONS = {
    "omega_a": "frequency", "omega_m": "frequency",
    "lambda_a": "coupling", "lambda_m": "coupling", "lambda_am": "coupling",
    "alpha": "conversion", "epsilon": "energy", "temperature": "energy",
    "mass": "mass", "hbar": "hbar",
}


def _rescaled(params: PhysicalParams, scales: UnitScales, op) -> PhysicalParams:
    """The record with op(value, scale) for every dimensional field."""
    res = params.resonance
    if res is not None:
        res = replace(res, a0=op(res.a0, scales.length))
    return replace(params, resonance=res, **{
        name: op(getattr(params, name), getattr(scales, scale))
        for name, scale in _DIMENSIONS.items()})


def natural_units(params: PhysicalParams) -> PhysicalParams:
    """Rescale the record so hbar = M = omega_a = 1 (each is its own
    scale, and x / x is exactly 1.0).

    Dimensionless ratios (omega_m/omega_a, particle numbers, B fields)
    are untouched.  Idempotent; `from_natural` with the original scales
    inverts it to round-off.
    """
    return _rescaled(params, UnitScales.from_params(params), operator.truediv)


def from_natural(params: PhysicalParams, scales: UnitScales) -> PhysicalParams:
    """Inverse of `natural_units` for a record expressed in the units
    described by `scales`."""
    return _rescaled(params, scales, operator.mul)


def chemical_equilibrium_gap(mu_a: float, mu_m: float) -> float:
    """Diagnostic mu_m - 2*mu_a; zero in chemical equilibrium.

    Reported, never imposed: the coupled condensate equations are solved
    with independent normalizations.
    """
    return mu_m - 2.0 * mu_a
