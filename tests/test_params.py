import dataclasses
import math

import numpy as np
import pytest

from hybridbec import (
    ConfigError,
    FeshbachResonance,
    PhysicalParams,
    ResonanceSingularityError,
    UnitScales,
    conversion_amplitude,
    effective_scattering_length,
    from_natural,
    natural_units,
)
from hybridbec import params as params_module
from hybridbec.params import chemical_equilibrium_gap


def make_params(**overrides):
    base = dict(
        omega_a=1.0,
        omega_m=1.4,
        lambda_a=0.1,
        lambda_m=0.05,
        lambda_am=0.1,
        alpha=0.5,
        epsilon=0.0,
        n_a=1e6,
        n_m=1e6,
        temperature=0.0,
    )
    base.update(overrides)
    return PhysicalParams(**base)


def test_validation_rejects_bad_frequencies_and_numbers():
    with pytest.raises(ConfigError):
        make_params(omega_a=0.0)
    with pytest.raises(ConfigError):
        make_params(omega_m=-1.0)
    with pytest.raises(ConfigError):
        make_params(n_a=-1.0)
    with pytest.raises(ConfigError):
        make_params(temperature=-0.1)
    with pytest.raises(ConfigError):
        PhysicalParams(omega_a=1.0, omega_m=1.0, mass=0.0)


@pytest.mark.parametrize("name", [
    "omega_a", "omega_m", "lambda_a", "lambda_m", "lambda_am", "alpha",
    "epsilon", "n_a", "n_m", "temperature", "mass", "hbar",
])
def test_validation_rejects_nonfinite_and_non_numeric_fields(name):
    # a NaN temperature wrote NaN densities with exit 0, a NaN frequency or
    # coupling ended as "iteration diverged", true ran as 1 and a string
    # raised a bare TypeError
    for value in (math.nan, math.inf, True, "1.0", None, 10**400):
        with pytest.raises(ConfigError, match=name):
            make_params(**{name: value})
        with pytest.raises(ConfigError, match=name):
            PhysicalParams.from_dict({"omega_a": 1.0, "omega_m": 1.0, name: value})


@pytest.mark.parametrize("name", ["a0", "b0", "delta", "b"])
def test_resonance_rejects_nonfinite_and_non_numeric_fields(name):
    good = dict(a0=1.0, b0=100.0, delta=0.01, b=99.9)
    for value in (math.nan, -math.inf, False, "99.9"):
        with pytest.raises(ConfigError, match=f"resonance.{name}"):
            FeshbachResonance(**{**good, name: value})


def test_validation_keeps_integral_values():
    # integers are checked, not converted: the config hash sees what was given
    p = PhysicalParams.from_dict({"omega_a": 1, "omega_m": 1.4, "n_a": 100})
    assert p.to_dict()["n_a"] == 100 and type(p.n_a) is int


def test_beta_and_molecule_mass():
    p = make_params(temperature=0.0)
    assert p.beta == math.inf
    p2 = make_params(temperature=0.5)
    assert p2.beta == 2.0
    assert p2.molecule_mass == 2.0 * p2.mass


def test_from_dict_round_trip_and_unknown_keys():
    p = make_params(resonance=FeshbachResonance(a0=5.3e-9, b0=100.0, delta=0.01, b=99.9))
    d = p.to_dict()
    assert PhysicalParams.from_dict(d) == p
    d["typo_key"] = 1.0
    with pytest.raises(ConfigError):
        PhysicalParams.from_dict(d)
    with pytest.raises(ConfigError):
        PhysicalParams.from_dict({"omega_a": 1.0})  # omega_m missing
    with pytest.raises(ConfigError):
        PhysicalParams.from_dict(
            {"omega_a": 1.0, "omega_m": 1.0, "resonance": {"a0": 1.0}}
        )


def test_effective_length_sign_flips_across_resonance():
    # a_eff = a0*(1 + Delta/(B0 - B)): diverges at B0, negative just above
    res = dict(a0=1.0, b0=100.0, delta=0.01)
    above = make_params(resonance=FeshbachResonance(b=100.005, **res))
    below = make_params(resonance=FeshbachResonance(b=99.995, **res))
    a_above = effective_scattering_length(above)
    a_below = effective_scattering_length(below)
    # rel 1e-9: B0 - B itself suffers float cancellation at these magnitudes
    assert a_above == pytest.approx(-1.0, rel=1e-9)
    assert a_below == pytest.approx(3.0, rel=1e-9)
    far = make_params(resonance=FeshbachResonance(b=0.0, **res))
    assert effective_scattering_length(far) == pytest.approx(1.0, rel=1e-3)


def test_resonance_point_is_excluded():
    p = make_params(resonance=FeshbachResonance(a0=1.0, b0=100.0, delta=0.01, b=100.0))
    with pytest.raises(ResonanceSingularityError):
        effective_scattering_length(p)
    with pytest.raises(ResonanceSingularityError):
        conversion_amplitude(p)
    with pytest.raises(ConfigError):
        effective_scattering_length(make_params())  # no resonance block


def test_conversion_amplitude_value_and_growth():
    # sqrt(lambda_a*Delta^2/(2|B-B0|)) at lambda_a=0.1, Delta=0.01, |B-B0|=0.01:
    # sqrt(0.1*1e-4/0.02) = sqrt(5e-4)
    p = make_params(resonance=FeshbachResonance(a0=1.0, b0=100.0, delta=0.01, b=100.01))
    assert conversion_amplitude(p) == pytest.approx(math.sqrt(5e-4), rel=1e-12)
    assert conversion_amplitude(p) == pytest.approx(0.022360679, abs=1e-9)
    closer = make_params(
        resonance=FeshbachResonance(a0=1.0, b0=100.0, delta=0.01, b=100.001)
    )
    assert conversion_amplitude(closer) > conversion_amplitude(p)


def test_natural_units_round_trip():
    rng = np.random.default_rng(7)
    for _ in range(50):
        omega_a, omega_m, mass, hbar = rng.uniform(0.2, 5.0, size=4)
        p = PhysicalParams(
            omega_a=omega_a,
            omega_m=omega_m,
            lambda_a=rng.uniform(0, 2),
            lambda_m=rng.uniform(0, 2),
            lambda_am=rng.uniform(0, 2),
            alpha=rng.uniform(0, 2),
            epsilon=rng.uniform(-1, 1),
            n_a=rng.uniform(0, 1e6),
            n_m=rng.uniform(0, 1e6),
            temperature=rng.uniform(0, 3),
            mass=mass,
            hbar=hbar,
            resonance=FeshbachResonance(a0=rng.uniform(0.1, 2), b0=100.0, delta=0.01, b=99.9),
        )
        scales = UnitScales.from_params(p)
        nat = natural_units(p)
        assert nat.omega_a == 1.0 and nat.mass == 1.0 and nat.hbar == 1.0
        assert nat.omega_m == pytest.approx(omega_m / omega_a, rel=1e-12)
        # frequency ratios and particle numbers are invariant
        assert nat.n_a == p.n_a and nat.n_m == p.n_m
        assert nat.resonance.b == p.resonance.b
        back = from_natural(nat, scales)
        for name in ("omega_a", "omega_m", "lambda_a", "lambda_m", "lambda_am",
                     "alpha", "epsilon", "temperature", "mass", "hbar"):
            assert getattr(back, name) == pytest.approx(getattr(p, name), rel=1e-12)
        assert back.resonance.a0 == pytest.approx(p.resonance.a0, rel=1e-12)
        # already-natural records are fixed points
        again = natural_units(nat)
        assert again.lambda_a == pytest.approx(nat.lambda_a, rel=1e-12)
        assert again.alpha == pytest.approx(nat.alpha, rel=1e-12)


def test_unit_table_names_every_dimensional_field():
    # a new dimensional field cannot land without a scale
    fields = {f.name for f in dataclasses.fields(PhysicalParams)}
    assert set(params_module._DIMENSIONS) == fields - {"n_a", "n_m", "resonance"}
    scales = UnitScales.from_params(make_params())
    assert all(hasattr(scales, scale) for scale in params_module._DIMENSIONS.values())


def _explicit_natural_units(p):
    # the conversions as they were spelled out field by field, the reference
    s = UnitScales.from_params(p)
    res = dataclasses.replace(p.resonance, a0=p.resonance.a0 / s.length)
    return PhysicalParams(
        omega_a=1.0, omega_m=p.omega_m / s.frequency, lambda_a=p.lambda_a / s.coupling,
        lambda_m=p.lambda_m / s.coupling, lambda_am=p.lambda_am / s.coupling,
        alpha=p.alpha / s.conversion, epsilon=p.epsilon / s.energy, n_a=p.n_a, n_m=p.n_m,
        temperature=p.temperature / s.energy, mass=1.0, hbar=1.0, resonance=res)


def _explicit_from_natural(p, s):
    res = dataclasses.replace(p.resonance, a0=p.resonance.a0 * s.length)
    return PhysicalParams(
        omega_a=p.omega_a * s.frequency, omega_m=p.omega_m * s.frequency,
        lambda_a=p.lambda_a * s.coupling, lambda_m=p.lambda_m * s.coupling,
        lambda_am=p.lambda_am * s.coupling, alpha=p.alpha * s.conversion,
        epsilon=p.epsilon * s.energy, n_a=p.n_a, n_m=p.n_m,
        temperature=p.temperature * s.energy, mass=p.mass * s.mass, hbar=p.hbar * s.hbar,
        resonance=res)


def test_unit_table_keeps_the_explicit_formulas_bits():
    rng = np.random.default_rng(29)

    def record():
        # magnitudes spread over decades, so every scale is far from 1
        omega_a, omega_m, mass, hbar = 10.0 ** rng.uniform(-3.0, 3.0, size=4)
        return PhysicalParams(
            omega_a=omega_a, omega_m=omega_m, lambda_a=rng.uniform(-2, 2),
            lambda_m=rng.uniform(-2, 2), lambda_am=rng.uniform(-2, 2),
            alpha=rng.uniform(-2, 2), epsilon=rng.uniform(-1, 1),
            n_a=rng.uniform(0, 1e6), n_m=rng.uniform(0, 1e6),
            temperature=rng.uniform(0, 3), mass=mass, hbar=hbar,
            resonance=FeshbachResonance(a0=rng.uniform(0.1, 2), b0=100.0, delta=0.01, b=99.9),
        )

    for _ in range(50):
        p, other = record(), record()
        scales = UnitScales.from_params(other)
        for got, ref in ((natural_units(p), _explicit_natural_units(p)),
                         (from_natural(p, scales), _explicit_from_natural(p, scales))):
            for f in dataclasses.fields(PhysicalParams):
                assert getattr(got, f.name) == getattr(ref, f.name), f.name


def test_natural_units_scaling_dimensions():
    # doubling hbar*omega_a halves epsilon~ in natural units, etc.
    p = make_params(omega_a=2.0, epsilon=1.0, alpha=1.0, lambda_a=1.0)
    nat = natural_units(p)
    a_ho = math.sqrt(1.0 / 2.0)
    assert nat.epsilon == pytest.approx(1.0 / 2.0, rel=1e-12)
    assert nat.lambda_a == pytest.approx(1.0 / (2.0 * a_ho**3), rel=1e-12)
    assert nat.alpha == pytest.approx(1.0 / (2.0 * a_ho**1.5), rel=1e-12)


def test_chemical_equilibrium_gap():
    assert chemical_equilibrium_gap(1.0, 2.0) == 0.0
    assert chemical_equilibrium_gap(1.0, 2.5) == 0.5


@pytest.mark.parametrize("resonance", [
    None, FeshbachResonance(a0=5.3e-9, b0=100.0, delta=0.01, b=99.9),
], ids=["no-resonance", "resonance"])
def test_to_dict_is_asdict_without_the_deep_copy(resonance):
    # the config hash reads to_dict: same keys, order, values and types
    # as dataclasses.asdict, an absent resonance dropped
    p = make_params(n_a=100, resonance=resonance)
    ref = dataclasses.asdict(p)
    if resonance is None:
        del ref["resonance"]
    d = p.to_dict()
    assert list(d) == list(ref) and d == ref
    assert [type(v) for v in d.values()] == [type(v) for v in ref.values()]
    if resonance is not None:
        assert list(d["resonance"]) == list(ref["resonance"])
