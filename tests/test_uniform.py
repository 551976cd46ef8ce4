import logging
import math
import random
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from hybridbec import ConfigError, DomainError, PhysicalParams, load_config
from hybridbec.errors import ResonanceSingularityError, SimulationError
from hybridbec.params import FeshbachResonance, effective_scattering_length
from hybridbec.uniform import (
    STABLE,
    UNSTABLE,
    critical_number,
    depletion_number,
    dispersion,
    UniformGasPoint,
    figure3_curve,
    uniform_mu,
)

P = PhysicalParams(omega_a=1.0, omega_m=1.4)


def test_uniform_mu_values():
    p = PhysicalParams(omega_a=1.0, omega_m=1.4, lambda_am=0.2, lambda_a=0.1, alpha=0.5)
    assert uniform_mu(p, 0.0, 0.0) == 0.0
    assert uniform_mu(p, 3.0, 0.0) == pytest.approx(0.3, rel=1e-14)
    # 0.2*1 + 0.1*4 - 2*0.5*1
    assert uniform_mu(p, 4.0, 1.0) == pytest.approx(-0.4, abs=1e-14)
    with pytest.raises(DomainError):
        uniform_mu(p, -1.0, 0.0)


def test_dispersion_free_particle():
    for p in (0.1, 1.0, 7.0):
        e = dispersion(p, 2.5, 0.0, P)
        assert e.imag == 0.0
        assert e.real == pytest.approx(0.5 * p * p, rel=1e-14)


def test_dispersion_closed_form_sampled():
    rng = np.random.default_rng(8)
    k = 0.5  # hbar^2/2m in natural units
    for _ in range(100):
        p = 10.0 ** rng.uniform(-3, 1)
        n = 10.0 ** rng.uniform(-2, 4)
        a = rng.uniform(-1.0, 1.0) * 1e-2
        e = dispersion(p, n, a, P)
        lhs = e * e
        rhs = k * k * (p * p) * (p * p + 16.0 * math.pi * n * a)
        assert lhs.real == pytest.approx(rhs, rel=1e-12, abs=1e-300)
        assert abs(lhs.imag) <= 1e-12 * abs(rhs)


def test_dispersion_phonon_slope():
    n, a = 50.0, 3e-3
    c_s = 0.5 * math.sqrt(16.0 * math.pi * n * a)
    for p in (1e-4, 2e-4):
        assert dispersion(p, n, a, P).real / p == pytest.approx(c_s, rel=1e-3)


def test_dispersion_stability_boundary():
    # pick (n, a) so the cancellation p^2 + 16*pi*n*a is exact in floats
    p = 3.0
    n = 40.0
    a = -(p * p) / (16.0 * math.pi * n)
    while (16.0 * math.pi * n) * a != -(p * p):
        n = math.nextafter(n, 41.0)
        a = -(p * p) / (16.0 * math.pi * n)
    assert dispersion(p, n, a, P) == 0.0
    # below the boundary: purely imaginary growth rate
    e = dispersion(0.5 * p, n, a, P)
    assert e.real == 0.0 and e.imag > 0.0
    # above: real and positive
    e = dispersion(2.0 * p, n, a, P)
    assert e.imag == 0.0 and e.real > 0.0


def test_critical_number_values():
    assert critical_number(1.0, -1e-4) == pytest.approx(1963.4954084936208, rel=1e-12)
    assert critical_number(1.0, -2e-4) == pytest.approx(0.5 * 1963.4954084936208, rel=1e-12)
    with pytest.raises(DomainError):
        critical_number(1.0, 1e-4)
    with pytest.raises(DomainError):
        critical_number(1.0, 0.0)
    with pytest.raises(DomainError):
        critical_number(0.0, -1e-4)


def test_critical_number_sits_on_dispersion_boundary():
    # volume-based density estimate: the identity holds for every sample size
    a = -2.7e-5
    for r0 in (0.5, 1.0, 2.0, 5.0, 17.0):
        n0 = critical_number(r0, a)
        n = n0 / r0**3
        p_min = math.pi / r0
        residual = p_min**2 - 16.0 * math.pi * n * abs(a)
        assert abs(residual) < 1e-6 * p_min**2
    # the area-based estimate n = N0/r0^2 satisfies it only at r0 = 1
    n0 = critical_number(1.0, a)
    assert abs(math.pi**2 - 16.0 * math.pi * n0 * abs(a)) < 1e-6 * math.pi**2
    n0 = critical_number(2.0, a)
    n = n0 / 2.0**2
    assert abs((math.pi / 2.0) ** 2 - 16.0 * math.pi * n * abs(a)) > 0.1


def test_depletion_number_values():
    assert depletion_number(1e6, 1e-9, 0.0) == 1e6
    # N=1e6 at n=1e15 cm^-3 with a_eff = 5e-7 cm; cross-checked at 30 digits
    n0 = depletion_number(1e6, 1e-9, 5e-7)
    assert n0 == pytest.approx(983179.1165198656, rel=1e-10)
    assert abs(n0 - 983200.0) < 50.0
    with pytest.raises(DomainError):
        depletion_number(1e6, 1e-9, -5e-7)
    with pytest.raises(DomainError):
        depletion_number(0.0, 1e-9, 5e-7)
    # bracket < 0: condensate fraction formula out of range
    with pytest.raises(DomainError):
        depletion_number(1e6, 1e-9, 5e-5)


def test_depletion_fraction_scales_with_density_only():
    base = depletion_number(1e6, 1e-9, 5e-7) / 1e6
    for s in (7.0, 0.3):
        scaled = depletion_number(1e6 * s, 1e-9 * s, 5e-7) / (1e6 * s)
        assert scaled == pytest.approx(base, rel=1e-12)


def test_depletion_warns_outside_dilute_regime(caplog):
    with caplog.at_level(logging.WARNING, logger="hybridbec.uniform"):
        depletion_number(1e6, 1e-9, 1.3e-6)
    assert any("gas parameter" in r.message for r in caplog.records)
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="hybridbec.uniform"):
        depletion_number(1e6, 1e-9, 5e-7)
    assert not caplog.records


def fig3_params(n_atoms=1e6):
    res = FeshbachResonance(a0=5e-7, b0=100.0, delta=0.01, b=100.0)
    return PhysicalParams(omega_a=1.0, omega_m=1.4, n_a=n_atoms, resonance=res)


def test_figure3_branches_and_zero_crossing():
    p = fig3_params()
    bs = [99.9, 99.99, 100.002, 100.005, 100.01, 100.05]
    pts = figure3_curve(p, bs, density=1e15)
    by_b = {pt.b: pt for pt in pts}
    # below resonance and past the zero crossing: repulsive depletion
    assert by_b[99.9].source == "depletion" and by_b[99.9].regime == STABLE
    assert by_b[100.05].source == "depletion"
    # between B0 and B0 + delta: attractive, capped population
    assert by_b[100.005].source == "critical-number"
    assert by_b[100.005].regime == UNSTABLE
    assert by_b[100.005].a_eff < 0.0
    # a_eff = 0 exactly at B0 + delta (width picked binary-exact so the
    # cancellation is representable): the full population survives
    from dataclasses import replace

    exact = replace(p, resonance=FeshbachResonance(a0=5e-7, b0=100.0, delta=0.25, b=100.0))
    (cross,) = figure3_curve(exact, [100.25], density=1e15)
    assert cross.a_eff == 0.0
    assert cross.n0 == 1e6 and cross.source == "depletion"
    # depletion grows toward resonance on the repulsive side
    assert by_b[99.99].n0 < by_b[99.9].n0 < 1e6


@pytest.mark.parametrize("name, value", [
    ("density", math.nan), ("density", 0.0), ("density", -1.0),
    ("r0", -2.0), ("r0", 0.0), ("r0", math.inf),
])
def test_figure3_rejects_a_nonpositive_or_nonfinite_size(name, value):
    with pytest.raises(ConfigError, match=f"{name} must be a "):
        figure3_curve(fig3_params(), [99.9, 100.005], **{name: value})


@pytest.mark.parametrize("r0, estimate", [
    (1e300, "paper"), (1e-200, "paper"), (1e200, "conventional"), (1e-110, "conventional"),
], ids=["paper-overflow", "paper-underflow", "conventional-overflow",
        "conventional-underflow"])
def test_figure3_rejects_a_size_whose_volume_leaves_the_floats(r0, estimate):
    # r0^2 or r0^3 overflows or underflows to 0.0: a ConfigError before
    # any field point, here ahead of the resonance point B = B0
    with pytest.raises(ConfigError, match=re.escape(f"r0 = {r0!r} gives a '{estimate}'")):
        figure3_curve(fig3_params(), [100.0, 99.9], r0=r0, density_estimate=estimate)


def test_figure3_depends_on_field_only_through_a_eff():
    from dataclasses import replace

    p = fig3_params()
    pts = figure3_curve(p, [99.95, 100.003, 100.008, 100.02], density=1e15)
    r0 = math.sqrt(1e6 / 1e15)
    for pt in pts:
        a = effective_scattering_length(
            replace(p, resonance=replace(p.resonance, b=pt.b)))
        assert a == pt.a_eff
        if pt.source == "critical-number":
            assert pt.n0 == critical_number(r0, a)
        else:
            assert pt.n0 == depletion_number(1e6, 1e6 / 1e15, a)


def test_figure3_attractive_power_law():
    p = fig3_params()
    db = np.geomspace(1e-6, 1e-3, 12)
    pts = figure3_curve(p, list(100.0 + db), density=1e15)
    assert all(pt.source == "critical-number" for pt in pts)
    slope = np.polyfit(np.log(db), np.log([pt.n0 for pt in pts]), 1)[0]
    assert abs(slope - 1.0) < 0.05


def test_figure3_r0_path_matches_density_path():
    p = fig3_params()
    r0 = math.sqrt(1e6 / 1e15)
    a = figure3_curve(p, [99.9, 100.004], density=1e15)
    b = figure3_curve(p, [99.9, 100.004], r0=r0)
    for x, y in zip(a, b):
        assert x.n0 == y.n0 and x.a_eff == y.a_eff


def test_figure3_conventional_estimate_from_density():
    # with the density given, "conventional" sizes the sample as
    # (N/n)^(1/3): the critical number is (pi/16) (N/n)^(1/3) / |a_eff|,
    # while the depletion branch sees only the volume N/n
    from dataclasses import replace

    p = fig3_params()
    bs = [99.9, 100.004, 100.008]
    conv = figure3_curve(p, bs, density=1e15, density_estimate="conventional")
    paper = figure3_curve(p, bs, density=1e15)
    for pt, ref in zip(conv, paper):
        assert pt.n == 1e15 and pt.a_eff == ref.a_eff
        a = effective_scattering_length(replace(p, resonance=replace(p.resonance, b=pt.b)))
        if pt.source == "critical-number":
            assert pt.n0 == pytest.approx((math.pi / 16.0) * 1e-3 / abs(a), rel=1e-14)
            assert pt.n0 / ref.n0 == pytest.approx(1e-3 / math.sqrt(1e-9), rel=1e-14)
        else:
            assert pt.n0 == ref.n0 == depletion_number(1e6, 1e-9, a)
    assert [pt.source for pt in conv] == ["depletion", "critical-number", "critical-number"]


def test_figure3_error_paths():
    p = fig3_params()
    with pytest.raises(ResonanceSingularityError) as info:
        figure3_curve(p, [99.9, 100.0], density=1e15)
    assert str(info.value).startswith("field point B = 100 mT: |B - B0| = 0.000e+00")
    # repulsive point so close to resonance the depletion bracket fails
    with pytest.raises(DomainError) as info:
        figure3_curve(p, [99.9999], density=1e15)
    assert "99.9999" in str(info.value)
    with pytest.raises(ConfigError):
        figure3_curve(p, [99.9], density=1e15, density_estimate="volume")
    with pytest.raises(ConfigError):
        figure3_curve(PhysicalParams(omega_a=1.0, omega_m=1.4, n_a=1e6), [99.9])
    with pytest.raises(ConfigError):
        figure3_curve(fig3_params(n_atoms=0.0), [99.9], density=1e15)


def _reference_curve(p, b_list, density):
    """figure3_curve with a parameter record per field point, a_eff from
    `effective_scattering_length` of it (density given, paper estimate)."""
    size, volume = math.sqrt(p.n_a / density), p.n_a / density
    out = []
    for b in b_list:
        p_at = replace(p, resonance=replace(p.resonance, b=b))
        try:
            a = effective_scattering_length(p_at)
            if a < 0.0:
                cap = critical_number(size, a)
                out.append(UniformGasPoint(b, a, density, UNSTABLE if p.n_a > cap else STABLE,
                                           cap, "critical-number"))
            else:
                out.append(UniformGasPoint(b, a, density, STABLE,
                                           depletion_number(p.n_a, volume, a), "depletion"))
        except (DomainError, ResonanceSingularityError) as exc:
            raise type(exc)(f"field point B = {b:g} mT: {exc}") from exc
    return out


def _curve_outcome(call):
    """What a field curve returned, every float as its .hex(), or the type
    and message of what it raised."""
    try:
        pts = call()
    except SimulationError as exc:
        return type(exc).__name__, str(exc)
    return [(pt.b, float(pt.a_eff).hex(), pt.n, pt.regime, float(pt.n0).hex(), pt.source)
            for pt in pts]


def _jittered_fields(rng):
    """Field lists as the benchmark draws them: both sides of B0 = 100,
    each jittered by up to 4e-4 mT, never closer to B0 than about 1e-3."""
    below = [100.0 - d for d in (0.1, 0.06, 0.04, 0.02, 0.01, 0.005)]
    above = [100.0 + d for d in (0.001, 0.002, 0.003, 0.005, 0.007, 0.009,
                                 0.012, 0.015, 0.02, 0.05, 0.1)]
    jit = lambda: float(f"{2e-4 * (1.0 + (2.0 * rng.random() - 1.0)):.6g}")
    return sorted(float(f"{b + jit():.7g}") for b in below + above)


def test_figure3_is_the_per_point_record_curve_bit_for_bit():
    cfg = load_config(Path(__file__).resolve().parents[1] / "configs" / "fig3.json")
    curves = [(cfg.params, cfg.sweep["values"], cfg.uniform["density"])]
    rng = random.Random(3)
    for _ in range(10):
        res = FeshbachResonance(a0=5e-7 * rng.uniform(0.9, 1.1), b0=100.0, delta=0.01, b=100.0)
        p = PhysicalParams(omega_a=1.0, omega_m=1.4, n_a=1e6 * rng.uniform(0.8, 1.2),
                           resonance=res)
        curves.append((p, _jittered_fields(rng), 1e15 * rng.uniform(0.9, 1.1)))
    p = fig3_params()
    # integer and numpy fields, a singular one after a good one, and a
    # depletion failure, each against the per-record curve
    curves += [(p, [99, np.float64(100.004), 101], 1e15), (p, [99.9, 100.0], 1e15),
               (p, [99.9, 99.9999], 1e15)]
    kinds = set()
    for p, bs, density in curves:
        got = _curve_outcome(lambda: figure3_curve(p, bs, density=density))
        assert got == _curve_outcome(lambda: _reference_curve(p, bs, density)), bs
        kinds.add(got[0] if isinstance(got, tuple) else "returned")
    assert kinds == {"returned", "ResonanceSingularityError", "DomainError"}
    # a field that is not finite is the record's ConfigError, unprefixed
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ConfigError) as want:
            replace(p.resonance, b=bad)
        with pytest.raises(ConfigError) as got:
            figure3_curve(p, [99.9, bad], density=1e15)
        assert str(got.value) == str(want.value) == f"resonance.b must be a finite number, got {bad!r}"
