import dataclasses
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize

from hybridbec import ConfigError, DomainError, PhysicalParams, load_config, variational
from hybridbec.errors import BoundaryMinimumError
from hybridbec.variational import (
    SearchBox,
    _mode_energy,
    _nelder_mead,
    energy_010,
    energy_100,
    minimize_mode,
    shape_factor,
    sweep_spectrum,
)

ZERO = PhysicalParams(omega_a=1.0, omega_m=1.4)
# strong-quartic reference set used for the anchor values below:
# alpha = 5*lambda_a, lambda_a = lambda = 0.1, equal populations
STRONG = PhysicalParams(
    omega_a=1.0, omega_m=1.4, lambda_a=0.1, alpha=0.5, lambda_am=0.1,
    n_a=1e6, n_m=1e6,
)
WEAK = PhysicalParams(omega_a=1.0, omega_m=1.4, lambda_a=0.1, alpha=0.5, lambda_am=0.1)


def test_shape_factor_values():
    # equal arguments: s = 1/2 exactly
    assert shape_factor(2.3, 2.3) == pytest.approx(0.2209708691207961, rel=1e-12)
    assert shape_factor(2.3, 2.3) == pytest.approx(0.2210, abs=1e-4)
    # narrow-partner limit s -> 1 gives 3/2 - 3 + 5/2 = 1
    assert shape_factor(1.0, 1e-12) == pytest.approx(1.0, rel=1e-9)
    # wide-partner limit s -> 0
    assert shape_factor(1e-9, 1.0) < 1e-12
    # positive on the whole working range
    x = np.linspace(0.01, 5.0, 200)
    assert np.all(shape_factor(x, 1.4) > 0.0)
    assert np.all(shape_factor(x, 2.8) > 0.0)


def test_energy_rejects_nonpositive_frequency():
    for fn in (energy_010, energy_100):
        with pytest.raises(DomainError):
            fn(0.1, 0.0, ZERO)
        with pytest.raises(DomainError):
            fn(0.1, -1.0, ZERO)
        with pytest.raises(DomainError):
            fn(0.1, np.array([0.5, 0.0]), ZERO)
        # a non-finite frequency is outside the domain too, not a NaN energy
        for omega in (math.nan, math.inf, np.array([0.5, math.nan]), np.array([math.inf, 1.0])):
            with pytest.raises(DomainError):
                fn(0.1, omega, ZERO)


def test_zero_coupling_closed_form():
    w = np.linspace(0.3, 4.0, 17)
    assert energy_010(0.0, w, ZERO) == pytest.approx(1.25 * (w + 1.0 / w), rel=1e-14)
    assert energy_100(0.0, w, ZERO) == pytest.approx(1.75 * (w + 1.0 / w), rel=1e-14)


def test_conversion_term_lowers_energy_with_v():
    p_alpha = PhysicalParams(omega_a=1.0, omega_m=1.4, alpha=0.5, n_a=100.0, n_m=100.0)
    p_bare = PhysicalParams(omega_a=1.0, omega_m=1.4, n_a=100.0, n_m=100.0)
    v = np.linspace(0.0, 2.0, 40)
    for fn in (energy_010, energy_100):
        pull = fn(v, 1.3, p_alpha) - fn(v, 1.3, p_bare)
        assert pull[0] == 0.0
        assert np.all(np.diff(pull) < 0.0)


def test_energy_anchor_values():
    # strong-quartic set evaluated at fixed (v, omega) = (0.1, 1.2);
    # values cross-checked at 30-digit precision before freezing
    assert energy_010(0.1, 1.2, STRONG) == pytest.approx(11463.589405317195, rel=1e-12)
    assert energy_100(0.1, 1.2, STRONG) == pytest.approx(19682.285568967940, rel=1e-12)


def test_oscillator_gradients_match_analytic():
    h = 1e-6
    for v0, w0 in ((0.3, 0.8), (1.0, 2.0)):
        for fn, pref in ((energy_010, 1.25), (energy_100, 1.75)):
            gw = (fn(v0, w0 + h, ZERO) - fn(v0, w0 - h, ZERO)) / (2 * h)
            gv = (fn(v0 + h, w0, ZERO) - fn(v0 - h, w0, ZERO)) / (2 * h)
            assert gw == pytest.approx(
                (1 + 2 * v0**2) * pref * (1.0 - 1.0 / w0**2), rel=1e-6, abs=1e-9
            )
            assert gv == pytest.approx(4 * v0 * pref * (w0 + 1.0 / w0), rel=1e-6)


def test_zero_coupling_minima_exact():
    r = minimize_mode("010", ZERO, 10.0)
    assert r.v_opt == pytest.approx(0.0, abs=1e-6)
    assert r.omega_opt == pytest.approx(1.0, abs=1e-6)
    assert r.energy == pytest.approx(2.5, abs=1e-6)
    assert not r.resonant
    r = minimize_mode("100", ZERO, 10.0)
    assert r.energy == pytest.approx(3.5, abs=1e-6)
    assert r.omega_opt == pytest.approx(1.0, abs=1e-6)


def test_minimizer_is_stationary():
    # central-difference gradient tiny against the local curvature scale
    r = minimize_mode("010", WEAK, 100.0)
    assert 0.0 < r.v_opt < 5.0 and 0.2 < r.omega_opt < 5.0
    h = 1e-5
    e = lambda v, w: energy_010(v, w, WEAK.__class__(**{**WEAK.to_dict(), "n_a": 100.0, "n_m": 100.0}))
    gv = (e(r.v_opt + h, r.omega_opt) - e(r.v_opt - h, r.omega_opt)) / (2 * h)
    gw = (e(r.v_opt, r.omega_opt + h) - e(r.v_opt, r.omega_opt - h)) / (2 * h)
    hvv = (e(r.v_opt + h, r.omega_opt) - 2 * e(r.v_opt, r.omega_opt) + e(r.v_opt - h, r.omega_opt)) / h**2
    hww = (e(r.v_opt, r.omega_opt + h) - 2 * e(r.v_opt, r.omega_opt) + e(r.v_opt, r.omega_opt - h)) / h**2
    scale = max(abs(hvv), abs(hww))
    assert abs(gv) < 1e-6 * scale
    assert abs(gw) < 1e-6 * scale


def test_coarse_refinement_invariance():
    a = minimize_mode("010", WEAK, 100.0, SearchBox(coarse=64))
    b = minimize_mode("010", WEAK, 100.0, SearchBox(coarse=128))
    assert abs(a.energy - b.energy) < 1e-8
    c = minimize_mode("100", WEAK, 100.0, SearchBox(coarse=64))
    d = minimize_mode("100", WEAK, 100.0, SearchBox(coarse=128))
    assert abs(c.energy - d.energy) < 1e-8


def test_decoupled_results_ignore_molecule_parameters():
    base = PhysicalParams(omega_a=1.0, omega_m=1.4, lambda_a=0.05)
    other = PhysicalParams(omega_a=1.0, omega_m=3.7, lambda_a=0.05, n_m=500.0)
    for mode in ("010", "100"):
        a = minimize_mode(mode, base, 200.0)
        b = minimize_mode(mode, other, 200.0)
        assert a.energy == b.energy
        assert a.v_opt == b.v_opt and a.omega_opt == b.omega_opt


def test_strong_coupling_escapes_default_box():
    # lambda_a*N_a = 1e5 drives the trial width far past the bare
    # oscillator: the minimizer runs into omega_lo and must raise
    with pytest.raises(BoundaryMinimumError) as info:
        minimize_mode("010", STRONG, 1e6)
    assert info.value.omega == pytest.approx(0.2, rel=1e-3)
    wide = SearchBox(omega_lo=0.005)
    r = minimize_mode("010", STRONG, 1e6, wide)
    assert 0.005 < r.omega_opt < 0.2


def test_sweep_pairs_and_validation():
    single = sweep_spectrum("010", WEAK, [150.0])
    assert len(single) == 2
    assert single[0].resonant and not single[1].resonant
    assert single[0].n_atoms == single[1].n_atoms == 150.0
    out = sweep_spectrum("100", WEAK, [50.0, 100.0, 200.0])
    assert len(out) == 6
    with pytest.raises(ConfigError):
        sweep_spectrum("010", WEAK, [])
    with pytest.raises(ConfigError):
        sweep_spectrum("010", WEAK, [100.0, 100.0])


@pytest.mark.parametrize("params, per_point", [
    (replace(WEAK, alpha=0.0, lambda_am=0.0), 1),
    (WEAK, 2),
], ids=["decoupled", "resonant"])
def test_sweep_minimizes_a_decoupled_set_once(monkeypatch, params, per_point):
    # a decoupled set is its own alpha = lambda = 0 counterpart: one
    # minimization per N, listed twice, and the rows are those of the two
    # separate minimizations to the bit
    calls = []
    real = variational.minimize_mode

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(variational, "minimize_mode", counting)
    n_list = [50.0, 100.0, 200.0]
    out = sweep_spectrum("100", params, n_list)
    assert len(calls) == per_point * len(n_list)
    bare = replace(params, alpha=0.0, lambda_am=0.0)
    expected = [r for n in n_list
                for r in (real("100", params, n), real("100", bare, n))]
    assert out == expected


def test_sweep_names_the_population_of_a_pinned_minimum():
    # the free gas minimizes at omega = 1, outside this box: the first
    # point pins to omega_lo and the sweep says at which N
    box = SearchBox(omega_lo=3.0, omega_hi=5.0)
    with pytest.raises(BoundaryMinimumError) as info:
        sweep_spectrum("010", ZERO, [10.0, 20.0], box)
    inner = info.value.__cause__
    assert isinstance(inner, BoundaryMinimumError)
    assert str(info.value) == f"sweep failed at N = 10: {inner}"
    assert (info.value.v, info.value.omega, info.value.energy) == \
        (inner.v, inner.omega, inner.energy)
    assert info.value.omega == pytest.approx(3.0, rel=1e-3)


def test_strong_quartic_coupling_raises_both_modes():
    # with comparable quartic couplings (lambda = lambda_a) the
    # molecule-mediated repulsion dominates the conversion pull and both
    # trial modes stiffen relative to the decoupled condensate
    wide = SearchBox(omega_lo=0.005)
    for n in (1e4, 1e5, 1e6):
        for mode in ("010", "100"):
            res = minimize_mode(mode, STRONG, n, wide)
            bare = minimize_mode(
                mode, STRONG.__class__(**{**STRONG.to_dict(), "alpha": 0.0, "lambda_am": 0.0}),
                n, wide,
            )
            assert res.energy > bare.energy


def test_bad_mode_and_population_rejected():
    with pytest.raises(ConfigError):
        minimize_mode("011", ZERO, 10.0)
    # a bool is not a population (True ran as N = 1), nor is a string or None
    for n in (0.0, -5.0, math.nan, math.inf, True, "100", None):
        with pytest.raises(ConfigError):
            minimize_mode("010", ZERO, n)
    # an integer or numpy population is its float
    assert minimize_mode("010", ZERO, 10) == minimize_mode("010", ZERO, np.float64(10.0))
    with pytest.raises(ConfigError):
        SearchBox(omega_lo=-1.0)
    for coarse in (1, 2.5, True, "64"):
        with pytest.raises(ConfigError):
            SearchBox(coarse=coarse)
    # an integral float is a count, as in the config file
    assert SearchBox(coarse=64.0) == SearchBox()
    assert minimize_mode("010", ZERO, 10.0, SearchBox(coarse=64.0)) == minimize_mode("010", ZERO, 10.0)


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
def test_overflowing_box_is_reported_as_overflow():
    # 1 + 2v^2 overflows for v_max above about 1.3e154: the minimum is
    # NaN, and the message names the overflow rather than asking for a
    # wider box
    with pytest.raises(BoundaryMinimumError) as info:
        minimize_mode("010", WEAK, 1e4, SearchBox(v_max=1e200, omega_lo=0.005))
    assert "overflowed" in str(info.value) and "widen" not in str(info.value)
    assert math.isnan(info.value.energy)
    r = minimize_mode("010", WEAK, 1e4, SearchBox(v_max=1e100, omega_lo=0.005))
    assert math.isfinite(r.energy) and r.v_opt < 5.0


def _scipy_polish(mode, params, n_atoms, box):
    """The polish as scipy ran it: bounded Nelder-Mead from the coarse minimum."""
    p = replace(params, n_a=float(n_atoms), n_m=params.n_m if params.n_m > 0 else float(n_atoms))
    fn = energy_010 if mode == "010" else energy_100
    vv, ww = np.meshgrid(
        np.linspace(0.0, box.v_max, box.coarse),
        np.linspace(box.omega_lo, box.omega_hi, box.coarse), indexing="ij",
    )
    i, j = np.unravel_index(int(np.argmin(fn(vv, ww, p))), vv.shape)
    res = minimize(
        lambda x: fn(x[0], x[1], p), x0=[vv[i, j], ww[i, j]], method="Nelder-Mead",
        bounds=[(0.0, box.v_max), (box.omega_lo, box.omega_hi)],
        options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 4000},
    )
    return float(res.x[0]), float(res.x[1]), float(res.fun)


def _parity_cases():
    rng = np.random.default_rng(20)
    wide = SearchBox(omega_lo=0.005)
    # v_max = 1e200 overflows 1 + 2v^2: the polish follows scipy through NaN energies
    cases = [("010", ZERO, 10.0, SearchBox()), ("100", ZERO, 1e4, wide),
             ("010", STRONG, 1e6, SearchBox()), ("100", STRONG, 1e6, SearchBox()),
             ("010", WEAK, 1e4, SearchBox(v_max=1e200, omega_lo=0.005))]
    for k in range(46):
        params = PhysicalParams(
            omega_a=1.0, omega_m=float(rng.uniform(0.8, 2.0)),
            lambda_a=float(rng.uniform(0.0, 0.2)), lambda_am=float(rng.uniform(0.0, 0.2)),
            alpha=float(rng.uniform(0.0, 1.0)),
            n_m=float(rng.choice([0.0, 100.0])),
        )
        n = float(10.0 ** rng.uniform(1.0, 6.0))
        cases.append(("010" if k % 2 else "100", params, n, wide if k % 3 else SearchBox()))
    return cases


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
def test_polish_matches_scipy_nelder_mead_bit_for_bit():
    # the float port of the bounded Nelder-Mead must return scipy's
    # minimizer and minimum to the last bit, pinned minima included
    outcomes = {"free": 0, "pinned": 0, "interior": 0}
    for mode, params, n, box in _parity_cases():
        try:
            r = minimize_mode(mode, params, n, box)
            got = (r.v_opt, r.omega_opt, r.energy)
        except BoundaryMinimumError as exc:
            got = (exc.v, exc.omega, exc.energy)
            outcomes["pinned"] += 1
        else:
            outcomes["free" if r.v_opt == 0.0 else "interior"] += 1
        want = _scipy_polish(mode, params, n, box)
        assert [x.hex() for x in got] == [x.hex() for x in want], (mode, params, n, box)
    assert min(outcomes.values()) > 0, outcomes


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
def test_open_grid_scan_equals_meshgrid():
    # the scan's column-of-v times row-of-omega evaluation is the full
    # meshgrid evaluation, bit for bit (NaN cells of the overflow case too)
    for mode, params, n, box in _parity_cases():
        p = replace(params, n_a=n, n_m=params.n_m if params.n_m > 0 else n)
        vs = np.linspace(0.0, box.v_max, box.coarse)
        ws = np.linspace(box.omega_lo, box.omega_hi, box.coarse)
        vv, ww = np.meshgrid(vs, ws, indexing="ij")
        mesh = (energy_010 if mode == "010" else energy_100)(vv, ww, p)
        open_grid = _mode_energy(mode, p)(vs[:, None], ws, np.sqrt)
        assert open_grid.shape == mesh.shape
        assert open_grid.tobytes() == mesh.tobytes(), (mode, params, n, box)


def _awkward_objectives():
    """Bowls with a NaN wall or hole next to the start, and a stepped bowl."""
    rng = np.random.default_rng(5)
    for _ in range(12):
        v0, w0 = rng.uniform(0.5, 1.5), rng.uniform(0.5, 1.5)
        cv, cw = rng.uniform(0.0, 2.0), rng.uniform(0.3, 3.0)
        wall = v0 * rng.uniform(1.01, 1.04)  # between the start and its +5% vertex
        hole, radius = 1.05 * v0, 0.01 * v0  # around the +5% vertex

        def bowl(v, w, cv=cv, cw=cw):
            return (v - cv) ** 2 + 2.0 * (w - cw) ** 2 + 1.0

        yield "wall", lambda v, w, b=bowl, c=wall: b(v, w) if v <= c else math.nan, v0, w0
        yield "hole", (lambda v, w, b=bowl, h=hole, r=radius, w0=w0:
                       math.nan if (v - h) ** 2 + (w - w0) ** 2 < r * r else b(v, w)), v0, w0
        yield "plateau", lambda v, w, b=bowl: math.floor(4.0 * b(v, w)) / 4.0, v0, w0


def test_nelder_mead_matches_scipy_on_nan_and_plateau_objectives():
    # NaN energies sort last, as in np.argsort, and a NaN vertex left at
    # maxiter makes the minimum NaN, as np.min does; plateau ties keep
    # scipy's stable order
    nan_minima = 0
    for maxiter in (1, 25, 400):
        for kind, f, v0, w0 in _awkward_objectives():
            res = minimize(
                lambda x: f(x[0], x[1]), x0=[v0, w0], method="Nelder-Mead",
                bounds=[(0.0, 2.0), (0.3, 3.0)],
                options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": maxiter},
            )
            want = [float(x).hex() for x in (res.x[0], res.x[1], res.fun)]
            got = _nelder_mead(f, v0, w0, (0.0, 0.3), (2.0, 3.0), maxiter=maxiter)
            assert [x.hex() for x in got] == want, (kind, maxiter, v0, w0)
            nan_minima += math.isnan(res.fun)
    assert nan_minima > 0


def _surface_shape(x, y):
    """(x/(x+y))^{5/2}, the surface mode's shape factor as a function."""
    return (x / (x + y)) ** 2.5


def _energy_before_inline(mode, p):
    """`_mode_energy` before its shape factors were written inline: one
    closure of both modes, calling `_surface_shape` or `shape_factor`
    per term."""
    hb, m = p.hbar, p.mass
    c_lam = p.lambda_am * p.n_m * p.omega_m**1.5 * (2.0 * m / (math.pi * hb)) ** 1.5
    c_lama = p.n_a * p.omega_a**1.5 * (m / (math.pi * hb)) ** 1.5
    c_alpha = (
        4.0 * p.alpha * math.sqrt(p.n_m) * p.omega_m**0.75
        * (2.0 * m / (math.pi * hb)) ** 0.75
    )
    hb_wa2, two_lam_a = hb * p.omega_a**2, 2.0 * p.lambda_a
    w_lam, w_lama, w_alpha = 2.0 * p.omega_m, p.omega_a, p.omega_m
    if mode == "010":
        pre, shape = 1.25, _surface_shape
    else:
        pre, shape = 1.75, shape_factor

    def energy(v, omega, sqrt=math.sqrt):
        quad = 1.0 + 2.0 * v * v
        mix = v * sqrt(1.0 + v * v)
        osc = hb * omega + hb_wa2 / omega
        return (
            quad * pre * osc
            + c_lam * quad * shape(omega, w_lam)
            + two_lam_a * (quad - mix) * c_lama * shape(omega, w_lama)
            - c_alpha * mix * shape(omega, w_alpha)
        )

    return energy


def _minimize_before_inline(mode, params, n_atoms, box):
    """(v, omega, E) of minimize_mode's kernel as it was: a PhysicalParams
    per point, the scan grids built per call, `_energy_before_inline`."""
    n_m = params.n_m if params.n_m > 0 else float(n_atoms)
    p = replace(params, n_a=float(n_atoms), n_m=n_m)
    vs = np.linspace(0.0, box.v_max, box.coarse)
    ws = np.linspace(box.omega_lo, box.omega_hi, box.coarse)
    energy_of = _energy_before_inline(mode, p)
    i, j = divmod(int(np.argmin(energy_of(vs[:, None], ws, np.sqrt))), box.coarse)
    return _nelder_mead(
        energy_of, float(vs[i]), float(ws[j]),
        (0.0, float(box.omega_lo)), (float(box.v_max), float(box.omega_hi)),
    )


def _mode_sweeps_cases():
    """The benchmark's variational family: N from 1e4 to 1e6 (9 points,
    ends jittered by 20%), both modes, the widened box, each jittered
    resonant set with its alpha = lambda = 0 counterpart, and the free gas."""
    rng = np.random.default_rng(23)
    wide = SearchBox(omega_lo=0.005)
    sets = [ZERO]
    for _ in range(3):
        res = PhysicalParams(
            omega_a=1.0, omega_m=1.4, lambda_a=0.1 * rng.uniform(0.8, 1.2),
            lambda_am=0.1 * rng.uniform(0.8, 1.2), alpha=0.5 * rng.uniform(0.8, 1.2),
        )
        sets += [res, replace(res, alpha=0.0, lambda_am=0.0)]
    cases = []
    for params in sets:
        n_list = np.geomspace(1e4 * rng.uniform(0.8, 1.2), 1e6 * rng.uniform(0.8, 1.2), 9)
        cases += [(mode, params, n, wide) for mode in ("010", "100") for n in n_list.tolist()]
    return cases


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
def test_minimize_mode_matches_the_per_point_kernel_bit_for_bit():
    # inline shape factors, no per-point PhysicalParams and the box's
    # cached grids give the minima of the per-call kernel to the last bit,
    # pinned and overflowing minima included
    for mode, params, n, box in _parity_cases() + _mode_sweeps_cases():
        try:
            r = minimize_mode(mode, params, n, box)
            got = (r.v_opt, r.omega_opt, r.energy)
        except BoundaryMinimumError as exc:
            got = (exc.v, exc.omega, exc.energy)
        want = _minimize_before_inline(mode, params, n, box)
        assert [x.hex() for x in got] == [x.hex() for x in want], (mode, params, n, box)


# v * sqrt(1 + v^2) is 1.0 to the bit at this v
GOLDEN_V = math.sqrt((math.sqrt(5.0) - 1.0) / 2.0)
TINY_HBAR = 2.0**-300


@pytest.mark.parametrize("mode", ["010", "100"])
def test_inline_shape_factors_equal_the_called_ones_bit_for_bit(mode):
    # each parameter set keeps one coupling term and makes its constant
    # exactly 1.0 (powers of two throughout), while hbar = 2^-300 puts the
    # oscillator term far below the last bit: E(v, omega) is then that
    # term's shape factor itself, on arrays and on floats alike
    assert GOLDEN_V * math.sqrt(1.0 + GOLDEN_V * GOLDEN_V) == 1.0
    hb = TINY_HBAR
    terms = [  # (params, v, width, sign of the term)
        (PhysicalParams(omega_a=1.0, omega_m=4.0, lambda_am=2.0**-6, n_m=1.0,
                        mass=2.0 * math.pi * hb, hbar=hb), 0.0, 8.0, 1.0),
        (PhysicalParams(omega_a=4.0, omega_m=1.0, lambda_a=0.5, n_a=2.0**-6,
                        mass=4.0 * math.pi * hb, hbar=hb), 0.0, 4.0, 1.0),
        (PhysicalParams(omega_a=1.0, omega_m=16.0, alpha=2.0**-8, n_m=1.0,
                        mass=8.0 * math.pi * hb, hbar=hb), GOLDEN_V, 16.0, -1.0),
    ]
    called = _surface_shape if mode == "010" else shape_factor
    ratios = np.geomspace(1e-12, 1e12, 481)
    for p, v, width, sign in terms:
        energy = _mode_energy(mode, p)
        omega = ratios * width
        want = called(omega, width)
        assert (sign * energy(v, omega, np.sqrt)).tobytes() == want.tobytes(), p
        floats = np.array([sign * energy(v, w) for w in omega.tolist()])
        assert floats.tobytes() == np.array([called(w, width) for w in omega.tolist()]).tobytes()


def test_scan_grids_are_cached_read_only_linspaces():
    for box in (SearchBox(), SearchBox(v_max=1e200, omega_lo=0.005, coarse=7)):
        vs, ws = box._scan_grids
        assert vs.tobytes() == np.linspace(0.0, box.v_max, box.coarse).tobytes()
        assert ws.tobytes() == np.linspace(box.omega_lo, box.omega_hi, box.coarse).tobytes()
        assert not vs.flags.writeable and not ws.flags.writeable
        with pytest.raises(ValueError):
            vs[0] = 1.0
        again = box._scan_grids
        assert again[0] is vs and again[1] is ws
        assert replace(box)._scan_grids[0] is not vs


def test_search_box_record_unchanged_by_its_grids():
    # the grids are no field: repr, asdict, equality and hash are those of
    # the four fields, before and after the first scan
    box, fresh = SearchBox(omega_lo=0.005), SearchBox(omega_lo=0.005)
    before = (repr(box), dataclasses.asdict(box), hash(box))
    minimize_mode("010", WEAK, 100.0, box)
    assert "_scan_grids" in vars(box) and "_scan_grids" not in vars(fresh)
    assert (repr(box), dataclasses.asdict(box), hash(box)) == before
    assert repr(box) == "SearchBox(v_max=5.0, omega_lo=0.005, omega_hi=5.0, coarse=64)"
    assert dataclasses.asdict(box) == {"v_max": 5.0, "omega_lo": 0.005, "omega_hi": 5.0,
                                       "coarse": 64}
    assert hash(box) == hash((5.0, 0.005, 5.0, 64))
    assert box == fresh and hash(box) == hash(fresh)
    assert [f.name for f in dataclasses.fields(box)] == ["v_max", "omega_lo", "omega_hi", "coarse"]


def test_bundled_variational_sweep_keeps_its_config_hash():
    cfg = load_config(Path(__file__).resolve().parents[1] / "configs" / "variational_sweep.json")
    assert cfg.config_hash() == "d714e5fb37a21b35"
    minimize_mode("010", cfg.params, 1e4, cfg.search_box())
    assert cfg.config_hash() == "d714e5fb37a21b35"
