import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import minimize

from hybridbec import ConfigError, DomainError, PhysicalParams, variational
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
    for n in (0.0, math.nan, math.inf):
        with pytest.raises(ConfigError):
            minimize_mode("010", ZERO, n)
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
