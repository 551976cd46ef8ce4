import dataclasses
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from hybridbec import ConfigError, DomainError, PhysicalParams, load_config, variational
from hybridbec.errors import BoundaryMinimumError
from hybridbec.variational import (
    EDGE_TOL,
    SearchBox,
    _mode_parts,
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
    # each entry is checked before the order, so a string is no TypeError
    for bad in ([100.0, "200"], ["100"], [100.0, None], [True, 2.0]):
        with pytest.raises(ConfigError):
            sweep_spectrum("010", WEAK, bad)


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


def test_overflowing_box_is_reported_as_overflow():
    # v is in closed form, so a huge v_max evaluates no huge v: the box
    # gives the v_max = 5 minimum
    r = minimize_mode("010", WEAK, 1e4, SearchBox(v_max=1e200, omega_lo=0.005))
    assert r == minimize_mode("010", WEAK, 1e4, SearchBox(omega_lo=0.005))
    # hbar w_a^2 / w overflows for subnormal w: the minimum is inf, and
    # the message names the overflow rather than asking for a wider box
    with pytest.warns(RuntimeWarning, match="overflow encountered"):
        with pytest.raises(BoundaryMinimumError) as info:
            minimize_mode("010", WEAK, 1e4, SearchBox(omega_lo=1e-320, omega_hi=1e-310))
    assert "overflowed" in str(info.value) and "widen" not in str(info.value)
    assert info.value.energy == math.inf


def _parity_cases():
    """Random resonant sets, N from 10 to 1e6, in the default and the
    widened box, with the free gas, minima pinned to omega_lo and a
    v_max = 1e200 box (1 + 2v^2 overflows on any grid that reaches it)."""
    rng = np.random.default_rng(20)
    wide = SearchBox(omega_lo=0.005)
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


def _at(params, n):
    """The parameter set minimize_mode evaluates at atom number n."""
    return replace(params, n_a=n, n_m=params.n_m if params.n_m > 0 else n)


def _outcome(mode, params, n, box):
    """(kind, v, omega, E) of minimize_mode: kind is "interior", or where
    the minimizer left the box, "v_max" or "omega_edge"."""
    try:
        r = minimize_mode(mode, params, n, box)
    except BoundaryMinimumError as exc:
        return "v_max" if exc.v > box.v_max else "omega_edge", exc.v, exc.omega, exc.energy
    return "interior", r.v_opt, r.omega_opt, r.energy


def _brute_force(mode, params, n, box, cells=400, zooms=20):
    """(kind, v, omega, E) of the least E(v, omega) on a cells x cells grid
    over the box, even in asinh(v) and omega, zoomed `zooms` times around
    its best cell; kind as in `_outcome`, from where that cell sits."""
    energy, p = (energy_010 if mode == "010" else energy_100), _at(params, n)
    t_max = math.asinh(box.v_max)
    t_lo, t_hi, w_lo, w_hi = 0.0, t_max, box.omega_lo, box.omega_hi
    for size in [cells] + [21] * zooms:
        ts, ws = np.linspace(t_lo, t_hi, size), np.linspace(w_lo, w_hi, size)
        with np.errstate(over="ignore", invalid="ignore"):  # v_max = 1e200: NaN cells
            e = energy(np.sinh(ts)[:, None], ws, p)
        i, j = np.unravel_index(np.nanargmin(e), e.shape)
        t_lo, t_hi = ts[max(i - 1, 0)], ts[min(i + 1, size - 1)]
        w_lo, w_hi = ws[max(j - 1, 0)], ws[min(j + 1, size - 1)]
    v, w = math.sinh(ts[i]), float(ws[j])
    if v > box.v_max * (1.0 - EDGE_TOL):
        kind = "v_max"
    elif w < box.omega_lo * (1.0 + EDGE_TOL) or w > box.omega_hi * (1.0 - EDGE_TOL):
        kind = "omega_edge"
    else:
        kind = "interior"
    return kind, v, w, float(e[i, j])


def test_minimum_is_no_higher_than_the_brute_force_minimum():
    # the 1-D search over omega with v in closed form finds the 2-D
    # minimum: it leaves the box where the brute force does, and inside
    # it is no higher, and its point has its energy, to round-off
    kinds = []
    for mode, params, n, box in _parity_cases() + _mode_sweeps_cases():
        got = _outcome(mode, params, n, box)
        want = _brute_force(mode, params, n, box)
        assert got[0] == want[0], (mode, params, n, box, got, want)
        kinds.append(got[0])
        if got[0] == "interior":
            kind, v, w, e = got
            assert e <= want[3] + 1e-14 * abs(want[3]), (mode, params, n, box)
            energy = energy_010 if mode == "010" else energy_100
            assert energy(v, w, _at(params, n)) == pytest.approx(e, rel=1e-14)
    assert "interior" in kinds and "omega_edge" in kinds


def test_closed_form_v_is_stationary():
    # dE/dv = 4 v P - S (1 + 2v^2) / sqrt(1 + v^2) vanishes at the
    # returned v to round-off; v = 0 only where S <= 0, where E rises from v = 0
    free = 0
    for mode, params, n, box in _parity_cases() + _mode_sweeps_cases():
        kind, v, w, _ = _outcome(mode, params, n, box)
        if kind != "interior":
            continue
        quad, mix = _mode_parts(mode, _at(params, n))(w)
        if v == 0.0:
            assert mix <= 0.0
            free += 1
            continue
        pull = mix * (1.0 + 2.0 * v * v) / math.sqrt(1.0 + v * v)
        assert abs(4.0 * v * quad - pull) <= 1e-14 * pull, (mode, params, n, box)
    assert free > 0


def _instability_cases():
    """WEAK with alpha from 0.5 to 20, N = 1e4 to 1e6, both modes, the
    widened box: the large-alpha, small-N sets have S/2 >= P in the box."""
    wide = SearchBox(omega_lo=0.005)
    return [(mode, replace(WEAK, alpha=alpha), n, wide)
            for alpha in (0.5, 2.0, 5.0, 20.0) for n in (1e4, 1e5, 1e6)
            for mode in ("010", "100")]


def test_unbounded_trial_energy_fires_where_brute_force_runs_to_v_max():
    fired = 0
    for case in _instability_cases():
        try:
            minimize_mode(*case)
            unbounded = False
        except BoundaryMinimumError as exc:
            unbounded = exc.v == math.inf
            assert unbounded and exc.energy == -math.inf, case
            assert "unbounded below" in str(exc) and "S/2 >= P" in str(exc)
        assert unbounded == (_brute_force(*case)[0] == "v_max"), case
        fired += unbounded
    assert 0 < fired < len(_instability_cases())
    # a bounded minimum with v above v_max raises too, carrying that v
    small = SearchBox(v_max=0.05, omega_lo=0.005)
    with pytest.raises(BoundaryMinimumError) as info:
        minimize_mode("010", WEAK, 1e4, small)
    assert 0.05 < info.value.v < 5.0 and "widen the box" in str(info.value)
    assert _brute_force("010", WEAK, 1e4, small)[0] == "v_max"


def test_search_box_record_unchanged_by_its_grids():
    # repr, asdict, equality and hash are those of the four fields, before
    # and after a search in the box
    box, fresh = SearchBox(omega_lo=0.005), SearchBox(omega_lo=0.005)
    before = (repr(box), dataclasses.asdict(box), hash(box))
    minimize_mode("010", WEAK, 100.0, box)
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
