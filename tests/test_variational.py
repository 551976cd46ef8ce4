import dataclasses
import math
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from hybridbec import ConfigError, DomainError, PhysicalParams, load_config, variational
from hybridbec.errors import BoundaryMinimumError
from hybridbec.variational import (
    EDGE_TOL,
    SearchBox,
    _couplings,
    _mode_kernel,
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
    # a decoupled set is its own alpha = lambda = 0 counterpart: one lane
    # per N in the sweep's one batch, listed twice, and the rows are those
    # of the two separate minimizations to the bit
    batches = []
    real = variational._minimize_lanes

    def counting(mode, lanes, box):
        batches.append(list(lanes))
        return real(mode, lanes, box)

    monkeypatch.setattr(variational, "_minimize_lanes", counting)
    n_list = [50.0, 100.0, 200.0]
    out = sweep_spectrum("100", params, n_list)
    assert [len(lanes) for lanes in batches] == [per_point * len(n_list)]
    bare = replace(params, alpha=0.0, lambda_am=0.0)
    sets = [params] if per_point == 1 else [params, bare]
    assert batches[0] == [(p, n) for n in n_list for p in sets]
    expected = [r for n in n_list
                for r in (minimize_mode("100", params, n), minimize_mode("100", bare, n))]
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
    # the message names the overflow rather than asking for a wider box;
    # the scan's overflow itself is not reported as a RuntimeWarning
    with pytest.raises(BoundaryMinimumError) as info:
        minimize_mode("010", WEAK, 1e4, SearchBox(omega_lo=1e-320, omega_hi=1e-310))
    assert "overflowed" in str(info.value) and "widen" not in str(info.value)
    assert info.value.energy == math.inf


@pytest.mark.parametrize("box", [SearchBox(omega_hi=1e308), SearchBox(omega_lo=1e-320)],
                         ids=["omega_hi", "omega_lo"])
def test_wide_box_overflow_writes_no_warning(box):
    # the scan cells past the floats are +inf and passed over; with tier-1
    # turning a RuntimeWarning into an error, the sweep must still return
    # the default box's minima
    params = PhysicalParams(omega_a=1.0, omega_m=1.4, lambda_a=0.1)
    for mode, omega, energy in (("010", 0.7826033, 3.0255006), ("100", 0.8952467, 4.2521986)):
        got = sweep_spectrum(mode, params, [100.0], box)[0]
        want = sweep_spectrum(mode, params, [100.0])[0]
        assert got.omega_opt == pytest.approx(want.omega_opt, abs=1e-7)
        assert got.energy == pytest.approx(want.energy, abs=1e-12)
        assert (got.omega_opt, got.energy) == pytest.approx((omega, energy), abs=1e-7)


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
    # every zero pattern of the strengths (c_lam, c_lama, c_alpha), whose
    # zero terms the refine leaves out: the free gas, bare lanes, lambda_a
    # = 0 resonant sets, each as +0.0 and -0.0, attractive lambda_a and n_m > 0
    for lambda_am, lambda_a, alpha in np.ndindex(2, 2, 2):
        for zero in (0.0, -0.0):
            params = PhysicalParams(
                omega_a=1.0, omega_m=1.4, lambda_am=0.1 * lambda_am or zero,
                lambda_a=0.1 * lambda_a or zero, alpha=0.5 * alpha or zero)
            cases += [(mode, params, 1e4, wide) for mode in ("010", "100")]
    # alpha alone at N = 1e4 is unbounded; at 1e3 and alpha = 0.01 it is not
    for params in (replace(WEAK, lambda_a=-0.02), replace(ZERO, lambda_a=-0.001),
                   replace(ZERO, alpha=0.01), replace(ZERO, lambda_a=-0.0, alpha=0.01),
                   replace(WEAK, n_m=100.0), replace(WEAK, lambda_a=0.0, n_m=100.0)):
        cases += [(mode, params, 1e3, wide) for mode in ("010", "100")]
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
        p = _at(params, n)
        quad, mix = _mode_kernel(mode, p)(w, *_couplings(p, p.n_a, p.n_m))
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


def _reference_parts(mode, p, n_a, n_m):
    """The single-lane kernel the sweep's scan table must reproduce: omega
    -> (P, S) with every constant of the lane hoisted into a closure."""
    hb, m = p.hbar, p.mass
    c_lam = p.lambda_am * n_m * p.omega_m**1.5 * (2.0 * m / (math.pi * hb)) ** 1.5
    c_lama = 2.0 * p.lambda_a * n_a * p.omega_a**1.5 * (m / (math.pi * hb)) ** 1.5
    c_alpha = (
        4.0 * p.alpha * math.sqrt(n_m) * p.omega_m**0.75
        * (2.0 * m / (math.pi * hb)) ** 0.75
    )
    hb_wa2 = hb * p.omega_a**2
    w_lam, w_lama, w_alpha = 2.0 * p.omega_m, p.omega_a, p.omega_m
    pre, shape = ((1.25, lambda x, y: (x / (x + y)) ** 2.5) if mode == "010"
                  else (1.75, shape_factor))

    def parts(omega):
        lama = c_lama * shape(omega, w_lama)
        quad = pre * (hb * omega + hb_wa2 / omega) + c_lam * shape(omega, w_lam) + lama
        return quad, lama + c_alpha * shape(omega, w_alpha)

    return parts


def _reference_scan(mode, params, n, box):
    """(parts, ws, G, first) of one lane scanned on its own: a per-call
    linspace, and G None with first the first S/2 >= P point if any."""
    parts = _reference_parts(mode, params, n, params.n_m if params.n_m > 0 else n)
    ws = np.linspace(box.omega_lo, box.omega_hi, box.coarse)
    quad, mix = parts(ws)
    unbounded = 0.5 * mix >= quad
    if unbounded.any():
        return parts, ws, None, int(unbounded.argmax())
    h = np.maximum(0.5 * mix, 0.0)
    return parts, ws, np.where(h > 0.0, np.sqrt((quad - h) * (quad + h)), quad), -1


def _reference_minimum(mode, params, n, box):
    """One lane minimized on its own: its scan, then the golden section
    between the scan points next to the best one, and v in closed form."""
    parts, ws, g, first = _reference_scan(mode, params, n, box)
    if g is None:
        raise variational._unbounded(mode, float(ws[first]))
    i = int(np.argmin(g))

    def lowest(omega):
        quad, mix = parts(omega)
        h = 0.5 * mix
        if h >= quad:
            raise variational._unbounded(mode, omega)
        return math.sqrt((quad - h) * (quad + h)) if h > 0.0 else quad

    w_opt, energy = variational._golden_min(
        lowest, float(ws[max(i - 1, 0)]), float(ws[min(i + 1, box.coarse - 1)]))
    quad, mix = parts(w_opt)
    v_opt = math.sinh(0.5 * math.atanh(0.5 * mix / quad)) if mix > 0.0 else 0.0
    if not math.isfinite(energy):
        raise BoundaryMinimumError(
            f"mode {mode} energy functional overflowed in the search box at "
            f"omega = {w_opt:.6g}; shrink the box",
            v=v_opt, omega=w_opt, energy=energy,
        )
    if (v_opt > box.v_max or w_opt < box.omega_lo * (1.0 + EDGE_TOL)
            or w_opt > box.omega_hi * (1.0 - EDGE_TOL)):
        raise BoundaryMinimumError(
            f"mode {mode} minimizer at or beyond the search boundary at "
            f"(v, omega) = ({v_opt:.6g}, {w_opt:.6g}); widen the box",
            v=v_opt, omega=w_opt, energy=energy,
        )
    return variational.VariationalResult(
        mode=mode, v_opt=v_opt, omega_opt=w_opt, energy=energy, n_atoms=float(n),
        resonant=(params.alpha != 0.0 or params.lambda_am != 0.0),
    )


def _reference_sweep(mode, params, n_list, box):
    bare = replace(params, alpha=0.0, lambda_am=0.0)
    out = []
    for n in n_list:
        try:
            out += [_reference_minimum(mode, p, n, box) for p in (params, bare)]
        except BoundaryMinimumError as exc:
            raise BoundaryMinimumError(
                f"sweep failed at N = {n:g}: {exc}",
                v=exc.v, omega=exc.omega, energy=exc.energy,
            ) from exc
    return out


def _fingerprint(call):
    """What a call returned or raised, with every float as its .hex()."""
    try:
        out = call()
    except BoundaryMinimumError as exc:
        return ("raised", type(exc).__name__, str(exc),
                exc.v.hex(), exc.omega.hex(), exc.energy.hex())
    return ("returned", [(r.mode, r.v_opt.hex(), r.omega_opt.hex(), r.energy.hex(),
                          r.n_atoms.hex(), r.resonant)
                         for r in (out if isinstance(out, list) else [out])])


def _sweeps():
    """The parity, mode_sweeps and instability cases as sweeps: (mode,
    params, box) -> its N values, ascending."""
    sweeps = {}
    for mode, params, n, box in _parity_cases() + _mode_sweeps_cases() + _instability_cases():
        sweeps.setdefault((mode, params, box), []).append(n)
    return [(mode, params, sorted(set(ns)), box) for (mode, params, box), ns in sweeps.items()]


def test_minimize_mode_is_the_single_lane_kernel_bit_for_bit():
    kinds = set()
    for mode, params, n, box in _parity_cases() + _mode_sweeps_cases() + _instability_cases():
        got = _fingerprint(lambda: minimize_mode(mode, params, n, box))
        assert got == _fingerprint(lambda: _reference_minimum(mode, params, n, box)), \
            (mode, params, n, box)
        kinds.add(got[0] if got[0] == "returned" else got[2].split(" ")[2])
    # minima, unbounded trial energies, pins and overflowing v all occur
    assert kinds == {"returned", "trial", "minimizer"}


@pytest.mark.parametrize("block_cells", [variational.SCAN_BLOCK_CELLS, 5 * 64],
                         ids=["one-block", "blocks-of-five-lanes"])
def test_sweep_is_the_single_lane_kernel_bit_for_bit(monkeypatch, block_cells):
    # every lane of a sweep, whatever the blocking of its table, returns
    # or raises what it does scanned and refined on its own
    monkeypatch.setattr(variational, "SCAN_BLOCK_CELLS", block_cells)
    outcomes = set()
    for mode, params, n_list, box in _sweeps():
        got = _fingerprint(lambda: sweep_spectrum(mode, params, n_list, box))
        assert got == _fingerprint(lambda: _reference_sweep(mode, params, n_list, box)), \
            (mode, params, n_list, box)
        outcomes.add(got[0])
    assert outcomes == {"returned", "raised"}


def test_scan_table_rows_are_the_single_lane_scans_bit_for_bit(monkeypatch):
    # the tables a sweep builds, row by row, against each lane scanned on
    # its own: G of a bounded lane, and the first S/2 >= P point otherwise
    tables = []
    real = variational._scan_table

    def recording(parts, ws, couplings):
        g, first = real(parts, ws, couplings)
        tables.append((ws, g, first))
        return g, first

    monkeypatch.setattr(variational, "_scan_table", recording)
    bounded = unbounded = 0
    for mode, params, n_list, box in _sweeps():
        bare = replace(params, alpha=0.0, lambda_am=0.0)
        lanes = [(p, n) for n in n_list for p in ((params,) if bare == params else (params, bare))]
        tables.clear()
        try:
            sweep_spectrum(mode, params, n_list, box)
        except BoundaryMinimumError:
            pass
        rows = [(ws, row, j) for ws, g, first in tables for row, j in zip(g, first.tolist())]
        assert len(rows) == len(lanes)
        for (p, n), (ws, row, j) in zip(lanes, rows):
            _, ref_ws, g, ref_first = _reference_scan(mode, p, n, box)
            assert ws.tobytes() == ref_ws.tobytes() and j == ref_first
            if g is not None:
                assert row.tobytes() == g.tobytes(), (mode, p, n, box)
                bounded += 1
            unbounded += g is None
    assert bounded and unbounded


def test_sweep_raises_its_first_failing_lane():
    # alpha alone: S/2 grows as sqrt(N) against a fixed P, so in a box
    # above the free minimum the first N pins at omega_lo and the last
    # is unbounded; the table sees both, the first lane's error is raised
    params = PhysicalParams(omega_a=1.0, omega_m=1.4, alpha=0.01)
    box = SearchBox(omega_lo=3.0, omega_hi=5.0)
    with pytest.raises(BoundaryMinimumError) as last:
        minimize_mode("010", params, 1e6, box)
    assert "unbounded below" in str(last.value)
    with pytest.raises(BoundaryMinimumError) as first:
        minimize_mode("010", params, 10.0, box)
    assert "widen the box" in str(first.value)
    with pytest.raises(BoundaryMinimumError) as info:
        sweep_spectrum("010", params, [10.0, 1e6], box)
    assert str(info.value) == f"sweep failed at N = 10: {first.value}"
    assert info.value.omega == first.value.omega


def test_sweep_of_unbounded_lanes_raises_without_a_warning():
    # an attractive lambda_a makes the bare counterpart unbounded too, and
    # alpha = 20 puts |P| < S/2 on the resonant lanes, where the square
    # root of P^2 - S^2/4 would be of a negative number
    params = replace(WEAK, lambda_a=-0.1, alpha=20.0)
    box = SearchBox(omega_lo=0.005)
    for mode in ("010", "100"):
        for p in (params, replace(params, alpha=0.0, lambda_am=0.0)):
            with pytest.raises(BoundaryMinimumError, match="unbounded below"):
                minimize_mode(mode, p, 1e4, box)
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            with pytest.raises(BoundaryMinimumError, match="sweep failed at N = 10000: .*unbounded"):
                sweep_spectrum(mode, params, [1e4, 1e5], box)
        assert seen == []


def test_sweep_over_a_fine_scan_is_its_single_lane_calls():
    # 2**20 points: the table is built one lane at a time
    box = SearchBox(omega_lo=0.005, coarse=2**20)
    assert variational.SCAN_BLOCK_CELLS // box.coarse == 0
    n_list = [1e4, 1e6]
    bare = replace(WEAK, alpha=0.0, lambda_am=0.0)
    assert sweep_spectrum("100", WEAK, n_list, box) == [
        minimize_mode("100", p, n, box) for n in n_list for p in (WEAK, bare)]


def test_lane_kernel_is_the_reference_g_bit_for_bit():
    # the refine's kernel, which leaves out the terms of zero strength,
    # against G of the reference kernel on and between the scan points:
    # the same bits, or the same S/2 >= P error
    for mode, params, n, box in _parity_cases():
        n_m = params.n_m if params.n_m > 0 else n
        parts = _reference_parts(mode, params, n, n_m)
        lowest = variational._lane_kernel(mode, params, *_couplings(params, n, n_m))
        for w in np.linspace(box.omega_lo, box.omega_hi, 4 * box.coarse + 1).tolist():
            quad, mix = parts(w)
            h = 0.5 * mix
            if h >= quad:
                with pytest.raises(BoundaryMinimumError) as info:
                    lowest(w)
                assert str(info.value) == str(variational._unbounded(mode, w))
            else:
                want = math.sqrt((quad - h) * (quad + h)) if h > 0.0 else quad
                assert lowest(w).hex() == want.hex(), (mode, params, n, w)


def test_lanes_of_equal_strengths_share_one_refine(monkeypatch):
    # the free gas's lanes all have the strengths (0, 0, 0), as have the
    # bare lanes of a lambda_a = 0 set: one golden section per mode for
    # each such group, and every row is minimize_mode's at its N, to the bit
    calls = []
    real = variational._golden_min

    def counting(g, a, b):
        calls.append((a, b))
        return real(g, a, b)

    n_list = np.geomspace(1e4, 1e6, 9).tolist()
    wide = SearchBox(omega_lo=0.005)
    resonant = PhysicalParams(omega_a=1.0, omega_m=1.4, lambda_am=0.1, alpha=0.5)
    for params, refines in ((ZERO, 1), (resonant, len(n_list) + 1)):
        bare = replace(params, alpha=0.0, lambda_am=0.0)
        for mode in ("010", "100"):
            calls.clear()
            monkeypatch.setattr(variational, "_golden_min", counting)
            rows = sweep_spectrum(mode, params, n_list, wide)
            monkeypatch.setattr(variational, "_golden_min", real)
            assert len(calls) == refines, (mode, params)
            want = [minimize_mode(mode, p, n, wide) for n in n_list for p in (params, bare)]
            assert _fingerprint(lambda: rows) == _fingerprint(lambda: want)
