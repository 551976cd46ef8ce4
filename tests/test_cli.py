import importlib.util
import json
import logging
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import hybridbec.cli as cli
import hybridbec.variational as variational
from hybridbec import ConfigError
from hybridbec.bdg import block_2x2_spectrum
from hybridbec.cli import _solve_ground, main
from hybridbec.config import RunConfig, load_config
from hybridbec.csvio import provenance, write_csv
from hybridbec.grid import RadialOperator
from hybridbec.thermal import density_profile, total_numbers

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def read_csv(path):
    lines = [l for l in Path(path).read_text().splitlines()
             if l and not l.startswith("#")]
    names = lines[0].split(",")
    raw = {n: [] for n in names}
    for line in lines[1:]:
        for n, tok in zip(names, line.split(",")):
            raw[n].append(tok)
    out = {}
    for n, toks in raw.items():
        try:
            out[n] = np.array([float(t) for t in toks])
        except ValueError:
            out[n] = np.array(toks)
    return out


def write_config(tmp_path, name, data):
    p = tmp_path / name
    p.write_text(json.dumps(data))
    return str(p)


def test_config_defaults_and_strictness(tmp_path):
    cfg = load_config(CONFIGS / "ground_noninteracting.json")
    assert cfg.grid["n_points"] == 400
    assert cfg.bdg["method"] == "block"
    assert cfg.variational["coarse"] == 64
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"params": {"omega_a": 1.0, "omega_m": 1.4}, "extra": {}})
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"params": {"omega_a": 1.0, "omega_m": 1.4},
                             "grid": {"npoints": 100}})
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"params": {"omega_a": 1.0, "omega_m": 1.4},
                             "bdg": {"method": "shooting"}})
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"params": {"omega_a": 1.0, "omega_m": 1.4},
                             "sweep": {"variable": "Q", "values": [1.0]}})
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"params": {"omega_a": 1.0, "omega_m": 1.4},
                             "sweep": {"variable": "T", "values": []}})


def test_config_hash_tracks_content():
    a = RunConfig.from_dict({"params": {"omega_a": 1.0, "omega_m": 1.4}})
    b = RunConfig.from_dict({"params": {"omega_a": 1.0, "omega_m": 1.4}})
    c = RunConfig.from_dict({"params": {"omega_a": 1.0, "omega_m": 1.5}})
    assert a.config_hash() == b.config_hash()
    assert a.config_hash() != c.config_hash()
    # defaulted and explicit-default configs hash alike
    d = RunConfig.from_dict({"params": {"omega_a": 1.0, "omega_m": 1.4},
                             "grid": {"r_max": 8.0, "n_points": 400}})
    assert a.config_hash() == d.config_hash()


def test_ground_noninteracting_summary(tmp_path):
    rc = main(["ground", "--config", str(CONFIGS / "ground_noninteracting.json"),
               "--out", str(tmp_path)])
    assert rc == 0
    summary = json.loads((tmp_path / "ground_summary.json").read_text())
    assert summary["mu_a"] == pytest.approx(1.5, abs=1e-3)
    assert summary["residual"] < 1e-7
    assert summary["negative_phase_modes"] == 0
    data = read_csv(tmp_path / "condensate.csv")
    assert data["r"].size == 400
    assert np.all(data["phi_m"] == 0.0)


def test_ground_rerun_byte_identical(tmp_path):
    for d in ("one", "two"):
        assert main(["ground", "--config", str(CONFIGS / "ground_noninteracting.json"),
                     "--out", str(tmp_path / d)]) == 0
    a = (tmp_path / "one" / "condensate.csv").read_bytes()
    b = (tmp_path / "two" / "condensate.csv").read_bytes()
    assert a == b


def test_ground_collapse_exit_code(tmp_path, capsys):
    rc = main(["ground", "--config", str(CONFIGS / "ground_collapse.json"),
               "--out", str(tmp_path)])
    assert rc == 4
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "CollapseError"


def test_invalid_inputs_exit_config_code(tmp_path, capsys):
    bad = write_config(tmp_path, "bad.json", {
        "params": {"omega_a": 1.0, "omega_m": 1.4}, "bdg": {"method": "shooting"},
    })
    rc = main(["spectrum", "--config", bad, "--out", str(tmp_path)])
    assert rc == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "ConfigError"
    # argparse rejects an unknown --method before dispatch
    with pytest.raises(SystemExit):
        main(["spectrum", "--config", bad, "--method", "shooting"])
    rc = main(["ground", "--config", str(tmp_path / "missing.json")])
    assert rc == 2
    # an infinite search box (JSON 1e400) is rejected, not run to NaN
    # minima or a BoundaryMinimumError at v = nan
    for key in ("omega_hi", "v_max"):
        inf_box = write_config(tmp_path, f"inf_{key}.json", {
            "params": {"omega_a": 1.0, "omega_m": 1.4, "alpha": 0.5},
            "variational": {key: 1e400},
            "sweep": {"variable": "N", "values": [100.0, 1000.0]},
        })
        capsys.readouterr()
        rc = main(["variational", "--config", inf_box, "--out", str(tmp_path)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "ConfigError"
        assert not (tmp_path / "variational.csv").exists()
    # so is a JSON NaN / Infinity in a sweep, not a pinned minimum, a
    # ZeroDivisionError or a row of nan written with exit 0
    for command, config, value in (
        ("variational", "variational_sweep.json", float("nan")),
        ("density", "density_sweep.json", float("nan")),
        ("density", "density_sweep.json", float("inf")),
        ("fig3", "fig3.json", float("nan")),
    ):
        data = json.loads((CONFIGS / config).read_text())
        data["sweep"]["values"] = data["sweep"]["values"][:1] + [value]
        nonfinite = write_config(tmp_path, "nonfinite.json", data)
        out = tmp_path / f"nonfinite_{command}_{value}"
        capsys.readouterr()
        assert main([command, "--config", nonfinite, "--out", str(out)]) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "ConfigError" and "sweep.values" in err["message"]
        assert not out.exists()


@pytest.mark.parametrize("values", [["abc"], [True, 2], [10**400]],
                         ids=["string", "boolean", "integer-overflow"])
def test_non_numeric_sweep_values_exit_config_code(tmp_path, capsys, values):
    # each entry is checked like any numeric field: a string used to exit 5
    # with a ValueError, true ran as N = 1, and a JSON integer beyond the
    # float range exited 5 with an OverflowError
    data = json.loads((CONFIGS / "variational_sweep.json").read_text())
    data["sweep"]["values"] = values
    cfg = write_config(tmp_path, "sweep.json", data)
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(["variational", "--config", cfg, "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "ConfigError" and "sweep.values[0]" in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("section, key, value", [
    ("grid", "n_points", 400.5),
    ("grid", "r_max", float("inf")),
    ("grid", "r_max", 1e-300),
    ("grid", "r_max", 1e300),
    ("params", "omega_a", 1e200),
    ("solver", "tol", "1e-8"),
    ("solver", "dt", -4e-3),
    ("solver", "max_iters", 0),
    ("bdg", "l_max", -1),
    ("bdg", "j_max", 3.5),
    ("bdg", "j_max", True),
    ("thermal", "j_max", "16"),
    ("thermal", "j_max", 1),
    ("variational", "coarse", 1),
    ("variational", "v_max", "5"),
    ("thermal", "include_quantum_depletion", "false"),
    ("thermal", "include_quantum_depletion", 1),
    ("params", "temperature", float("nan")),
    ("params", "omega_a", float("nan")),
    ("params", "n_a", float("nan")),
    ("params", "lambda_a", float("nan")),
    ("params", "alpha", True),
    ("params", "n_a", "100"),
    ("uniform", "density", 0),
    ("uniform", "density", -1e15),
    ("uniform", "density", float("nan")),
    ("uniform", "density", "1e15"),
    ("uniform", "r0", 0),
    ("uniform", "r0", -1),
])
def test_invalid_grid_and_solver_exit_config_code(tmp_path, capsys, section, key, value):
    # a fractional grid size, an infinite box or one whose volume weights
    # or trap term leave the floats, a string tolerance, a negative step,
    # a zero iteration cap, bad mode counts, a string box edge or flag,
    # non-finite, boolean or string parameters and a nonpositive or
    # non-finite uniform density or sample size are config errors, not
    # runs, truncations, solver failures or raw Python errors
    data = {"params": {"omega_a": 1.0, "omega_m": 1.4, "n_a": 100.0}}
    data.setdefault(section, {})[key] = value
    bad = write_config(tmp_path, "bad.json", data)
    rc = main(["ground", "--config", bad, "--out", str(tmp_path)])
    assert rc == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "ConfigError"
    assert key in err["message"]
    assert not (tmp_path / "condensate.csv").exists()


@pytest.mark.parametrize("n_points", [200, 400])
@pytest.mark.parametrize("coupling, code", [(-7.2, 0), (-7.3, 4)])
def test_ground_outcome_near_attractive_threshold(tmp_path, capsys, coupling, code, n_points):
    # lambda_a*N_a on either side of the critical 4*pi*0.575 = 7.23
    # (Ruprecht, Holland, Burnett & Edwards, PRA 51, 4704 (1995))
    cfg = write_config(tmp_path, "attractive.json", {
        "params": {"omega_a": 1.0, "omega_m": 1.4, "lambda_a": coupling / 1e4, "n_a": 1e4},
        "grid": {"r_max": 8.0, "n_points": n_points},
    })
    assert main(["ground", "--config", cfg, "--out", str(tmp_path)]) == code
    if code:
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "CollapseError"
    else:
        summary = json.loads((tmp_path / "ground_summary.json").read_text())
        assert summary["residual"] < 1e-8


def test_spectrum_grid_reports_oscillator_levels(tmp_path):
    cfg = write_config(tmp_path, "spec.json", {
        "params": {"omega_a": 1.0, "omega_m": 1.4, "n_a": 100.0},
        "grid": {"r_max": 8.0, "n_points": 200},
        "bdg": {"method": "grid"},
    })
    rc = main(["spectrum", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 0
    rows = read_csv(tmp_path / "spectrum_grid.csv")
    atoms = np.sort(rows["energy_re"][(rows["species"] == "atom")
                                      & (rows["energy_re"] > -0.5)])[:3]
    # decoupled atom modes step by the level spacing above E = 0;
    # O(h^2) eigenvalue error grows with level on the 200-point grid
    assert atoms == pytest.approx([0.0, 2.0, 4.0], abs=5e-3)


def test_spectrum_compare_table_weak_coupling(tmp_path):
    rc = main(["spectrum", "--config", str(CONFIGS / "spectrum_weak.json"),
               "--out", str(tmp_path), "--compare"])
    assert rc == 0
    for name in ("paper", "block", "grid"):
        assert (tmp_path / f"spectrum_{name}.csv").exists()
    dev = read_csv(tmp_path / "spectrum_deviation.csv")
    assert np.max(dev["dev_block"]) < 0.05


def test_spectrum_compare_matches_single_method_runs(tmp_path):
    cfg = str(CONFIGS / "spectrum_weak.json")
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "all"),
                 "--compare"]) == 0
    for name in ("paper", "block", "grid"):
        out = tmp_path / name
        assert main(["spectrum", "--config", cfg, "--out", str(out),
                     "--method", name]) == 0
        csv = f"spectrum_{name}.csv"
        assert (out / csv).read_bytes() == (tmp_path / "all" / csv).read_bytes()


@pytest.mark.parametrize("argv, calls", [
    (["spectrum", "--compare"], [16] * 2),  # paper and block share one basis per species
    (["spectrum", "--method", "block"], [16] * 2),
    (["spectrum", "--method", "paper"], [16] * 2),
    (["spectrum", "--method", "grid"], []),
    (["density"], [32] * 2),  # the j_max // 2 estimate reuses the leading levels
], ids=["compare", "block", "paper", "grid", "density"])
def test_spectrum_basis_eigensolves_per_run(tmp_path, monkeypatch, argv, calls):
    solved = []
    solve = RadialOperator.eigensolve

    def counting(op, n_modes):
        if sys._getframe(1).f_code.co_name == "oscillator_basis":
            solved.append(n_modes)
        return solve(op, n_modes)

    monkeypatch.setattr(RadialOperator, "eigensolve", counting)
    assert main(argv[:1] + ["--config", str(CONFIGS / "spectrum_weak.json"),
                            "--out", str(tmp_path)] + argv[1:]) == 0
    assert solved == calls


@pytest.mark.parametrize("argv, section", [
    (["spectrum", "--method", "block"], "bdg"),
    (["spectrum", "--method", "paper"], "bdg"),
    (["spectrum", "--compare"], "bdg"),
    (["density"], "thermal"),
], ids=["block", "paper", "compare", "density"])
def test_j_max_past_the_grid_exits_config_code(tmp_path, capsys, argv, section):
    # the basis is checked against the grid before any level is computed:
    # exit 2 naming the grid's limit, not an allocation of j_max floats
    data = json.loads((CONFIGS / "spectrum_weak.json").read_text())
    data["grid"]["n_points"] = 100
    data.setdefault(section, {})["j_max"] = 1e12
    path = write_config(tmp_path, "huge.json", data)
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(argv[:1] + ["--config", path, "--out", str(out)] + argv[1:]) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err == {"error": "ConfigError",
                   "message": "grid supports only 100 basis states, j_max=1000000000000"}
    assert not out.exists()


def test_spectrum_logs_goldstone_pair_below_warning(tmp_path, caplog):
    # the decoupled atoms' Goldstone pair is expected: DEBUG, not WARNING
    with caplog.at_level(logging.DEBUG, logger="hybridbec.bdg"):
        assert main(["spectrum", "--config", str(CONFIGS / "spectrum_weak.json"),
                     "--out", str(tmp_path), "--compare"]) == 0
    bdg_records = [r for r in caplog.records if r.name == "hybridbec.bdg"]
    assert not [r for r in bdg_records if r.levelno >= logging.WARNING]
    assert any("Goldstone" in r.getMessage() for r in bdg_records)


def test_density_sweep_files_and_t0(tmp_path):
    rc = main(["density", "--config", str(CONFIGS / "density_sweep.json"),
               "--out", str(tmp_path)])
    assert rc == 0
    files = sorted(tmp_path.glob("density_*.csv"))
    assert len(files) == 3
    cfg = write_config(tmp_path, "cold.json", {
        "params": json.loads((CONFIGS / "density_sweep.json").read_text())["params"],
        "grid": {"r_max": 8.0, "n_points": 200},
        "thermal": {"include_quantum_depletion": False},
    })
    rc = main(["density", "--config", cfg, "--out", str(tmp_path / "cold")])
    assert rc == 0
    cold = read_csv(tmp_path / "cold" / "density_000.csv")
    assert np.all(cold["rho_a_thermal"] == 0.0)
    assert np.all(cold["rho_m_thermal"] == 0.0)
    assert cold["rho_total"] == pytest.approx(
        cold["rho_a_cond"] + 2.0 * cold["rho_m_cond"], rel=1e-14)


def test_density_truncation_header_from_leading_levels(tmp_path):
    # the estimate compares the j_max spectrum with its j < j_max // 2
    # modes at the hottest temperature of the sweep
    path = CONFIGS / "density_sweep.json"
    assert main(["density", "--config", str(path), "--out", str(tmp_path)]) == 0
    cfg = load_config(str(path))
    grid, state = _solve_ground(cfg)
    j_max = int(cfg.thermal["j_max"])
    full_sets = block_2x2_spectrum(state, cfg.params, grid, j_max=j_max,
                                   convention=cfg.bdg["convention"])
    part_sets = [replace(ms, modes=[m for m in ms.modes if m.j < j_max // 2])
                 for ms in full_sets]
    hot = replace(cfg.params, temperature=max(cfg.sweep["values"]))
    full, part = (total_numbers(density_profile(state, *sets, hot, grid), grid)
                  ["n_atom_equivalent"] for sets in (full_sets, part_sets))
    expect = abs(full - part) / full
    assert 0.0 < expect < 1e-5
    for f in sorted(tmp_path.glob("density_*.csv")):
        head = [l for l in f.read_text().splitlines()
                if l.startswith("# truncation_delta_rel: ")]
        assert head == [f"# truncation_delta_rel: {expect!r}"]


def per_temperature_density(cfg, outdir):
    """The density files as written one temperature at a time: a
    density_profile call per temperature and write_csv on its float
    arrays, with the header cmd_density writes."""
    if cfg.sweep and cfg.sweep["variable"] == "T":
        t_values = cfg.sweep["values"]
    else:
        t_values = [cfg.params.temperature]
    grid, state = _solve_ground(cfg)
    j_max = int(cfg.thermal["j_max"])
    full_sets = block_2x2_spectrum(state, cfg.params, grid, j_max=j_max,
                                   convention=cfg.bdg["convention"])
    part_sets = [replace(ms, modes=[m for m in ms.modes if m.j < j_max // 2])
                 for ms in full_sets]
    include = bool(cfg.thermal["include_quantum_depletion"])
    hot = replace(cfg.params, temperature=max(t_values))
    full, part = (total_numbers(density_profile(state, *sets, hot, grid, include), grid)
                  ["n_atom_equivalent"] for sets in (full_sets, part_sets))
    trunc = abs(full - part) / max(abs(full), 1e-300)
    for i, t in enumerate(t_values):
        prof = density_profile(state, *full_sets, replace(cfg.params, temperature=float(t)),
                               grid, include)
        totals = total_numbers(prof, grid)
        head = provenance(
            cfg.config_hash(), temperature=repr(float(t)), j_max=j_max,
            include_quantum_depletion=include, truncation_delta_rel=repr(trunc),
            n_a_total=repr(totals["n_a_total"]), n_m_total=repr(totals["n_m_total"]),
            excluded_modes=prof.excluded_nonpositive + prof.excluded_undefined,
        )
        write_csv(outdir / f"density_{i:03d}.csv", head, {
            name: getattr(prof, name) for name in (
                "r", "rho_a_cond", "rho_a_thermal", "rho_m_cond", "rho_m_thermal",
                "rho_total")})


@pytest.mark.parametrize("values, include", [
    (None, True),
    ([0.5, 0.5, 0.2], True),
    (None, False),
    ([0.0, 0.05], True),  # beta*E past expm1's overflow: exited 5 with OverflowError
], ids=["bundled", "repeated-T", "no-depletion", "cold"])
def test_density_sweep_matches_per_temperature_files(tmp_path, values, include):
    # one mode sum over the sweep and the temperature-independent columns
    # formatted once must write the bytes of the per-temperature route
    data = json.loads((CONFIGS / "density_sweep.json").read_text())
    if values is not None:
        data["sweep"]["values"] = values
    data["thermal"]["include_quantum_depletion"] = include
    path = write_config(tmp_path, "sweep.json", data)
    assert main(["density", "--config", path, "--out", str(tmp_path / "new")]) == 0
    per_temperature_density(load_config(path), tmp_path / "old")
    new = sorted(p.name for p in (tmp_path / "new").iterdir())
    assert new == sorted(p.name for p in (tmp_path / "old").iterdir())
    assert len(new) == len(data["sweep"]["values"])
    for name in new:
        assert (tmp_path / "new" / name).read_bytes() == \
               (tmp_path / "old" / name).read_bytes()


def test_negative_sweep_temperature_fails_before_the_solve(tmp_path, monkeypatch, capsys):
    # every temperature is checked first: exit 2 with no ground solve and
    # no density file, not a density_000.csv left behind by a late failure
    solves = []
    solve = cli.solve_coupled_gpe
    monkeypatch.setattr(cli, "solve_coupled_gpe",
                        lambda *a, **k: solves.append(1) or solve(*a, **k))
    data = json.loads((CONFIGS / "density_sweep.json").read_text())
    data["sweep"]["values"] = [0.5, -1.0]
    path = write_config(tmp_path, "negative.json", data)
    capsys.readouterr()
    assert main(["density", "--config", path, "--out", str(tmp_path / "out")]) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "ConfigError" and "temperature" in err["message"]
    assert solves == []
    assert not list((tmp_path / "out").glob("density_*.csv"))
    # the counter sees the solve of a valid sweep
    data["sweep"]["values"] = [0.5]
    path = write_config(tmp_path, "valid.json", data)
    assert main(["density", "--config", path, "--out", str(tmp_path / "ok")]) == 0
    assert solves == [1]


@pytest.mark.parametrize("config", ["variational_sweep.json", "fig3.json"])
def test_density_rejects_a_sweep_over_n_or_b(tmp_path, monkeypatch, capsys, config):
    # a sweep over N or B used to run one profile at params.temperature
    # and exit 0; now it exits 2 before the ground solve, as variational
    # and fig3 do for the wrong variable
    solves = []
    solve = cli.solve_coupled_gpe
    monkeypatch.setattr(cli, "solve_coupled_gpe",
                        lambda *a, **k: solves.append(1) or solve(*a, **k))
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(["density", "--config", str(CONFIGS / config), "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err == {"error": "ConfigError", "message": "density takes a sweep over T only"}
    assert solves == [] and not out.exists()
    # without a sweep the same parameters run one profile at params.temperature
    data = json.loads((CONFIGS / config).read_text())
    del data["sweep"]
    data["grid"] = {"r_max": 8.0, "n_points": 100}
    data["thermal"] = {"j_max": 8}
    data["params"]["temperature"] = 0.5
    path = write_config(tmp_path, "no_sweep.json", data)
    assert main(["density", "--config", path, "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["density_000.csv"]
    assert "# temperature: 0.5" in (out / "density_000.csv").read_text().splitlines()


def test_cli_has_every_name_the_benchmark_tracer_wraps():
    # perfbench/tracing.py replaces these cli attributes by name while a
    # traced case runs; a missing one aborts the traced benchmark
    tracing = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", tracing)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.LAYERS
    assert [name for name in module.LAYERS if not callable(getattr(cli, name, None))] == []


def test_import_time_lines_the_traced_benchmark_reads():
    # perfbench/run.py --trace 1 reads the cumulative import times of these
    # two modules from the -X importtime lines of a fresh `import
    # hybridbec.cli`; a missing line leaves it the median of no samples and
    # the traced run fails
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    err = subprocess.run([sys.executable, "-X", "importtime", "-c", "import hybridbec.cli"],
                         env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True,
                         timeout=120, check=True).stderr
    rows = [line.split("|") for line in err.splitlines()]
    timed = {cells[2].strip() for cells in rows if len(cells) == 3 and cells[1].strip().isdigit()}
    assert {"hybridbec", "scipy.optimize"} <= timed


def test_spectrum_compare_calls_the_methods_the_tracer_times(tmp_path, monkeypatch):
    # perfbench/tracing.py times these cli names as bdg.grid, bdg.block and
    # bdg.paper and reads each grid call's n_points from args[2]: --compare
    # with l_max = 2 calls the grid oracle once per channel, positionally
    # on (state, params, grid), and each basis method once
    calls = []
    for name in ("direct_grid_spectrum", "block_2x2_spectrum", "paper_literal_spectrum"):
        def spy(*args, _name=name, _method=getattr(cli, name), **kwargs):
            calls.append((_name, args, kwargs))
            return _method(*args, **kwargs)
        monkeypatch.setattr(cli, name, spy)
    cfg = write_config(tmp_path, "spec.json", {
        "params": {"omega_a": 1.0, "omega_m": 1.4, "lambda_a": 0.06, "n_a": 100.0},
        "grid": {"r_max": 8.0, "n_points": 200},
        "bdg": {"j_max": 16, "l_max": 2, "convention": "oscillator3d"},
    })
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "out"), "--compare"]) == 0
    grid_calls = [(args, kwargs) for name, args, kwargs in calls if name == "direct_grid_spectrum"]
    assert [kwargs for _, kwargs in grid_calls] == [{"l": 0}, {"l": 1}, {"l": 2}]
    for args, _ in grid_calls:
        assert [type(a).__name__ for a in args] == [
            "CondensateState", "PhysicalParams", "RadialGrid"]
        assert args[2].n_points == 200
    assert sorted(name for name, _, _ in calls if name != "direct_grid_spectrum") == [
        "block_2x2_spectrum", "paper_literal_spectrum"]


@pytest.mark.parametrize("params, per_point", [
    ({"omega_a": 1.0, "omega_m": 1.4, "lambda_a": 0.05}, 2),
    ({"omega_a": 1.0, "omega_m": 1.4, "lambda_a": 0.05, "lambda_am": 0.02,
      "alpha": 0.2}, 4),
], ids=["decoupled", "resonant"])
def test_variational_solves_decoupled_points_once(tmp_path, monkeypatch, params, per_point):
    # a decoupled set is its own alpha = lambda = 0 counterpart, so each
    # (mode, N) point is one lane of its mode's batch, written as both rows
    batches = []
    real = variational._minimize_lanes

    def counting(mode, lanes, box):
        batches.append((mode, len(lanes)))
        return real(mode, lanes, box)

    monkeypatch.setattr(variational, "_minimize_lanes", counting)
    n_list = [50.0, 100.0, 200.0]
    cfg = write_config(tmp_path, "var.json", {
        "params": params, "sweep": {"variable": "N", "values": n_list}})
    assert main(["variational", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert [mode for mode, _ in batches] == ["010", "100"]
    assert sum(lanes for _, lanes in batches) == per_point * len(n_list)
    rows = read_csv(tmp_path / "variational.csv")
    assert len(rows["energy"]) == 4 * len(n_list)
    same = rows["energy"][0::2] == rows["energy"][1::2]
    assert same.all() if per_point == 2 else not same.any()


def test_variational_rows_and_limits(tmp_path):
    cfg = write_config(tmp_path, "var.json", {
        "params": {"omega_a": 1.0, "omega_m": 1.4},
        "sweep": {"variable": "N", "values": [100.0, 1000.0, 10000.0]},
    })
    rc = main(["variational", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 0
    rows = read_csv(tmp_path / "variational.csv")
    assert len(rows["energy"]) == 12  # 2 modes x 3 sweep points x (resonant, bare)
    # mode labels "010"/"100" parse numerically as 10 and 100
    e010 = rows["energy"][rows["mode"] == 10.0]
    e100 = rows["energy"][rows["mode"] == 100.0]
    assert e010 == pytest.approx(2.5, abs=1e-6)
    assert e100 == pytest.approx(3.5, abs=1e-6)


def test_variational_requires_n_sweep(tmp_path):
    cfg = write_config(tmp_path, "nosweep.json", {
        "params": {"omega_a": 1.0, "omega_m": 1.4},
    })
    assert main(["variational", "--config", cfg, "--out", str(tmp_path)]) == 2


def test_fig3_curve_and_singularity(tmp_path):
    rc = main(["fig3", "--config", str(CONFIGS / "fig3.json"), "--out", str(tmp_path)])
    assert rc == 0
    rows = read_csv(tmp_path / "fig3.csv")
    assert len(rows["b"]) == 21
    att = rows["branch"] == "critical-number"
    assert int(att.sum()) == 9
    assert np.all(np.diff(rows["n0"][att]) > 0.0)  # growth away from resonance
    bad = json.loads((CONFIGS / "fig3.json").read_text())
    bad["sweep"]["values"] = [100.0]
    cfg = write_config(tmp_path, "bad_fig3.json", bad)
    assert main(["fig3", "--config", cfg, "--out", str(tmp_path)]) == 5


def test_singular_fig3_point_names_its_field(tmp_path, capsys):
    # B = B0 in the middle of a sweep: exit 5 with the singularity's type,
    # and the message says at which B, as a DomainError point's does
    data = json.loads((CONFIGS / "fig3.json").read_text())
    data["sweep"]["values"] = [99.9, 100.0, 100.1]
    cfg = write_config(tmp_path, "singular.json", data)
    capsys.readouterr()
    assert main(["fig3", "--config", cfg, "--out", str(tmp_path / "out")]) == 5
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err == {"error": "ResonanceSingularityError", "message": (
        "field point B = 100 mT: |B - B0| = 0.000e+00 is below the singularity "
        "floor 1.000e-11; the resonance point is excluded")}
    assert not (tmp_path / "out").exists()


def test_fig3_size_past_the_floats_exits_config_code(tmp_path, capsys):
    # r0 = 1e300 passes the load-time check, but r0^2 overflows: exit 2
    # naming r0, before any field point and with no --out directory
    data = json.loads((CONFIGS / "fig3.json").read_text())
    data["uniform"] = {"density": None, "r0": 1e300, "density_estimate": "paper"}
    cfg = write_config(tmp_path, "huge_r0.json", data)
    capsys.readouterr()
    assert main(["fig3", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "ConfigError" and "r0 = 1e+300" in err["message"]
    assert not (tmp_path / "out").exists()


def test_fig3_density_past_the_floats_exits_config_code(tmp_path, capsys):
    # r0 = 1e154 and n_a = 1e-20: r0^2 is finite but the density N/r0^2
    # underflows to 0.0; exit 2 naming r0 and the estimate, where the
    # volume N/n exited 5 with a ZeroDivisionError
    data = json.loads((CONFIGS / "fig3.json").read_text())
    data["params"]["n_a"] = 1e-20
    data["uniform"] = {"density": None, "r0": 1e154, "density_estimate": "paper"}
    cfg = write_config(tmp_path, "tiny_density.json", data)
    capsys.readouterr()
    assert main(["fig3", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "ConfigError"
    assert "r0 = 1e+154" in err["message"] and "'paper' density 0.0" in err["message"]
    assert not (tmp_path / "out").exists()


def test_variational_pinned_minimum_exits_5(tmp_path, capsys):
    # the bundled parameters pin the minimiser at omega_lo = 0.2
    data = json.loads((CONFIGS / "variational_sweep.json").read_text())
    data["variational"]["omega_lo"] = 0.2
    data["sweep"]["values"] = [1e4, 1e5]
    cfg = write_config(tmp_path, "pinned.json", data)
    for jobs in (1, 2):
        capsys.readouterr()
        assert main(["variational", "--config", cfg, "--out",
                     str(tmp_path / f"j{jobs}"), "--jobs", str(jobs)]) == 5
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "BoundaryMinimumError"


def test_variational_unbounded_trial_energy_exits_5(tmp_path, capsys):
    # at alpha = 5 and N = 1e4 the conversion term outweighs the quadratic
    # one somewhere in the widened box: no stable trial mode, and no CSV
    data = json.loads((CONFIGS / "variational_sweep.json").read_text())
    data["params"]["alpha"] = 5.0
    data["sweep"]["values"] = [1e4]
    cfg = write_config(tmp_path, "unbounded.json", data)
    assert main(["variational", "--config", cfg, "--out", str(tmp_path / "out")]) == 5
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "BoundaryMinimumError"
    assert "unbounded below" in err["message"] and "S/2 >= P" in err["message"]
    assert not (tmp_path / "out").exists()


def test_variational_failure_names_its_population(tmp_path, capsys):
    # the CLI sweeps through sweep_spectrum, so a failing point says at
    # which N it failed: at alpha = 20 the bundled set is unstable at its
    # first N in the widened box
    data = json.loads((CONFIGS / "variational_sweep.json").read_text())
    data["params"]["alpha"] = 20.0
    cfg = write_config(tmp_path, "alpha20.json", data)
    capsys.readouterr()
    assert main(["variational", "--config", cfg, "--out", str(tmp_path / "out")]) == 5
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "BoundaryMinimumError"
    assert err["message"].startswith("sweep failed at N = 10000: mode 010 trial energy")
    assert "S/2 >= P" in err["message"]
    assert not (tmp_path / "out").exists()
    # a descending N list is still a config error
    data = json.loads((CONFIGS / "variational_sweep.json").read_text())
    data["sweep"]["values"] = data["sweep"]["values"][::-1]
    cfg = write_config(tmp_path, "descending.json", data)
    capsys.readouterr()
    assert main(["variational", "--config", cfg, "--out", str(tmp_path / "desc")]) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "ConfigError" and "ascending" in err["message"]
    assert not (tmp_path / "desc").exists()


def test_jobs_do_not_change_artifacts(tmp_path):
    cfg = write_config(tmp_path, "var.json", {
        "params": {"omega_a": 1.0, "omega_m": 1.4, "lambda_a": 0.05,
                   "lambda_am": 0.02, "alpha": 0.2},
        "sweep": {"variable": "N", "values": [50.0, 100.0, 200.0, 400.0]},
    })
    for jobs, d in ((1, "j1"), (3, "j3")):
        assert main(["variational", "--config", cfg, "--out",
                     str(tmp_path / d), "--jobs", str(jobs)]) == 0
    assert (tmp_path / "j1" / "variational.csv").read_bytes() == \
           (tmp_path / "j3" / "variational.csv").read_bytes()
    for jobs, d in ((1, "f1"), (4, "f4")):
        assert main(["fig3", "--config", str(CONFIGS / "fig3.json"),
                     "--out", str(tmp_path / d), "--jobs", str(jobs)]) == 0
    assert (tmp_path / "f1" / "fig3.csv").read_bytes() == \
           (tmp_path / "f4" / "fig3.csv").read_bytes()


def test_failed_runs_leave_no_out_directory(tmp_path, capsys):
    # the writers make --out, so a run that fails its input checks leaves
    # no empty directory behind
    density = json.loads((CONFIGS / "density_sweep.json").read_text())
    density["sweep"]["values"] = [0.5, -1.0]
    runs = [
        ("density", write_config(tmp_path, "negative.json", density)),
        ("variational", write_config(tmp_path, "no_n.json", {
            "params": {"omega_a": 1.0, "omega_m": 1.4}})),
        ("fig3", write_config(tmp_path, "no_b.json", {
            "params": {"omega_a": 1.0, "omega_m": 1.4},
            "sweep": {"variable": "N", "values": [100.0, 200.0]}})),
    ]
    for command, cfg in runs:
        out = tmp_path / f"out_{command}"
        capsys.readouterr()
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "ConfigError"
        assert not out.exists()
    # a run that succeeds still makes a nested --out
    out = tmp_path / "nested" / "out"
    assert main(["ground", "--config", str(CONFIGS / "ground_noninteracting.json"),
                 "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["condensate.csv", "ground_summary.json"]


def test_main_builds_no_parser_after_import(tmp_path, monkeypatch):
    built = []
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1))
    for i in range(3):
        assert main(["ground", "--config", str(CONFIGS / "ground_noninteracting.json"),
                     "--out", str(tmp_path / str(i))]) == 0
    assert built == []


def test_reused_parser_leaks_no_value_between_calls(tmp_path):
    # one process: a plain run, a call argparse rejects, a --compare run,
    # then the plain run again, which must write the first run's bytes
    cfg = str(CONFIGS / "spectrum_weak.json")
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "first")]) == 0
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--config", cfg, "--method", "shooting",
              "--out", str(tmp_path / "rejected")])
    assert exc.value.code == 2 and not (tmp_path / "rejected").exists()
    assert main(["spectrum", "--config", cfg, "--compare",
                 "--out", str(tmp_path / "compare")]) == 0
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "again")]) == 0
    first, again = (sorted((tmp_path / d).iterdir()) for d in ("first", "again"))
    assert [p.name for p in again] == [p.name for p in first] == ["spectrum_block.csv"]
    assert again[0].read_bytes() == first[0].read_bytes()


@pytest.mark.parametrize("argv, config", [
    (["spectrum", "--compare", "--method", "grid"], "spectrum_weak.json"),
    (["density", "--method", "grid"], "density_sweep.json"),
    (["ground", "--compare"], "ground_noninteracting.json"),
], ids=["spectrum-compare-method", "density-method", "ground-compare"])
def test_method_and_compare_rejected_where_they_would_be_ignored(
        tmp_path, monkeypatch, capsys, argv, config):
    # --compare ran all three methods whatever --method said, density
    # summed the block method's modes under --method grid and ground wrote
    # a plain ground state under --compare; each is now rejected as
    # argparse rejects a bad argument, before the config loads
    loaded = []
    monkeypatch.setattr(cli, "load_config", lambda *a: loaded.append(a))
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([argv[0], "--config", str(CONFIGS / config), "--out", str(out)] + argv[1:])
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err
    assert loaded == [] and not out.exists()


@pytest.mark.parametrize("argv, config, section, key, value", [
    (["fig3"], "fig3.json", "solver", "tol", -1),
    (["fig3"], "fig3.json", "grid", "n_points", 3),
    (["variational"], "variational_sweep.json", "solver", "max_iters", 0),
    (["ground"], "ground_noninteracting.json", "variational", "v_max", -5),
    (["ground"], "ground_noninteracting.json", "variational", "omega_lo", 9),
    (["ground"], "ground_noninteracting.json", "uniform", "density_estimate", "bogus"),
    (["spectrum", "--method", "block"], "spectrum_weak.json", "bdg", "averaging", "bogus"),
    (["density"], "density_sweep.json", "bdg", "convention", "bogus"),
], ids=["fig3-solver.tol", "fig3-grid.n_points", "variational-solver.max_iters",
        "ground-variational.v_max", "ground-variational.omega_lo",
        "ground-uniform.density_estimate", "spectrum-bdg.averaging", "density-bdg.convention"])
def test_invalid_value_fails_at_load_whatever_the_command(
        tmp_path, monkeypatch, capsys, argv, config, section, key, value):
    # every section is checked when the config loads, including those the
    # command never reads: exit 2 naming the key, before any solve, sweep
    # point or field curve starts, and no --out directory
    started = []
    for name in ("solve_coupled_gpe", "sweep_spectrum", "figure3_curve"):
        monkeypatch.setattr(cli, name, lambda *a, _name=name, **k: started.append(_name))
    data = json.loads((CONFIGS / config).read_text())
    data.setdefault(section, {})[key] = value
    path = write_config(tmp_path, "bad.json", data)
    out = tmp_path / "out"
    capsys.readouterr()
    assert main([argv[0], "--config", path, "--out", str(out)] + argv[1:]) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "ConfigError"
    assert section in err["message"] and key in err["message"]
    assert started == []
    assert not out.exists()


@pytest.mark.parametrize("argv", [["ground"], ["spectrum", "--method", "grid"]],
                         ids=["ground", "spectrum-grid"])
def test_grid_below_thermal_default_runs(tmp_path, argv):
    # the thermal.j_max default (32) exceeds a 16-point grid's basis, but
    # only density builds that basis: commands that do not still run
    path = write_config(tmp_path, "small.json", {
        "params": {"omega_a": 1.0, "omega_m": 1.4, "lambda_a": 0.1, "n_a": 100.0},
        "grid": {"r_max": 4.0, "n_points": 16}})
    out = tmp_path / "out"
    assert main([argv[0], "--config", path, "--out", str(out)] + argv[1:]) == 0
    assert any(out.iterdir())


PARAMS = '"params": {"omega_a": 1.0, "omega_m": 1.4'
RESONANCE = '"resonance": {"a0": 5e-7, "b0": 100.0, "b": 100.0, '


@pytest.mark.parametrize("text, named", [
    ('{' + PARAMS + '}, "grid": []}', "'grid'"),
    ('{"grid": {"n_points": 200}}', "'params'"),
    ('{' + PARAMS + '}', "not valid JSON"),
    ('[{' + PARAMS + '}}]', "JSON object"),
    ('{"params": []}', "params"),
    ('{' + PARAMS + ', "resonance": []}}', "resonance"),
    ('{' + PARAMS + ', ' + RESONANCE + '"delta": 0.01, "width": 1.0}}}', "width"),
    ('{' + PARAMS + ', ' + RESONANCE + '"delta": 0}}}', "resonance"),
    ('{' + PARAMS + '}, "output_dir": 5}', "output_dir"),
    ('{' + PARAMS + ', "omega_c": 1.0}}', "omega_c"),
    ('{"params": {"omega_a": 1.0}}', "omega_m"),
    ('{' + PARAMS + ', "resonance": {"a0": 5e-7, "b0": 100.0, "b": 99.9}}}', "delta"),
    ('{' + PARAMS + '}, "sweep": [1, 2]}', "'sweep'"),
    ('{' + PARAMS + '}, "sweep": {"variable": "N", "values": [1], "step": 1}}', "step"),
    ('{' + PARAMS + '}, "bdg": {"method": "dense"}}', "bdg.method"),
    ('{"params": {"omega_a": -1, "omega_m": 1.4}}', "omega_a"),
    ('{' + PARAMS + '}, "variational": {"v_max": 0}}', "v_max"),
    ('{' + PARAMS + '}, "extra": {}}', "extra"),
], ids=["section-not-object", "no-params", "invalid-json", "top-level-array",
        "params-not-object", "resonance-not-object", "unknown-resonance-key",
        "zero-resonance-width", "numeric-output-dir", "unknown-params-key",
        "missing-omega_m", "missing-resonance-key", "sweep-not-object", "unknown-sweep-key",
        "unknown-bdg-method", "negative-omega_a", "zero-v_max", "unknown-top-level-key"])
def test_malformed_config_exits_config_code(tmp_path, capsys, text, named):
    path = tmp_path / "bad.json"
    path.write_text(text)
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(["ground", "--config", str(path), "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "ConfigError" and named in err["message"]
    assert not out.exists()


BUNDLED_HASHES = {
    "density_sweep.json": "6a1b5a96e5574879", "fig3.json": "6727278226521f5f",
    "ground_collapse.json": "a6d880b7442af5db", "ground_noninteracting.json": "541e60edac9c4d8d",
    "spectrum_weak.json": "6211813e569c4ddf", "variational_sweep.json": "d714e5fb37a21b35",
}


def test_bundled_configs_keep_their_config_hashes():
    # the hash covers the fully defaulted config, so a parser that drops,
    # adds or rewrites a value shows here
    assert {p.name: load_config(p).config_hash()
            for p in sorted(CONFIGS.glob("*.json"))} == BUNDLED_HASHES


TRAP_PAST_THE_FLOATS = {"omega_a": 1, "omega_m": 1e160, "lambda_a": 0.05, "n_a": 50}


@pytest.mark.parametrize("command", ["ground", "spectrum", "density"])
@pytest.mark.parametrize("key, value", [("omega_m", 1e160), ("omega_a", 1e200)])
def test_trap_past_the_floats_exits_config_code_naming_its_key(
        tmp_path, capsys, command, key, value):
    # ground exited 0 with an empty molecule whose trap leaves the floats,
    # where spectrum and density exited 2 on its basis with a message
    # naming "omega_a or omega_m" and the molecule's mass 2.0 as "mass";
    # every grid command now rejects it before the first step
    params = {**TRAP_PAST_THE_FLOATS, key: value}
    path = write_config(tmp_path, "trap.json", {"params": params, "grid": {"n_points": 100}})
    out = tmp_path / "out"
    capsys.readouterr()
    assert main([command, "--config", path, "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "ConfigError"
    assert f"params.{key} = {value!r}" in err["message"]
    assert "omega_a or omega_m" not in err["message"] and "params.mass" in err["message"]
    assert not out.exists()


def test_variational_ignores_a_trap_it_never_puts_on_a_grid(tmp_path):
    # variational builds no grid state, so the molecule's trap term on
    # the grid is not its concern
    path = write_config(tmp_path, "trap.json", {
        "params": TRAP_PAST_THE_FLOATS, "grid": {"n_points": 100},
        "sweep": {"variable": "N", "values": [50.0, 100.0]}})
    out = tmp_path / "out"
    assert main(["variational", "--config", path, "--out", str(out)]) == 0
    assert (out / "variational.csv").exists()


def test_unconverged_ground_exits_3(tmp_path, capsys):
    # three steps are too few for this set: exit 3 with a ConvergenceError
    # line on stderr and no --out directory; the default cap converges it
    data = {"params": {"omega_a": 1.0, "omega_m": 1.4, "lambda_a": 0.1, "n_a": 100.0},
            "grid": {"r_max": 8.0, "n_points": 200}, "solver": {"max_iters": 3}}
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(["ground", "--config", write_config(tmp_path, "short.json", data),
                 "--out", str(out)]) == 3
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "ConvergenceError"
    assert not out.exists()
    del data["solver"]
    assert main(["ground", "--config", write_config(tmp_path, "full.json", data),
                 "--out", str(out)]) == 0
    assert json.loads((out / "ground_summary.json").read_text())["iterations"] > 3
