import json
from pathlib import Path

import numpy as np
import pytest

from hybridbec import ConfigError
from hybridbec.cli import main
from hybridbec.config import RunConfig, load_config

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


@pytest.mark.parametrize("section, key, value", [
    ("grid", "n_points", 400.5),
    ("solver", "tol", "1e-8"),
    ("solver", "dt", -4e-3),
    ("solver", "max_iters", 0),
    ("bdg", "l_max", -1),
    ("bdg", "j_max", 3.5),
    ("bdg", "j_max", True),
    ("thermal", "j_max", "16"),
    ("thermal", "j_max", 1),
    ("variational", "coarse", 1),
])
def test_invalid_grid_and_solver_exit_config_code(tmp_path, capsys, section, key, value):
    # a fractional grid size, a string tolerance, a negative step, a zero
    # iteration cap and bad mode counts are config errors, not runs,
    # truncations or solver failures
    bad = write_config(tmp_path, "bad.json", {
        "params": {"omega_a": 1.0, "omega_m": 1.4, "n_a": 100.0},
        section: {key: value},
    })
    rc = main(["ground", "--config", bad, "--out", str(tmp_path)])
    assert rc == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "ConfigError"
    assert key in err["message"]
    assert not (tmp_path / "condensate.csv").exists()


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
