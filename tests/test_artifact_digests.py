"""tools/artifact_digests.py, the digest listing that byte-identity
claims about the CLI's artifacts are checked with, run in process."""

import importlib.util
import json
import re
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "artifact_digests.py"
ARTIFACT = re.compile(r"\S+/\S+ [0-9a-f]{64}")
FAILURE = re.compile(r"(\S+) exit (\d+) (\{.*\})")


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("artifact_digests", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_config(tmp_path, name, grid):
    path = tmp_path / name
    path.write_text(json.dumps({
        "params": {"omega_a": 1.0, "omega_m": 1.4, "lambda_a": 0.05, "n_a": 50.0},
        "grid": grid,
    }))
    return path


def test_digests_repeat_and_keep_their_line_format(tool, tmp_path):
    config = write_config(tmp_path, "small.json", {"n_points": 100})
    first, second = (list(tool.digests(config, tmp_path)) for _ in range(2))
    assert first == second
    assert all(ARTIFACT.fullmatch(line) or FAILURE.fullmatch(line) for line in first)
    # every run is listed under the config's name: ground, spectrum --compare
    # and the three methods, and density write artifacts, the two sweeps
    # exit 2 for want of a sweep
    written = {line.split("/")[0] for line in first if ARTIFACT.fullmatch(line)}
    assert written == {f"small.{run}" for run in tool.RUNS} - {"small.variational", "small.fig3"}
    failed = [FAILURE.fullmatch(line).group(1, 2) for line in first if FAILURE.fullmatch(line)]
    assert failed == [("small.variational", "2"), ("small.fig3", "2")]


def test_digests_report_an_out_of_range_grid_as_a_config_error(tool, tmp_path):
    config = write_config(tmp_path, "tiny.json", {"n_points": 100, "r_max": 1e-300})
    lines = list(tool.digests(config, tmp_path))
    assert len(lines) == len(tool.RUNS)
    for line, run in zip(lines, tool.RUNS):
        name, code, error = FAILURE.fullmatch(line).groups()
        assert (name, code) == (f"tiny.{run}", "2")
        assert json.loads(error)["error"] == "ConfigError"
        assert "r_max" in json.loads(error)["message"]
