"""Run configuration: strict JSON schema, validation, canonical hashing.

One JSON file drives every subcommand.  Sections:

    params       physical parameters (required); see PhysicalParams.from_dict
    grid         {"r_max": 8.0, "n_points": 400}
    solver       {"tol": 1e-8, "max_iters": 20000, "dt": 1e-3}
    bdg          {"method": "block", "j_max": 16, "l_max": 0,
                  "averaging": "density", "convention": "paper"}
    thermal      {"include_quantum_depletion": true, "j_max": 32}
    variational  {"v_max": 5.0, "omega_lo": 0.2, "omega_hi": 5.0, "coarse": 64}
    uniform      {"density": ..., "r0": ..., "density_estimate": "paper"}
    sweep        {"variable": "B"|"T"|"N", "values": [...]}
    output_dir   path for artifacts (CLI --out overrides)

Unknown keys anywhere are rejected with the offending field named, so a
typo never silently reverts to a default.  The canonical hash covers the
fully defaulted configuration and is embedded in every artifact header:
equal hashes mean equal inputs.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .errors import ConfigError, require_count
from .gpe import SolverOptions
from .grid import RadialGrid, build_grid
from .params import PhysicalParams
from .variational import SearchBox

BDG_METHODS = ("paper", "block", "grid")


def _section(data: dict, name: str, allowed: dict) -> dict:
    """Pop section `name`, apply defaults, reject unknown keys."""
    raw = data.pop(name, {})
    if not isinstance(raw, dict):
        raise ConfigError(f"section '{name}' must be an object")
    unknown = set(raw) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) in '{name}': {sorted(unknown)}")
    out = dict(allowed)
    out.update(raw)
    return out


@dataclass(frozen=True)
class RunConfig:
    params: PhysicalParams
    grid: dict
    solver: dict
    bdg: dict
    thermal: dict
    variational: dict
    uniform: dict
    sweep: dict | None
    output_dir: str | None

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        data = dict(data)
        if "params" not in data:
            raise ConfigError("config requires a 'params' section")
        params = PhysicalParams.from_dict(data.pop("params"))
        grid = _section(data, "grid", {"r_max": 8.0, "n_points": 400})
        solver = _section(data, "solver", {"tol": 1e-8, "max_iters": 20000, "dt": 1e-3})
        bdg = _section(data, "bdg", {
            "method": "block", "j_max": 16, "l_max": 0,
            "averaging": "density", "convention": "paper",
        })
        if bdg["method"] not in BDG_METHODS:
            raise ConfigError(
                f"bdg.method must be one of {list(BDG_METHODS)}, got '{bdg['method']}'")
        thermal = _section(data, "thermal", {
            "include_quantum_depletion": True, "j_max": 32,
        })
        variational = _section(data, "variational", {
            "v_max": 5.0, "omega_lo": 0.2, "omega_hi": 5.0, "coarse": 64,
        })
        # checked, not rewritten: a stored 16.0 keeps its config hash
        for name, value, minimum in (
            ("bdg.j_max", bdg["j_max"], 1), ("bdg.l_max", bdg["l_max"], 0),
            ("thermal.j_max", thermal["j_max"], 2),  # density compares j_max // 2
            ("variational.coarse", variational["coarse"], 2),
        ):
            require_count(name, value, minimum)
        uniform = _section(data, "uniform", {
            "density": None, "r0": None, "density_estimate": "paper",
        })
        sweep = data.pop("sweep", None)
        if sweep is not None:
            sweep = _section({"sweep": sweep}, "sweep", {"variable": None, "values": None})
            if sweep["variable"] not in ("B", "T", "N"):
                raise ConfigError("sweep.variable must be 'B', 'T' or 'N'")
            values = sweep["values"]
            if not isinstance(values, (list, tuple)) or not values:
                raise ConfigError("sweep.values must be a nonempty list")
            values = [float(v) for v in values]
            if not all(map(math.isfinite, values)):
                raise ConfigError(f"sweep.values must be finite, got {values}")
            sweep = {"variable": sweep["variable"], "values": values}
        output_dir = data.pop("output_dir", None)
        if data:
            raise ConfigError(f"unknown top-level key(s): {sorted(data)}")
        return cls(
            params=params, grid=grid, solver=solver, bdg=bdg, thermal=thermal,
            variational=variational, uniform=uniform, sweep=sweep,
            output_dir=output_dir,
        )

    def build_grid(self) -> RadialGrid:
        return build_grid(r_max=self.grid["r_max"], n_points=self.grid["n_points"])

    def solver_options(self) -> SolverOptions:
        return SolverOptions(
            tol=self.solver["tol"],
            max_iters=self.solver["max_iters"],
            dt=self.solver["dt"],
        )

    def search_box(self) -> SearchBox:
        v = self.variational
        return SearchBox(
            v_max=v["v_max"], omega_lo=v["omega_lo"],
            omega_hi=v["omega_hi"], coarse=v["coarse"],
        )

    def canonical_dict(self) -> dict:
        return {
            "params": self.params.to_dict(),
            "grid": self.grid,
            "solver": self.solver,
            "bdg": self.bdg,
            "thermal": self.thermal,
            "variational": self.variational,
            "uniform": self.uniform,
            "sweep": self.sweep,
            "output_dir": self.output_dir,
        }

    def config_hash(self) -> str:
        blob = json.dumps(self.canonical_dict(), sort_keys=True,
                          separators=(",", ":"), allow_nan=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def load_config(path) -> RunConfig:
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {p}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {p} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config {p} must contain a JSON object")
    return RunConfig.from_dict(data)
