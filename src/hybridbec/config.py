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

Every value is checked at load, whatever the command reads; grid, solver
and variational by building their objects once, which the config keeps
and whose defaults they are.
Unknown keys anywhere are rejected with the offending field named, so a
typo never silently reverts to a default.  The canonical hash covers the
fully defaulted configuration and is embedded in every artifact header:
equal hashes mean equal inputs.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from .bdg import AVERAGINGS, CONVENTIONS
from .errors import (
    ConfigError, require_choice, require_count, require_finite, require_object, require_positive,
)
from .gpe import SolverOptions
from .grid import RadialGrid, build_grid
from .params import PhysicalParams
from .uniform import DENSITY_ESTIMATES
from .variational import SearchBox

BDG_METHODS = ("paper", "block", "grid")
_SOLVER, _VARIATIONAL = asdict(SolverOptions()), asdict(SearchBox())


def _section(data: dict, name: str, defaults: dict) -> dict:
    """Section `name` of the config over its defaults; unknown keys are rejected."""
    return {**defaults, **require_object(name, data.get(name, {}), defaults)}


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
        data = require_object("config", data, cls.__dataclass_fields__, ("params",))
        params = PhysicalParams.from_dict(data["params"])
        grid = _section(data, "grid", {"r_max": 8.0, "n_points": 400})
        solver = _section(data, "solver", _SOLVER)
        bdg = _section(data, "bdg", {
            "method": "block", "j_max": 16, "l_max": 0,
            "averaging": "density", "convention": "paper",
        })
        thermal = _section(data, "thermal", {"include_quantum_depletion": True, "j_max": 32})
        variational = _section(data, "variational", _VARIATIONAL)
        uniform = _section(data, "uniform", {
            "density": None, "r0": None, "density_estimate": "paper",
        })
        # checked, not rewritten: a stored 16.0 keeps its config hash
        for name, value, minimum in (
            ("bdg.j_max", bdg["j_max"], 1), ("bdg.l_max", bdg["l_max"], 0),
            ("thermal.j_max", thermal["j_max"], 2),  # density compares j_max // 2
        ):
            require_count(name, value, minimum)
        for name, value, allowed in (
            ("bdg.method", bdg["method"], BDG_METHODS),
            ("bdg.averaging", bdg["averaging"], AVERAGINGS),
            ("bdg.convention", bdg["convention"], CONVENTIONS),
            ("uniform.density_estimate", uniform["density_estimate"], DENSITY_ESTIMATES),
        ):
            require_choice(name, value, allowed)
        flag = thermal["include_quantum_depletion"]
        if type(flag) is not bool:  # 1 == True, but a header must read True
            raise ConfigError(
                f"thermal.include_quantum_depletion must be true or false, got {flag!r}")
        for key in ("density", "r0"):
            if uniform[key] is not None:
                name = f"uniform.{key}"
                require_positive(name, require_finite(name, uniform[key]))
        sweep = data.get("sweep")
        if sweep is not None:
            keys = ("variable", "values")
            sweep = require_object("sweep", sweep, keys, keys)
            require_choice("sweep.variable", sweep["variable"], ("B", "T", "N"))
            values = sweep["values"]
            if not isinstance(values, (list, tuple)) or not values:
                raise ConfigError("sweep.values must be a nonempty list")
            values = [require_finite(f"sweep.values[{i}]", v) for i, v in enumerate(values)]
            sweep = {"variable": sweep["variable"], "values": values}
        output_dir = data.get("output_dir")
        if output_dir is not None and not isinstance(output_dir, str):
            raise ConfigError(f"output_dir must be a string, got {output_dir!r}")
        return cls(
            params=params, grid=grid, solver=solver, bdg=bdg, thermal=thermal,
            variational=variational, uniform=uniform, sweep=sweep,
            output_dir=output_dir,
        )

    def __post_init__(self):
        # the section objects are built once; their checks are the config's
        for attr, name, build in (("_grid", "grid", build_grid),
                                  ("_solver", "solver", SolverOptions),
                                  ("_box", "variational", SearchBox)):
            try:
                object.__setattr__(self, attr, build(**getattr(self, name)))
            except ConfigError as exc:
                raise ConfigError(f"{name}: {exc}") from exc

    def build_grid(self) -> RadialGrid:
        return self._grid

    def solver_options(self) -> SolverOptions:
        return self._solver

    def search_box(self) -> SearchBox:
        return self._box

    def canonical_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["params"] = self.params.to_dict()
        return out

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
    return RunConfig.from_dict(data)
