"""Print a SHA-256 digest of every artifact the CLI writes for a set of
configurations, one ``run/file sha256`` line each, so that two checkouts
compare with ``diff``.

    PYTHONPATH=src python tools/artifact_digests.py > digests.txt
    PYTHONPATH=src python tools/artifact_digests.py a.json b.json
    PYTHONPATH=src python tools/artifact_digests.py --seeds 1 2 3 23

Without config arguments it reads ``configs/*.json``.  ``--seeds`` adds,
after those, the case configs that ``perfbench/workloads.py``
``build(workload, seed)`` returns for every workload at each seed, named
``<workload>-<seed>-<case>``; the module is only read.  Each
configuration runs under every subcommand, ``spectrum`` with
``--compare`` and with each ``--method``.  A subcommand that does not fit
the configuration, or a run that fails, prints ``run exit N`` (2 for a
config error) followed by the JSON error line the CLI wrote to standard
error, so a changed error message shows in the diff, and then any
artifact it left.

The spectrum methods solve the two species on two threads, the
molecule's share on a worker.  That the worker, taking turns with the
calling thread on one CPU, writes the same bytes is checked by
``tests/test_bdg.py::test_one_cpu_writes_the_same_bytes_as_an_unpinned_run``.
"""

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from hybridbec.cli import main

ROOT = Path(__file__).resolve().parent.parent

RUNS = {
    "ground": ["ground"],
    "compare": ["spectrum", "--compare"],
    **{f"spectrum-{m}": ["spectrum", "--method", m] for m in ("paper", "block", "grid")},
    "density": ["density"],
    "variational": ["variational"],
    "fig3": ["fig3"],
}


def digests(config: Path, tmp: Path):
    for run, (command, *flags) in RUNS.items():
        name, out = f"{config.stem}.{run}", Path(tempfile.mkdtemp(dir=tmp))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([command, "--config", str(config), "--out", str(out), *flags])
        if code:
            # the error line is the last one: log warnings come before it
            yield f"{name} exit {code} {err.getvalue().splitlines()[-1]}"
        for path in sorted(out.glob("*")):
            yield f"{name}/{path.name} {hashlib.sha256(path.read_bytes()).hexdigest()}"


def workload_configs(seeds, tmp: Path):
    """The benchmark's case configs at each seed, written to tmp."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    paths = []
    for seed in seeds:
        for workload in workloads.WORKLOADS:
            for case in workloads.build(workload, seed):
                path = tmp / f"{workload}-{seed}-{case.name}.json"
                path.write_text(json.dumps(case.config, indent=1))
                paths.append(path)
    return paths


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("configs", nargs="*", type=Path)
    parser.add_argument("--seeds", nargs="+", type=int, default=[],
                        help="also digest the benchmark's case configs at these seeds")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        configs = args.configs or sorted((ROOT / "configs").glob("*.json"))
        for config in configs + workload_configs(args.seeds, Path(tmp)):
            for line in digests(config, Path(tmp)):
                print(line)
