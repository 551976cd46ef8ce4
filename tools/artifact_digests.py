"""Print a SHA-256 digest of every artifact the CLI writes for a set of
configurations, one ``run/file sha256`` line each, so that two checkouts
compare with ``diff``.

    PYTHONPATH=src python tools/artifact_digests.py > digests.txt
    PYTHONPATH=src python tools/artifact_digests.py a.json b.json

Without arguments it reads ``configs/*.json``.  Each configuration runs
under every subcommand, ``spectrum`` with ``--compare`` and with each
``--method``.  A subcommand that does not fit the configuration, or a
run that fails, prints ``run exit N`` (2 for a config error) followed by
the JSON error line the CLI wrote to standard error, so a changed error
message shows in the diff, and then any artifact it left.
"""

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

from hybridbec.cli import main

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


if __name__ == "__main__":
    root = Path(__file__).resolve().parent.parent
    configs = [Path(a) for a in sys.argv[1:]] or sorted((root / "configs").glob("*.json"))
    with tempfile.TemporaryDirectory() as tmp:
        for config in configs:
            for line in digests(config, Path(tmp)):
                print(line)
