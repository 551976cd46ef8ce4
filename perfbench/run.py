"""hybridbec benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload ground_thermal --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ``src/``
of that checkout.  A case is one in-process call of
``hybridbec.cli.main(argv)`` on a config generated from the seed, with
artifacts in a scratch directory under ``.bench_tmp/``.  The loop is
closed with one client: after one warm-up case it runs whole cycles of
the workload's cases until ``--seconds`` have passed.  Every case is
checked (exit code, artifacts, CSV columns, physics invariants), and every
repeat of a case, including one rerun after the loop, must write the CSV
bytes of its first run.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs every
case of the loop twice, untraced and traced in alternating order, then
the layer record (every subcommand once, grid oracle at 200-1600 points),
and reports per-layer metrics; spans go to ``.bench_out/`` at the end.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import os

# Set before numpy is imported anywhere in this process or its children.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import contextlib
import hashlib
import io
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3

SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
import hybridbec.cli
from hybridbec.config import load_config
for path in sys.argv[1:]:
    load_config(path)
print(time.perf_counter() - t0)
"""


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def fresh_python(args):
    return subprocess.run([sys.executable, *args], env=child_env(), cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)


def setup_sample(config_paths):
    """Seconds for a fresh interpreter to import the CLI and load the configs."""
    return float(fresh_python(["-c", SETUP_CODE, *map(str, config_paths)]).stdout)


def import_seconds():
    """Cumulative import time of hybridbec and scipy.optimize (-X importtime)."""
    samples = {"hybridbec": [], "scipy.optimize": []}
    for _ in range(IMPORTTIME_REPEATS):
        err = fresh_python(["-X", "importtime", "-c", "import hybridbec.cli"]).stderr
        for line in err.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in samples:
                samples[parts[2].strip()].append(int(parts[1]) * 1e-6)
    return {name: statistics.median(v) for name, v in samples.items()}


class Calibration:
    """A fixed kernel of interpreter and LAPACK work, timed between cases.
    A shared host's speed can drift by tens of percent within a minute; the
    kernel slows with it, so a time divided by the kernel's median nearby and
    multiplied by REFERENCE_S reads as seconds on a host of reference speed.
    """

    REFERENCE_S = 0.012

    def __init__(self):
        import numpy

        self._a = numpy.random.default_rng(0).standard_normal((120, 120))
        self._eigvals = numpy.linalg.eigvals

    def sample(self):
        t0 = time.perf_counter()
        acc = 0
        for i in range(60_000):
            acc += i * i
        self._eigvals(self._a)
        return time.perf_counter() - t0

    def scaled(self, seconds, samples):
        return seconds * self.REFERENCE_S / statistics.median(samples)


class Runner:
    """Runs cases in process and checks each one."""

    def __init__(self, cli, work: Path, jobs=None):
        self.cli = cli
        self.work = work
        self.jobs = jobs
        self.attempted = 0
        self.problems = []
        self.count = 0

    def write_configs(self, cases, tag):
        paths = []
        for i, case in enumerate(cases):
            path = self.work / f"{tag}-{i:02d}-{case.name}.json"
            path.write_text(json.dumps(case.config, indent=1))
            paths.append(path)
        return paths

    def run(self, case, config_path, tracer=None, expect_blobs=None):
        """Wall seconds of main(argv), and the case's CSV bytes by name;
        with expect_blobs, CSVs differing from them fail the case."""
        self.count += 1
        out = self.work / f"out-{self.count}"
        argv = case.argv(config_path, out, self.jobs)
        err = io.StringIO()
        traced = tracer.installed(self.cli) if tracer else contextlib.nullcontext()
        if tracer:
            tracer.case = self.count
        with traced, contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:  # argparse rejected the arguments
                code = exc.code
            seconds = time.perf_counter() - t0
        problems = checks.check_case(case, code, out, err.getvalue())
        blobs = {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}
        if expect_blobs is not None and blobs != expect_blobs:
            problems.append("CSV bytes differ from the case's first run")
        self.attempted += 1
        if problems:
            self.problems.append(f"{case.name}: {'; '.join(problems)}")
        shutil.rmtree(out, ignore_errors=True)
        return seconds, blobs


@dataclass
class Loop:
    """What one timed loop measured."""

    plain: list = field(default_factory=list)      # untraced case seconds, in order
    plain_ref: list = field(default_factory=list)  # the same in reference seconds
    traced: list = field(default_factory=list)     # traced case seconds
    traced_ids: set = field(default_factory=set)   # runner counts of traced cases
    cycle_walls: list = field(default_factory=list)
    first_blobs: dict = field(default_factory=dict)
    setup: list = field(default_factory=list)      # set-up seconds
    setup_ref: list = field(default_factory=list)  # the same in reference seconds


def timed_loop(runner, cases, paths, seconds, calibration, tracer=None, setup=None):
    """Whole cycles until their time reaches `seconds`, a calibration sample
    after each case.  Every repeat of a case must write the bytes of its
    first run.  With a tracer each case runs untraced and traced, the order
    alternating from case to case.  `setup` takes one set-up sample; the
    SETUP_REPEATS samples are spread over the loop, between cycles and
    outside their time, so a slow spell of the host cannot decide them all.
    """
    loop = Loop()
    cal, setup_at = [calibration.sample()], []
    while sum(loop.cycle_walls) < seconds:
        if setup and len(setup_at) < SETUP_REPEATS and \
                sum(loop.cycle_walls) >= len(setup_at) * seconds / SETUP_REPEATS:
            setup_at.append((setup(), len(cal)))
        t_cycle = time.perf_counter()
        for i, (case, path) in enumerate(zip(cases, paths)):
            order = (None, tracer) if i % 2 == 0 else (tracer, None)
            for tr in (order if tracer else (None,)):
                dt, blobs = runner.run(case, path, tr, loop.first_blobs.get(i))
                loop.first_blobs.setdefault(i, blobs)
                if tr:
                    loop.traced.append(dt)
                    loop.traced_ids.add(runner.count)
                else:
                    loop.plain.append(dt)
                    cal.append(calibration.sample())
        loop.cycle_walls.append(time.perf_counter() - t_cycle)
    while setup and len(setup_at) < SETUP_REPEATS:
        setup_at.append((setup(), len(cal)))
    # untraced case i lies between samples i and i + 1, a set-up sample just
    # before sample j; each is scaled by the median of the six samples nearest
    loop.plain_ref = [calibration.scaled(dt, cal[max(0, i - 2):i + 4])
                      for i, dt in enumerate(loop.plain)]
    loop.setup = [t for t, _ in setup_at]
    loop.setup_ref = [calibration.scaled(t, cal[max(0, j - 3):j + 3]) for t, j in setup_at]
    return loop


def tail_index(n, percentile):
    """Nearest-rank index of a percentile in n sorted samples."""
    return max(0, math.ceil(percentile / 100.0 * n) - 1)


def source_state():
    head = ROOT / ".git" / "HEAD"
    commit = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            packed = ROOT / ".git" / "packed-refs"
            if ref_file.is_file():
                commit = ref_file.read_text().strip()
            elif packed.is_file():
                commit = next((ln.split()[0] for ln in packed.read_text().splitlines()
                               if ln.endswith(" " + ref[5:])), ref)
    digest = hashlib.sha256()
    for path in sorted((SRC / "hybridbec").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return commit, digest.hexdigest()[:16]


def environment(seed, jobs_note):
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    commit, digest = source_state()
    return {
        "commit": commit, "source_sha256": digest, "seed": seed,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": blas, "blas_threads": int(BLAS_THREADS),
        "nproc": len(os.sched_getaffinity(0)), "jobs": jobs_note,
    }


def peak_rss_mb():
    """Peak RSS of this process plus the largest waited-for child (upper
    bound on their combined peak)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "hybridbec" / "cli.py").is_file():
        print(f"error: {SRC / 'hybridbec'} not found; run from the root of a "
              "hybridbec checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import hybridbec.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "hybridbec":
        print(f"error: imported hybridbec from {cli.__file__}", file=sys.stderr)
        return 2
    work = ROOT / ".bench_tmp" / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, cli, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, cli, work):
    cases = workloads.build(args.workload, args.seed)
    runner = Runner(cli, work, jobs=1 if args.trace else None)
    paths = runner.write_configs(cases, "case")
    jobs_note = ("--jobs forced to 1 in the traced run: spans inside pool workers "
                 "would be lost" if args.trace else "as configured per case (1 or 2)")
    env = environment(args.seed, jobs_note)
    calibration = Calibration()
    runner.run(cases[0], paths[0])  # warm-up
    tracer = tracing.Tracer() if args.trace else None
    setup = None if args.trace else lambda: setup_sample(paths)
    loop = timed_loop(runner, cases, paths, args.seconds, calibration, tracer, setup)
    rerun = args.seed % len(cases)
    runner.run(cases[rerun], paths[rerun], expect_blobs=loop.first_blobs[rerun])

    probe = None
    if args.workload == "ground_thermal":
        probe_case = workloads.item2_probe()
        probe_runner = Runner(cli, work)
        probe_runner.run(probe_case, probe_runner.write_configs([probe_case], "probe")[0])
        probe = probe_runner.problems

    lines = [f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
             f"{len(cases)} cases per cycle, {len(loop.cycle_walls)} cycles in "
             f"{sum(loop.cycle_walls):.2f} s"]
    if args.trace:
        record = workloads.layer_record()
        record_paths = runner.write_configs(record, "record")
        for case, path in zip(record, record_paths):
            runner.run(case, path, tracer)
        imports = import_seconds()
        metrics = tracing.layer_metrics(tracer.spans, loop.traced_ids, len(loop.cycle_walls))
        metrics["setup.import_hybridbec_s"] = (imports["hybridbec"], "s")
        metrics["setup.import_scipy_optimize_s"] = (imports["scipy.optimize"], "s")
        metrics["trace.overhead_s"] = (
            statistics.median(loop.traced) - statistics.median(loop.plain), "s")
        lines.append(f"  {jobs_note}")
        lines.append("  times: median self time per call over the loop and the layer "
                     "record; counts: per cycle of the loop")
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        trace_file = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({"env": env, "spans": tracer.spans,
                                          "metrics": metrics}))
        lines.append(f"  spans: {len(tracer.spans)} written to {trace_file.relative_to(ROOT)}")
    else:
        pct = workloads.TAIL_PERCENTILE[args.workload]
        n = len(cases)

        def summary(times, setup_times):
            ordered = sorted(times)
            return {
                "setup_s": statistics.median(setup_times),
                "case_p50_s": statistics.median(times),
                "case_tail_s": ordered[tail_index(len(ordered), pct)],
                "cases_per_s": n / sum(statistics.median(times[k::n]) for k in range(n)),
            }

        raw = summary(loop.plain, loop.setup)
        ref = summary(loop.plain_ref, loop.setup_ref)
        metrics = {name: (value, "1/s" if name == "cases_per_s" else "s")
                   for name, value in ref.items()}
        metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
        beyond = len(loop.plain) - 1 - tail_index(len(loop.plain), pct)
        lines.append(f"  case_tail_s is p{pct} of {len(loop.plain)} cases, "
                     f"{beyond} beyond it" + ("" if beyond >= 10 else " (fewer than ten)"))
        lines.append(f"  setup_s is the median of {SETUP_REPEATS} fresh interpreters "
                     "between cycles; cases_per_s is cases per cycle over the sum of "
                     "per-case medians")
        lines.append("  times are in reference seconds (see Calibration); as measured: "
                     + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()))
    for name, (value, unit) in metrics.items():
        lines.append(f"  {name:32s} {value:.6g} {unit}")

    failed = len(runner.problems)
    lines.append(f"  failed_frac {failed}/{runner.attempted} = {failed / runner.attempted:.4f}")
    lines += [f"  FAILED {p}" for p in runner.problems]
    if probe is not None:
        status = "passes" if not probe else "FAILS: " + "; ".join(probe)
        lines.append(f"  known-defect probe (ROADMAP item 2, lowest-energy branch "
                     f"E={workloads.ITEM2_ENERGY}), outside the counts: {status}")
    print("\n".join(lines))
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
