"""End-to-end benchmark for nctorus reports.

Run from the repository root:

    python3 perfbench/run.py --workload hodge-chain --seed 1 --seconds 20 --trace 0

One run generates the workload's problem files from the seed, sets up, and
then sends the files through ``nctorus.cli.main`` one report at a time (a
closed loop with one client) in whole passes until ``--seconds`` have gone
by and at least MIN_PASSES passes are done.  Every report is checked.  The
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
passes alternate between traced and untraced and the metrics are the
per-layer ones (see spans.py).  Earlier lines describe the environment and
each metric with its sample count.

The program is loaded from ``src/`` next to this directory; the run fails
when it is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
GOLDEN = HERE / "golden.json"

DEFAULT_SEED = 1
SETUP_ROUNDS = 3
# At least six passes, so that ten reports lie beyond the tail even when the
# machine runs slow.
MIN_PASSES = 6
TAIL_BEYOND = 10

# One set-up round in a fresh interpreter; prints its time in seconds.
SETUP_PROBE = (
    "import sys, time; t = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
    "import run; run.setup_round(run.load_program(), sys.argv[2], int(sys.argv[3]), "
    "run.Path(sys.argv[4])); print(time.perf_counter() - t)"
)


def die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_program():
    """Import nctorus from this checkout's src/ and nowhere else."""
    if not (SRC / "nctorus" / "cli.py").is_file():
        die(f"no program source at {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import nctorus.cli

    if Path(nctorus.cli.__file__).resolve().parent != SRC / "nctorus":
        die(f"nctorus was imported from {nctorus.cli.__file__}, not from {SRC}")
    return nctorus.cli


def _openblas_threads(nproc: int):
    """OpenBLAS thread count of numpy's bundled library, capped at nproc."""
    import numpy

    libs = glob.glob(str(Path(numpy.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for suffix in ("64_", ""):
            get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            if get is None:
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            threads = get()
            if threads > nproc:
                put = getattr(lib, f"scipy_openblas_set_num_threads{suffix}")
                put.argtypes, put.restype = [ctypes.c_int], None
                put(nproc)
                threads = get()
            return threads
    return None


def environment() -> dict:
    import numpy
    import scipy

    nproc = len(os.sched_getaffinity(0))
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"nproc": nproc, "blas_threads": _openblas_threads(nproc), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


# -- one report ---------------------------------------------------------------


def write_problems(items, directory: Path) -> list[str]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for k, item in enumerate(items):
        path = directory / f"{k:02d}.json"
        path.write_text(json.dumps(item.problem, sort_keys=True))
        paths.append(str(path))
    return paths


def run_report(cli, item, problem_path: str):
    """One CLI report; returns (latency seconds, exit code, parsed report).

    The report goes to standard output, captured in memory, as when a user
    pipes it: a report file would add the file system's write latency,
    which is larger and noisier than the cheap reports themselves.  A
    report that escapes the CLI as an exception gets exit code -1, so the
    run counts it as failed and goes on.
    """
    argv = ["--input", problem_path, "--command", item.command, *item.args]
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    except Exception as exc:
        return time.perf_counter() - start, -1, {"error": repr(exc)}
    latency = time.perf_counter() - start
    return latency, code, json.loads(out.getvalue())


# -- measurement ----------------------------------------------------------------


def measure(cli, workloads, items, paths, seconds, tracer=None, golden=None):
    """Whole passes until `seconds` have gone by; returns the raw samples.

    A pass runs the timed items.  Each report must pass its checks and
    repeat the digest record of the first pass, and of `golden` when
    given.  With a tracer, passes alternate between traced and untraced,
    starting traced.  The untimed items run once at the end, untraced;
    they count in `attempted` and `failed` but in no time.
    """
    timed = [(item, path) for item, path in zip(items, paths) if item.timed]
    latencies, walls, traced_walls = [], [], []
    failed, errors = 0, []
    reference, first_records = golden, None
    deadline = time.perf_counter() + seconds
    while len(walls) + len(traced_walls) < MIN_PASSES or time.perf_counter() < deadline:
        traced = tracer is not None and len(traced_walls) <= len(walls)
        if traced:
            tracer.install()
        wall, records = 0.0, []
        for item, path in timed:
            if traced:
                tracer.report += 1
            latency, code, report = run_report(cli, item, path)
            wall += latency
            latencies.append(latency)
            problems = workloads.check(item, code, report)
            records.append(workloads.digest_record(item, code, report))
            if reference is not None and records[-1] != reference[len(records) - 1]:
                problems.append("digest record differs from the "
                                + ("golden record" if golden else "first pass"))
            if problems:
                failed += 1
                errors.append(f"{item.label}: {'; '.join(problems)}")
        if traced:
            tracer.remove()
            traced_walls.append(wall)
        else:
            walls.append(wall)
        first_records = first_records or records
        reference = reference or records
    attempted = len(latencies)
    for item, path in zip(items, paths):
        if not item.timed:
            _, code, report = run_report(cli, item, path)
            attempted += 1
            problems = workloads.check(item, code, report)
            if problems:
                failed += 1
                errors.append(f"{item.label}: {'; '.join(problems)}")
    return {"latencies": latencies, "walls": walls, "traced_walls": traced_walls,
            "attempted": attempted, "failed": failed, "errors": errors,
            "records": first_records}


def digest(records) -> str:
    text = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def golden_records(workload: str, seed: int):
    """Stored digest records of the default seed, or None for other seeds."""
    if seed != DEFAULT_SEED:
        return None
    return json.loads(GOLDEN.read_text())[workload]["records"]


def tail(values: list[float], least: int) -> tuple[float, float]:
    """Tail latency and its percentile, for a run of at least `least` reports.

    The percentile is the highest with TAIL_BEYOND reports beyond it in a
    run of `least` reports, and stays there in a longer run, which puts
    proportionally more reports beyond it.  Were it to follow the run's
    length instead, a run that fits one pass more than another would move
    its tail by a report kind each time the machine's speed changed.
    """
    ordered = sorted(values)
    beyond = len(ordered) * TAIL_BEYOND // least
    return ordered[-beyond - 1], 100.0 * (1 - beyond / len(ordered))


# -- set-up ---------------------------------------------------------------------


def setup_round(cli, workload: str, seed: int, directory: Path):
    """Generate the full and the tiny problem set and run one tiny pass."""
    import workloads

    items = workloads.generate(workload, seed)
    paths = write_problems(items, directory / "full")
    warm = workloads.generate(workload, seed, tiny=True)
    for item, path in zip(warm, write_problems(warm, directory / "tiny")):
        run_report(cli, item, path)
    return items, paths


def setup(cli, workload: str, seed: int, directory: Path):
    """Set up SETUP_ROUNDS times from cold, then once in this process.

    Each timed round runs in a fresh interpreter: import the program, then
    one `setup_round`.  Set-up time is the median round.
    """
    rounds = []
    for k in range(SETUP_ROUNDS):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(HERE), workload, str(seed),
             str(directory / f"setup{k}")],
            capture_output=True, text=True, check=True, timeout=120)
        rounds.append(float(out.stdout.strip().splitlines()[-1]))
    items, paths = setup_round(cli, workload, seed, directory)
    return items, paths, statistics.median(rounds)


# -- main -------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = load_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        die(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")
    env = environment()
    print("# env " + json.dumps(env, sort_keys=True))

    directory = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    items, paths, setup_s = setup(cli, args.workload, args.seed, directory)
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
    golden = golden_records(args.workload, args.seed)
    raw = measure(cli, workloads, items, paths, args.seconds, tracer, golden)
    shutil.rmtree(directory)

    attempted, failed = raw["attempted"], raw["failed"]
    for line in raw["errors"][:20]:
        print(f"# FAIL {line}")
    per_pass = sum(item.timed for item in items)
    print(f"# workload {args.workload} seed {args.seed}: {per_pass} timed reports per pass, "
          f"{len(raw['walls'])} untraced + {len(raw['traced_walls'])} traced passes, "
          f"{attempted} reports, fail_frac {failed / attempted:.4f}")
    print(f"# digest {digest(raw['records'])}")

    if args.trace:
        traced, untraced = statistics.median(raw["traced_walls"]), statistics.median(raw["walls"])
        print(f"# median pass: {traced:.4f} s traced, {untraced:.4f} s untraced")
        values = tracer.metrics(len(raw["traced_walls"]), traced / untraced)
        units = spans.PER_LAYER
        trace_path = WORK / f"trace-{args.workload}-{args.seed}.jsonl"
        tracer.write(trace_path)
        print(f"# spans written to {trace_path}")
    else:
        tail_s, tail_pct = tail(raw["latencies"], MIN_PASSES * per_pass)
        values = {
            "wall_s": statistics.median(raw["walls"]),
            "report_p50_s": statistics.median(raw["latencies"]),
            "report_tail_s": tail_s,
            "pass_frac": (attempted - failed) / attempted,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {"wall_s": "s", "report_p50_s": "s", "report_tail_s": "s",
                 "pass_frac": "fraction", "setup_s": "s", "peak_rss_mb": "MB"}
        timed = len(raw["latencies"])
        print(f"# wall_s: median of {len(raw['walls'])} passes; report_p50_s: median "
              f"of {timed} reports; report_tail_s: p{tail_pct:.1f} of {timed} reports")
    for name, value in values.items():
        print(f"# {name} = {value:.6g} {units[name]}")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
