"""Benchmark of the gga-verify command line, end to end and per layer.

Usage, from the repository root:

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
    python3 bench/run.py --smoke

Each timed run spawns fresh `python -m gga_verify.cli` processes one at a
time, so every run starts with cold in-process caches, and checks each run's
exit code, stdout digest and verdicts. `--trace 0` reports the end-to-end
metrics; `--trace 1` instead alternates untraced runs with runs of
bench/tracer.py and reports the per-layer metrics. `--smoke` runs every
workload at N = 8 in both modes and checks the metric names against
BENCHMARK.json and the exact counts against hand-checked values.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. attempted and failed count reports (JSON lines of the
program's output). Each run also writes bench/results/BENCH_<...>.json with
the samples and an environment stamp. The exit code is 0 when every output
was correct, 1 when one was not, and 2 when the program cannot be found.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import select
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

# The named grid, run by the default seed. Each N is sized so that one
# invocation takes about 1 s on a 2-core machine; see README.md.
WORKLOADS = {
    "matrix-j0": "verify --r 2..4 --i all --J 0 --N 27",
    "lemmas-j1": "verify --lemmas --r 4 --i all --J 1 --N 30",
    "quotient-brute": "hilbert --family LriJ --r 3 --i 2 --J 0 --N 34",
    "gap-series": "series e --r 3 --i 3 --J 0 --N 56",
}
DEFAULT_SEED = 0
SMOKE_N = 8
SETUP_REPEATS = 21
CHILD_TIMEOUT_S = 150.0

# Hand-checked counts of the traced smoke runs (N = 8).
SMOKE_COUNTS = {
    "matrix-j0": {
        # 9 (r, i) cells, each one count_D call per degree 0..8: 9 * 9 calls
        # scanning 9 * (p(0) + ... + p(8)) = 9 * 67 partitions.
        "partitions.count_D.calls": 81,
        "partitions.count_D.partitions_scanned": 603,
        "partitions.count_C.calls": 81,
        "partitions.count_E.calls": 81,
        "hilbert.hp_notation.cache_misses": 9,
        "recursion.c_series.cascade_calls": 0,
    },
    "lemmas-j1": {
        # 4 cells; per cell, c_series runs 1 (main) + 2 * 5 (c_expansion at
        # d = 2, 3) + 2 (limits) times. Indices above r = 4 cascade: 3 of the
        # 4 main and limits heads, 6 of 8 expansion heads, all 32 expansion
        # terms and all 4 limit tails.
        "partitions.count_D.calls": 0,
        "recursion.c_series.calls": 52,
        "recursion.c_series.cascade_calls": 48,
        # The limit tail is index 16 = 3 * 4 + 4: W = 8 + sum over g = 1..4 of
        # (12 g + 3) = 140.
        "recursion.c_series.max_work_trunc": 140,
        # Tables per cell: 4 + 8 (hp_expansion) + 4 + 8 (c_expansion)
        # + 2 * 12 (mn_tables, d_max = 4) + 2 * 16 (limits, depth 5) = 80.
        "recursion.coeff_table.calls": 32,
        "recursion.coeff_table.entries": 320,
    },
    "quotient-brute": {
        # One standard_count per weight 0..8, all with min_var = 1.
        "monomial.standard_count.calls": 9,
        "monomial.standard_count.monomials_scanned": 67,
        "hilbert.hp_brute.calls": 1,
        "hilbert.hp_split.calls": 1,
    },
    "gap-series": {
        "partitions.series_E.calls": 1,
        "partitions.count_E.calls": 9,
        "partitions.count_D.calls": 0,
    },
}

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
TRACE_UNITS = {"trace.wall_s": "s", "trace.overhead_s": "s"}


def smoke_argv(argv: str) -> str:
    words = argv.split()
    words[words.index("--N") + 1] = str(SMOKE_N)
    return " ".join(words)


def report_count(argv: str) -> int:
    """Number of JSON lines a passing run of argv prints.

    Every verify grid here uses `--i all`, so r = a..b gives a + ... + b cells.
    """
    words = argv.split()
    if words[0] != "verify":
        return 1
    lo, _, hi = words[words.index("--r") + 1].partition("..")
    cells = sum(range(int(lo), int(hi or lo) + 1))
    return cells * (8 if "--lemmas" in words else 1)


def variant(workload: str, seed: int) -> str | None:
    """A seed-derived variant of the workload's grid; None for the default seed.

    Each variant keeps the workload's dominant layer: J = 0 with count_D for
    matrix-j0, J = 1 with the product cascade for lemmas-j1, hp_brute from
    min_var 1 for quotient-brute, count_E for gap-series.
    """
    if seed == DEFAULT_SEED:
        return None
    rng = random.Random(f"{workload}/{seed}")
    n = int(WORKLOADS[workload].split()[-1])
    if workload == "matrix-j0":
        lo = rng.choice((2, 3))
        return f"verify --r {lo}..{lo + rng.choice((1, 2))} --i all --J 0 --N {n - rng.randint(2, 6)}"
    if workload == "lemmas-j1":
        return f"verify --lemmas --r {rng.choice((3, 4))} --i all --J 1 --N {n - rng.randint(0, 6)}"
    if workload == "quotient-brute":
        r = rng.choice((2, 3, 4))
        return f"hilbert --family LriJ --r {r} --i {rng.randint(1, r)} --J 0 --N {n - rng.randint(0, 4)}"
    r = rng.choice((2, 3))
    return f"series e --r {r} --i {rng.randint(1, r)} --J 0 --N {n - rng.randint(0, 8)}"


def gap_series_J0(r: int, i: int, n: int) -> list[int]:
    """Gap-side series at J = 0 through q^n, via the product side of the identity.

    Partitions into parts not 2 mod 4, not 0 mod 4r and not 2r +- (2 ell - 1)
    mod 4r, with ell = r - i + 1.
    """
    odd = 2 * (r - i + 1) - 1
    banned = {0, (2 * r + odd) % (4 * r), (2 * r - odd) % (4 * r)}
    coeffs = [1] + [0] * n
    for m in range(1, n + 1):
        if m % 4 != 2 and m % (4 * r) not in banned:
            for j in range(m, n + 1):
                coeffs[j] += coeffs[j - m]
    return coeffs


def verdict_ok(argv: str, line: str) -> bool:
    """The program's own verdict on one report; for `series e` an independent check."""
    try:
        obj = json.loads(line)
    except ValueError:
        return False
    if not isinstance(obj, dict):
        return False
    words = argv.split()
    if words[0] == "verify":
        return obj.get("pass") is True
    if words[0] == "hilbert":
        return obj.get("engines_agree") is True
    opt = dict(zip(words[2::2], words[3::2]))
    expected = gap_series_J0(int(opt["--r"]), int(opt["--i"]), int(opt["--N"]))
    return obj == {"trunc": len(expected) - 1, "coeffs": [str(c) for c in expected]}


def check(argv: str, code: int, out: bytes, expected: dict) -> tuple[int, int]:
    """(attempted, failed) reports of one run.

    A nonzero exit, or a stdout digest other than the recorded one, fails
    every report of the run; otherwise each report must carry a passing
    verdict and none may be missing.
    """
    want = expected.get(argv, {"exit": 0, "reports": report_count(argv)})
    attempted = want["reports"]
    if code != want["exit"] or ("sha256" in want and hashlib.sha256(out).hexdigest() != want["sha256"]):
        return attempted, attempted
    lines = out.decode("utf-8", "replace").splitlines()
    failed = sum(not verdict_ok(argv, line) for line in lines)
    return max(attempted, len(lines)), failed + max(0, attempted - len(lines))


class Child:
    """Result of one child process: wall time, rusage, exit code and stdout."""

    def __init__(self, cmd: list[str]) -> None:
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        with tempfile.TemporaryFile(dir=RESULTS) as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=err)
            out = None
            try:
                out = _read_all(proc, start + CHILD_TIMEOUT_S)
            finally:
                if out is None:
                    proc.kill()
                proc.stdout.close()
                _, status, usage = os.wait4(proc.pid, 0)
                self.wall_s = time.perf_counter() - start
                proc.returncode = os.waitstatus_to_exitcode(status)
            self.code = proc.returncode
            self.cpu_s = usage.ru_utime + usage.ru_stime
            self.rss_mb = usage.ru_maxrss / 1024
            self.out = out if out is not None else b""
            if out is None:
                self.code = -signal.SIGKILL
            if self.code:
                err.seek(0)
                sys.stderr.write(f"{' '.join(cmd[1:])}: exit {self.code}\n")
                sys.stderr.write(err.read().decode("utf-8", "replace")[-2000:])


def _read_all(proc: subprocess.Popen, deadline: float) -> bytes | None:
    """Read the child's stdout to EOF, or return None at the deadline."""
    fd, chunks = proc.stdout.fileno(), []
    while True:
        left = deadline - time.perf_counter()
        if left <= 0 or not select.select([fd], [], [], left)[0]:
            return None
        chunk = os.read(fd, 1 << 16)
        if not chunk:
            return b"".join(chunks)
        chunks.append(chunk)


def cli_cmd(argv: str) -> list[str]:
    return [sys.executable, "-m", "gga_verify.cli", *argv.split()]


class Tally:
    """Reports attempted and failed over a run, plus anything else wrong."""

    def __init__(self, expected: dict) -> None:
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def add(self, argv: str, code: int, out: bytes) -> None:
        attempted, failed = check(argv, code, out, self.expected)
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.errors.append(f"{argv}: {failed} of {attempted} reports failed")


def measure(argv: str, seconds: float, tally: Tally) -> dict:
    """End-to-end metrics: fresh CLI processes until `seconds` have passed."""
    Child([sys.executable, "-c", "import gga_verify.cli"])  # fill the bytecode cache
    setup = [Child([sys.executable, "-c", "import gga_verify.cli"]) for _ in range(SETUP_REPEATS)]
    runs, start = [], time.perf_counter()
    while not runs or time.perf_counter() - start < seconds:
        child = Child(cli_cmd(argv))
        tally.add(argv, child.code, child.out)
        runs.append(child)
    samples = {
        "wall_s": [c.wall_s for c in runs],
        "cpu_s": [c.cpu_s for c in runs],
        "peak_rss_mb": [c.rss_mb for c in runs],
        "setup_s": [c.wall_s for c in setup],
    }
    # Times are means: on a shared virtual machine the speed of a process
    # switches between two levels about 1.6x apart, and a median jumps
    # between them where a mean follows the share of time spent at each.
    average = {"wall_s": statistics.mean, "cpu_s": statistics.mean}
    metrics = {k: average.get(k, statistics.median)(v) for k, v in samples.items()}
    return {"samples": samples, "metrics": metrics}


def measure_traced(argv: str, seconds: float, tally: Tally) -> dict:
    """Per-layer metrics: untraced and traced runs alternate until `seconds` pass."""
    untraced, traced, layers = [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        child = Child(cli_cmd(argv))
        tally.add(argv, child.code, child.out)
        untraced.append(child.wall_s)
        child = Child([sys.executable, str(BENCH / "tracer.py"), *argv.split()])
        try:
            result = json.loads(child.out.decode("utf-8").splitlines()[-1])
        except (ValueError, IndexError):
            tally.add(argv, -1, b"")
            tally.errors.append(f"{argv}: tracer printed no result")
            break
        tally.add(argv, result["exit"], result["stdout"].encode("utf-8"))
        traced.append(child.wall_s)
        layers.append(result["metrics"])
    metrics = {}
    for name in layers[0] if layers else ():
        values = [m[name] for m in layers]
        if name.endswith("_s"):
            metrics[name] = statistics.median(values)
        elif len(set(values)) > 1:
            tally.errors.append(f"{name} differs between traced runs: {sorted(set(values))}")
        else:
            metrics[name] = values[0]
    if traced:
        metrics["trace.wall_s"] = statistics.median(traced)
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(untraced)
    samples = {"untraced_wall_s": untraced, "traced_wall_s": traced}
    return {"samples": samples, "metrics": metrics}


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return done.stdout.strip() or None


def run_workload(name: str, argv: str, seed: int, seconds: float, trace: bool, expected: dict) -> dict:
    """One benchmark run of one workload; writes its results file."""
    stamp = {
        "python": platform.python_version(),
        "commit": commit(),
        "src_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "loadavg_before": os.getloadavg(),
    }
    tally = Tally(expected)
    result = (measure_traced if trace else measure)(argv, seconds, tally)
    extra = variant(name, seed)
    if extra is not None:
        # Checked and recorded, but kept out of the metrics: variants differ
        # in cost, and the metrics must compare across seeds.
        child = Child(cli_cmd(extra))
        tally.add(extra, child.code, child.out)
        result["variant"] = {"argv": extra, "exit": child.code, "wall_s": child.wall_s,
                             "cpu_s": child.cpu_s, "peak_rss_mb": child.rss_mb}
    stamp["loadavg_after"] = os.getloadavg()
    record = {
        "workload": name, "argv": argv, "seed": seed, "seconds": seconds, "trace": int(trace),
        "env": stamp, "attempted": tally.attempted, "failed": tally.failed,
        "errors": tally.errors, **result,
    }
    path = RESULTS / f"BENCH_{name}_seed{seed}_trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    return record


def units_for(trace: bool) -> dict[str, str]:
    if not trace:
        return END_TO_END_UNITS
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    from tracer import metric_units  # imports gga_verify, so only in trace mode

    return metric_units() | TRACE_UNITS


def summarise(record: dict, units: dict[str, str]) -> dict:
    """Print one line per metric; return the metrics in the result-line format."""
    name = record["workload"]
    metrics = {}
    for metric, unit in units.items():
        value = record["metrics"].get(metric)
        if value is None:
            continue
        metrics[metric] = {"value": value, "unit": unit}
        print(f"{name:15} {metric:50} {value:>14.6g} {unit}")
    fail_ratio = record["failed"] / max(record["attempted"], 1)
    print(f"{name:15} {'fail_ratio':50} {fail_ratio:>14.6g} ratio"
          f"  ({record['failed']} of {record['attempted']} reports)")
    for error in record["errors"]:
        print(f"{name:15} error: {error}", file=sys.stderr)
    return metrics


def smoke(expected: dict) -> int:
    """Every workload at N = 8, both modes: names, units and exact counts."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        units = units_for(trace)
        want = {m["name"]: m["unit"] for m in declared[key]}
        if want != units:
            problems.append(f"BENCHMARK.json {key} differs from the emitted metrics")
        for name, argv in WORKLOADS.items():
            record = run_workload(name, smoke_argv(argv), DEFAULT_SEED, 0, trace, expected)
            metrics = summarise(record, units)
            problems += [f"{name}: {e}" for e in record["errors"]]
            problems += [f"{name}: {m} missing" for m in units if m not in metrics]
            if record["failed"] or not record["attempted"]:
                problems.append(f"{name}: {record['failed']} of {record['attempted']} reports failed")
            for metric, value in SMOKE_COUNTS[name].items() if trace else ():
                if metrics.get(metric, {}).get("value") != value:
                    problems.append(f"{name}: {metric} = {metrics.get(metric)}, expected {value}")
    for problem in problems:
        print(f"smoke: {problem}", file=sys.stderr)
    print(json.dumps({"smoke": "fail" if problems else "ok", "problems": len(problems)}))
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny-N self-check of the benchmark")
    args = parser.parse_args()

    if not (SRC / "gga_verify" / "cli.py").is_file():
        print(f"error: no gga_verify sources under {SRC}", file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    expected = json.loads((BENCH / "expected.json").read_text())
    if args.smoke:
        return smoke(expected)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    units = units_for(bool(args.trace))
    records = [
        run_workload(name, WORKLOADS[name], args.seed, args.seconds, bool(args.trace), expected)
        for name in names
    ]
    summaries = {r["workload"]: summarise(r, units) for r in records}
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    correct = failed == 0 and not any(r["errors"] for r in records)
    metrics = summaries[names[0]] if len(names) == 1 else summaries
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
