"""Benchmark of the bentfn CLI: seeded workloads run in process, one client.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sixpack-trace --seed 1 --seconds 30 --trace 0

Each job is one CLI command (``sixpack``, ``verify``, ``analyze``,
``generate``, ``examples``) invoked through its click entry point in this
single-threaded process, as a closed loop: the next job starts when the
previous one returns.  Jobs come in passes of a fixed mix (workloads.py);
whole passes run until the summed job time reaches ``--seconds`` and
the run holds at least 40 jobs.  Every
job's output is checked after its pass, outside the timed region.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the first
pass untraced, then again with every layer wrapped (tracing.py), and
reports the per-layer metrics of the traced pass plus the tracing overhead;
the spans go to ``.perfbench_out/``.  Human-readable lines come first; the
last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# The tail percentile reported as job_s_p75.  A run goes on past --seconds
# until it holds MIN_JOBS jobs, so at least ten samples lie beyond it; the
# heavy workloads run 40 to 50 jobs in a run at this commit.
TAIL_QUANTILE = 0.75
MIN_JOBS = 40
SETUP_REPEATS = 9
# Distinct passes generated per run; longer runs cycle through them.
POOL = 16

# Component-field dimension m of the largest function (dimension m + 1) per
# workload, and whether the workload interpolates trace forms.
WORKING_SET_DIMS = {"sixpack-trace": (13, True), "verify-large": (19, False),
                    "catalogue-small": (11, True)}


@dataclass
class JobResult:
    exit_code: int
    stdout: str
    stderr: str
    exception: BaseException | None
    seconds: float


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def setup_once() -> float:
    """Wall time of a fresh interpreter that imports bentfn.cli and exits."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import bentfn.cli"], env=env, cwd=ROOT,
                   check=True, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def environment(workload: str) -> dict:
    def getconf(name):
        try:
            return int(subprocess.run(["getconf", name], capture_output=True, text=True,
                                      check=True).stdout)
        except (OSError, ValueError, subprocess.CalledProcessError):
            return None

    model = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            model = next((line.split(":", 1)[1].strip() for line in cpuinfo
                          if line.startswith("model name")), model)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    m, interpolates = WORKING_SET_DIMS[workload]
    working_set = {
        "label": "computed from array sizes, not measured",
        "function_dimension": m + 1,
        "walsh_int32_bytes": 4 << (m + 1),
        "truth_table_uint8_bytes": 1 << (m + 1),
        "field_tables_bytes": 9 << m,  # int32 log + int32 antilog + uint8 trace
    }
    if interpolates:
        # mattson_solomon: (2^m - 1) x |support| exponents, int64 plus an int32
        # gather, in blocks of at most 2^22 entries
        working_set["interpolation_block_bytes"] = 12 * min(((1 << m) - 1) << (m - 1), 1 << 22)
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "l2_bytes_per_core": getconf("LEVEL2_CACHE_SIZE"),
        "l3_bytes": getconf("LEVEL3_CACHE_SIZE"),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "click": metadata.version("click"),
        "commit": commit,
        "working_set": working_set,
        "note": "in-process jobs share cyclotomic_cosets' lru_cache; "
                "a CLI user pays for it on every command",
    }


class Bench:
    """One benchmark run: generator, checker, CLI entry point and work directory."""

    def __init__(self, workload: str, seed: int, work: Path):
        from bentfn.cli import main
        from checks import Checker
        from workloads import Generator

        self.generator = Generator(workload, seed)
        self.checker = Checker()
        self.main = main
        self.work = work
        # One pair of capture streams for the whole run: click caches a wrapper
        # per stream object and never drops it, so fresh streams per job (as
        # click.testing.CliRunner makes) grow the heap with every job.
        self._out = io.StringIO()
        self._err = io.StringIO()
        self._passes: dict[int, list] = {}
        self.failures: list[str] = []

    def jobs(self, index: int) -> list:
        key = index % POOL
        if key not in self._passes:
            self._passes[key] = self.generator.make_pass(key)
        return self._passes[key]

    @staticmethod
    def prepare(job, job_dir: Path) -> list[str]:
        """Write the job's input files and return its argv."""
        job_dir.mkdir(parents=True)
        for name, fn in job.inputs.items():
            fn.save(job_dir / name)
        return [arg.replace("{dir}", str(job_dir)) for arg in job.argv]

    def invoke(self, argv: list[str], tracer=None, job_id: int = 0) -> JobResult:
        """One timed job, as ``bentfn <argv>`` would run it; under a tracer,
        inside its root span.  Standard output and error are captured."""
        for stream in (self._out, self._err):
            stream.seek(0)
            stream.truncate()
        span = tracer.job_span(job_id, f"cli.{argv[0]}") if tracer else nullcontext()
        saved = sys.stdout, sys.stderr
        sys.stdout, sys.stderr = self._out, self._err
        exception, code = None, 0
        start = time.perf_counter()
        try:
            with span:
                self.main.main(args=argv, prog_name="bentfn")
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        except Exception as exc:  # a traceback is a failed job, recorded for the checker
            exception, code = exc, 1
        finally:
            seconds = time.perf_counter() - start
            sys.stdout, sys.stderr = saved
        return JobResult(code, self._out.getvalue(), self._err.getvalue(), exception, seconds)

    def run_job(self, job, job_dir: Path) -> JobResult:
        return self.invoke(self.prepare(job, job_dir))

    def run_pass(self, index: int, label: str, tracer=None) -> list[tuple]:
        """Run one pass, traced when given a tracer.

        Inputs are written before the wrappers go in, and the wrappers are
        gone again before the caller checks the outputs.
        """
        from tracing import traced

        jobs = self.jobs(index)
        argvs = [self.prepare(job, self.work / label / f"j{i}") for i, job in enumerate(jobs)]
        if tracer is None:
            results = [self.invoke(argv) for argv in argvs]
        else:
            with traced(tracer):
                results = [self.invoke(argv, tracer, i) for i, argv in enumerate(argvs)]
        return list(zip(jobs, results))

    def check(self, outcomes) -> int:
        failed = 0
        for job, result in outcomes:
            problems = self.checker.check(job, result)
            if problems:
                failed += 1
                self.failures.append(f"{' '.join(job.argv)}: {'; '.join(problems)}")
        return failed

    def clean(self) -> None:
        for child in self.work.iterdir():
            shutil.rmtree(child)

    def warm_up(self) -> None:
        """Run the first job once, untimed, so imports and first calls are done."""
        self.run_job(self.jobs(0)[0], self.work / "warmup")
        self.clean()

    def probe_known_defects(self) -> list[str]:
        from workloads import KNOWN_DEFECTS

        lines = []
        for i, job in enumerate(KNOWN_DEFECTS):
            problems = self.checker.check(job, self.run_job(job, self.work / f"defect{i}"))
            state = f"present: {problems[0]}" if problems else "fixed"
            lines.append(f"known-defect: {' '.join(job.argv)}: {state} "
                         f"({job.props['defect']})")
        self.clean()
        return lines


def quantile(sorted_values, q):
    """Nearest-rank quantile and the number of samples above it."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def shares(jobs) -> dict:
    """Measured shares of the input properties over the jobs run."""
    from workloads import is_prime

    def share(values):
        counts = Counter(values)
        return {str(k): round(v / len(values), 4) for k, v in sorted(counts.items())}

    ms = [job.props["m"] for job in jobs if "m" in job.props]
    out = {
        "m": share(ms),
        "2^m-1": share(["prime" if is_prime((1 << m) - 1) else "composite" for m in ms]),
        "invalid": round(sum("invalid" in job.props for job in jobs) / len(jobs), 4),
    }
    for key in ("xi", "family", "input"):
        values = [job.props[key] for job in jobs if key in job.props]
        if values:
            out[key] = share(values)
    invalid = [job.props["invalid"] for job in jobs if "invalid" in job.props]
    if invalid:
        out["invalid_kinds"] = share(invalid)
    return out


def run_untraced(bench: Bench, seconds: float) -> tuple[dict, int, int, list]:
    """Whole passes until --seconds of job time and MIN_JOBS jobs.

    Set-up is timed between passes rather than all at once, so that its
    median spans the run as the job times do; so is the pass rate whose
    median is jobs_per_s.
    """
    busy, times, rates, setups, attempted, failed, jobs = 0.0, [], [], [], 0, 0, []
    index = 0
    while busy < seconds or len(times) < MIN_JOBS:
        if len(setups) < SETUP_REPEATS:
            setups.append(setup_once())
        outcomes = bench.run_pass(index, "pass")
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        pass_failed = bench.check(outcomes)
        bench.clean()
        pass_busy = sum(result.seconds for _, result in outcomes)
        rates.append((len(outcomes) - pass_failed) / pass_busy)
        failed += pass_failed
        attempted += len(outcomes)
        for job, result in outcomes:
            times.append(result.seconds)
            jobs.append(job)
        busy += pass_busy
        index += 1
    while len(setups) < SETUP_REPEATS:
        setups.append(setup_once())
    times.sort()
    tail, beyond = quantile(times, TAIL_QUANTILE)
    metrics = {
        "setup_s": statistics.median(setups),
        "jobs_per_s": statistics.median(rates),
        "job_s_p50": statistics.median(times),
        "job_s_p75": tail,
        "peak_rss_mb": rss / 1024,
    }
    info = [f"samples: {len(times)} jobs in {index} passes, {beyond} beyond the p75; "
            f"failed_ratio {failed / attempted:.4f}; set-up timed {len(setups)} times"]
    return metrics, attempted, failed, info + [f"shares: {json.dumps(shares(jobs))}"]


def run_traced(bench: Bench, workload: str, seed: int) -> tuple[dict, int, int, list]:
    from tracing import Tracer, layer_metrics

    plain = bench.run_pass(0, "plain")
    tracer = Tracer()
    outcomes = bench.run_pass(0, "traced", tracer)
    failed = bench.check(plain) + bench.check(outcomes)
    bench.clean()
    metrics = layer_metrics(tracer, [result for _, result in outcomes])
    metrics["trace.overhead_ratio"] = (
        statistics.median(r.seconds for _, r in outcomes)
        / statistics.median(r.seconds for _, r in plain))
    spans_path = OUT / f"spans-{workload}-seed{seed}.jsonl"
    tracer.write(spans_path)
    info = [f"spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}",
            f"calls per job, by job type: {json.dumps(calls_per_job(tracer, outcomes))}"]
    return metrics, len(plain) + len(outcomes), failed, info


def calls_per_job(tracer, outcomes) -> dict:
    """Mean count of the main layer calls per job, for each job type."""
    from tracing import CALLS_PER_JOB

    counts = Counter((span.job, span.name) for span in tracer.spans)
    types = Counter(job.props["type"] for job, _ in outcomes)
    totals = {}
    for i, (job, _) in enumerate(outcomes):
        row = totals.setdefault(job.props["type"], Counter())
        for name in CALLS_PER_JOB:
            row[name] += counts[(i, name)]
    return {kind: {name: round(row[name] / types[kind], 3) for name in CALLS_PER_JOB}
            for kind, row in totals.items()}


def declared_units(trace: int) -> dict:
    """Name -> unit of the metrics BENCHMARK.json declares for this mode."""
    with open(ROOT / "BENCHMARK.json") as spec:
        section = json.load(spec)["per_layer" if trace else "end_to_end"]
    return {metric["name"]: metric["unit"] for metric in section}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "bentfn" / "__init__.py").is_file():
        print(f"error: no bentfn sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bentfn

    if Path(bentfn.__file__).resolve().parent != SRC / "bentfn":
        print(f"error: imported bentfn from {bentfn.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import PASS_MIX

    if args.workload not in PASS_MIX:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(PASS_MIX)}",
              file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir()
    try:
        bench = Bench(args.workload, args.seed, work)
        bench.warm_up()
        if args.trace:
            metrics, attempted, failed, info = run_traced(bench, args.workload, args.seed)
        else:
            metrics, attempted, failed, info = run_untraced(bench, args.seconds)
        info += bench.probe_known_defects()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = declared_units(args.trace)
    if set(units) != set(metrics):
        print(f"error: measured {sorted(metrics)}, BENCHMARK.json declares {sorted(units)}",
              file=sys.stderr)
        return 1

    print(f"workload: {args.workload} seed {args.seed} trace {args.trace}")
    print(f"env: {json.dumps(environment(args.workload))}")
    for line in info:
        print(line)
    for failure in bench.failures[:10]:
        print(f"FAILED {failure}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"metric {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
