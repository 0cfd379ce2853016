"""anarchy-lab benchmark: fixed CLI job lists, timed end to end, traced per layer.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload small_games --seed 1 --seconds 40 --trace 0

A run times a set-up (import the package afresh from ``src/``, write the
workload's instance files, build its job list), then repeats the job list
("rounds") for about ``--seconds`` seconds, and at least three times, in one
closed loop, one job at a time. The set-up is repeated before every later
round. Every job is one or
more in-process ``anarchy_lab.cli.main(argv)`` calls with the output
captured; each job's output is checked after its round. With
``--trace 0`` the run reports the end-to-end metrics. With ``--trace 1`` the
rounds alternate between untraced and traced, and the run reports the
per-layer metrics read from the spans. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import typing
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "anarchy_lab"
MIN_ROUNDS = 3  # untraced rounds in every run; traced runs add as many traced
TAIL_BEYOND = 10  # the tail percentile keeps at least this many jobs above it
EXPECTED = Path(__file__).resolve().parent / "expected.json"
SPANS_DIR = ROOT / ".perfbench_spans"  # traced runs write their spans here

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "job_p50_s": "s", "job_tail_s": "s",
             "peak_rss_mb": "MB"}


class HarnessError(Exception):
    """The benchmark cannot run here (for example, no package source)."""


def _package_modules() -> dict:
    return {k: m for k, m in sys.modules.items() if k == PACKAGE or k.startswith(PACKAGE + ".")}


def import_package():
    """Import the package afresh from the checkout's ``src/``.

    ``typing`` caches the ``Union[...]`` and similar forms a module builds,
    and through them the module's classes and globals; its caches are
    cleared, so that an earlier import of the package can be freed."""
    for key in _package_modules():
        del sys.modules[key]
    for clear in getattr(typing, "_cleanups", ()):
        clear()
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    try:
        al = importlib.import_module(PACKAGE)
        cli = importlib.import_module(PACKAGE + ".cli")
    except ImportError as exc:
        raise HarnessError(f"cannot import {PACKAGE} from {src}: {exc}") from None
    if Path(al.__file__).resolve().parent.parent != src.resolve():
        raise HarnessError(f"{PACKAGE} was imported from {al.__file__}, not from {src}")
    return al, cli


def digest(out: dict) -> str:
    h = hashlib.sha256()
    for key in sorted(out):
        h.update(key.encode() + b"\0" + out[key].encode() + b"\0")
    return h.hexdigest()


def run_round(cli, jobs: list, tracer=None, label=None):
    """Run every job once, back to back. Returns the round's wall time, the
    job latencies and, per job, its outputs or the reason it failed."""
    latencies, results = [], {}
    if tracer is not None:
        tracer.round = label
        tracer.install()
    t_round = time.perf_counter()
    try:
        for job in jobs:
            if tracer is not None:
                tracer.job = job.id
            stdout, stderr = io.StringIO(), io.StringIO()
            codes, error = [], None
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    for argv in job.calls:
                        codes.append(cli.main(list(argv)))
            except (Exception, SystemExit) as exc:  # a failed job, not a failed run
                error = f"raised {exc!r}"
            latencies.append(time.perf_counter() - t0)
            out = {"stdout": stdout.getvalue()}
            for path in job.files:
                try:
                    with open(path, "r", encoding="utf-8") as fh:
                        out[Path(path).suffix.lstrip(".")] = fh.read()
                    os.remove(path)
                except OSError as exc:
                    error = error or f"output {path}: {exc.strerror}"
            if error is None and any(codes):
                error = f"exit codes {codes}, expected 0"
            if error is None and stderr.getvalue():
                error = f"stderr: {stderr.getvalue().strip()[:200]}"
            results[job.id] = error if error is not None else out
    finally:
        wall = time.perf_counter() - t_round
        if tracer is not None:
            tracer.remove()
    return wall, latencies, results


def verify_round(name: str, jobs: list, results: dict, reference: dict, expected: dict) -> list:
    """Failed jobs of one round as (job id, reason). ``reference`` holds the
    first round's digests, which every later round must repeat; ``expected``
    the digests recorded for the default seed, if this run uses it."""
    failures = []
    outputs = {}
    for job in jobs:
        out = results[job.id]
        if isinstance(out, str):
            failures.append((job.id, out))
            continue
        try:
            reason = job.check(out)
        except (KeyError, IndexError, ValueError, TypeError, AttributeError) as exc:
            reason = f"unreadable output: {exc!r}"
        d = digest(out)
        reference.setdefault(job.id, d)
        if reason is None and d != reference[job.id]:
            reason = "output differs from the run's first round"
        if reason is None and expected and d != expected.get(job.id):
            reason = "output differs from the recorded default-seed output"
        if reason is None:
            outputs[job.id] = out
        else:
            failures.append((job.id, reason))
    failures += workloads.check_round(name, jobs, outputs)
    return failures


def tail_percentile(jobs: int) -> int:
    """The highest whole percentile that leaves at least TAIL_BEYOND of
    ``jobs`` pooled latencies above it."""
    return math.floor(100 * (1 - TAIL_BEYOND / jobs))


def nearest_rank(values: list, pct: int) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def peak_rss_mb() -> float:
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def provenance() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        commit = ((ROOT / ".git" / ref[5:]).read_text().strip()
                  if ref.startswith("ref: ") else ref)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cpu": cpu,
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "commit": commit,
    }


def setup(name: str, seed: int, workdir: Path, spans=None, label=None):
    """Import the package afresh, write the workload's instance files and
    build its job list. Returns the package, its CLI module, the jobs and the
    time taken. With ``spans`` (a list) the set-up is traced into it."""
    gc.collect()  # the garbage of earlier rounds is not the set-up's cost
    t0 = time.perf_counter()
    al, cli = import_package()
    tracer = None
    if spans is not None:
        tracer = tracing.Tracer(al, spans)
        tracer.round = label
        tracer.install()
    try:
        jobs = workloads.build(name, al, seed, str(workdir))
    finally:
        if tracer is not None:
            tracer.remove()
    return al, cli, jobs, time.perf_counter() - t0


def measure(name: str, seed: int, seconds: float, trace: bool, workdir: Path):
    """Set up, run rounds for about ``seconds`` and return the result line and
    a summary for the human-readable lines.

    The set-up runs before every round, so that its samples spread over the
    whole run: a shared virtual machine can drift between speed states that
    last tens of seconds, and samples taken in one burst would all land in
    one state. The jobs keep using the first set-up's package.
    """
    spans = [] if trace else None
    al, cli, jobs, first = setup(name, seed, workdir, spans, "setup0")
    setup_times = [first]
    package = _package_modules()
    expected = {}
    if seed == workloads.DEFAULT_SEED and EXPECTED.exists():
        expected = json.loads(EXPECTED.read_text())[name]
    tracer = tracing.Tracer(al, spans) if trace else None
    reference: dict = {}
    rounds = []  # (traced, wall, latencies, failures, output bytes)
    t_start = time.perf_counter()
    while True:
        if rounds:
            setup_times.append(setup(name, seed, workdir, spans, f"setup{len(rounds)}")[3])
            for key in _package_modules():
                del sys.modules[key]
            sys.modules.update(package)
        traced = trace and len(rounds) % 2 == 1
        t0 = time.perf_counter()
        wall, latencies, results = run_round(
            cli, jobs, tracer if traced else None, label=len(rounds))
        failures = verify_round(name, jobs, results, reference, expected)
        size = sum(len(v.encode()) for out in results.values() if isinstance(out, dict)
                   for v in out.values())
        rounds.append((traced, wall, latencies, failures, size))
        per_round = time.perf_counter() - t0
        untraced = sum(1 for r in rounds if not r[0])
        elapsed = time.perf_counter() - t_start
        if untraced >= MIN_ROUNDS and (not trace or len(rounds) % 2 == 0) \
                and elapsed + per_round * (2 if trace else 1) > seconds:
            break
    leftovers = tracer.leftover_wrappers() if tracer is not None else []

    failures = [(i, job, why) for i, r in enumerate(rounds) for job, why in r[3]]
    attempted = len(jobs) * len(rounds)
    plain = [r for r in rounds if not r[0]]
    latencies = [x for r in plain for x in r[2]]
    pct = tail_percentile(len(latencies))
    summary = {
        "rounds": len(rounds),
        "jobs_per_round": len(jobs),
        "tail_percentile": pct,
        "tail_jobs": len(latencies),
        "round_walls": [round(r[1], 4) for r in rounds],
        "failures": failures[:10],
        "leftover_wrappers": leftovers,
    }
    if not trace:
        # means over the run weigh the machine's speed states by the time
        # spent in each; a median jumps from one state to the other
        job_means = [statistics.fmean(r[2][j] for r in plain) for j in range(len(jobs))]
        values = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.fmean(r[1] for r in plain),
            "job_p50_s": statistics.median(job_means),
            "job_tail_s": nearest_rank(latencies, pct),
            "peak_rss_mb": peak_rss_mb(),
        }
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
    else:
        metrics = layer_metrics(spans, rounds)
        summary["spans_file"] = write_spans(spans, name, seed)
    return {
        "correct": not failures and not leftovers,
        "attempted": attempted,
        "failed": len({(i, job) for i, job, _ in failures}),
        "metrics": metrics,
    }, summary


def write_spans(spans: list, name: str, seed: int) -> str:
    """Write one JSON line per span, with its self time; ``parent`` is the
    parent's line number (0-based) or null."""
    SPANS_DIR.mkdir(exist_ok=True)
    path = SPANS_DIR / f"{name}-seed{seed}.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for span, self_s in zip(spans, tracing.self_times(spans)):
            fh.write(json.dumps({
                "name": span.name, "start": span.start, "end": span.end,
                "parent": span.parent if span.parent >= 0 else None,
                "job": span.job, "round": span.round, "self_s": self_s,
                "counts": span.counts,
            }) + "\n")
    return str(path.relative_to(ROOT))


def layer_metrics(spans: list, rounds: list) -> dict:
    """Medians over traced rounds, and over all set-ups for the instances
    set-up metrics."""
    groups: dict = {}
    for span, self_s in zip(spans, tracing.self_times(spans)):
        groups.setdefault(span.round, []).append((span, self_s))
    per_round = [tracing.round_metrics(v) for k, v in groups.items() if isinstance(k, int)]
    per_setup = [tracing.setup_metrics(v) for k, v in groups.items() if isinstance(k, str)]
    values = {}
    for name in tracing.LAYER_METRICS:
        samples = per_setup if name in per_setup[0] else per_round
        values[name] = statistics.median(s[name] for s in samples)
    values["cli.output_bytes"] = statistics.median(r[4] for r in rounds if r[0])
    values["tracing.overhead_s"] = (statistics.fmean(r[1] for r in rounds if r[0])
                                    - statistics.fmean(r[1] for r in rounds if not r[0]))
    return {k: {"value": v, "unit": tracing.LAYER_METRICS[k]} for k, v in values.items()}


def print_summary(name: str, seed: int, trace: bool, result: dict, summary: dict) -> None:
    print(f"# workload {name}  seed {seed}  trace {int(trace)}  rounds {summary['rounds']}"
          f"  jobs/round {summary['jobs_per_round']}")
    print("# provenance " + json.dumps(provenance(), sort_keys=True))
    print(f"# round walls (s, traced rounds odd when tracing): {summary['round_walls']}")
    for key, m in result["metrics"].items():
        note = ""
        if key == "job_tail_s":
            note = f"  (p{summary['tail_percentile']} of {summary['tail_jobs']} jobs)"
        print(f"{key:48s} {m['value']:.6g} {m['unit']}{note}")
    frac = result["failed"] / result["attempted"]
    print(f"{'failed_frac':48s} {frac:.6g} fraction  ({result['failed']} of {result['attempted']} jobs)")
    for rnd, job, why in summary["failures"]:
        print(f"# FAILED round {rnd} job {job}: {why}", file=sys.stderr)
    if "spans_file" in summary:
        print(f"# spans written to {summary['spans_file']}")
    if summary["leftover_wrappers"]:
        print(f"# wrappers left behind: {summary['leftover_wrappers']}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # the benchmark measures the default worker count: no knob is set
    os.environ.pop("ANARCHY_LAB_THREADS", None)
    workdir = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result, summary = measure(args.workload, args.seed, args.seconds,
                                  bool(args.trace), workdir)
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    print_summary(args.workload, args.seed, bool(args.trace), result, summary)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
