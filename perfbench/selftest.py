"""Checks of the benchmark harness itself.

    python3 perfbench/selftest.py

- a planted wrong output is counted as a failed job (byte comparison at the
  default seed, invariant checks at another seed);
- traced and untraced rounds produce byte-identical outputs;
- the traced run patches every namespace that bound a traced name, and no
  wrapper is left behind afterwards;
- self time subtracts the union of the child spans;
- spans recorded from two threads at once each nest under their own parent.

Exits 0 when every check passes.
"""

from __future__ import annotations

import shutil
import sys
import threading

import run
import tracing
import workloads

FAILURES = []


def expect(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        FAILURES.append(what)


def planted(name: str, seed: int, plant, keep: int) -> dict:
    """A full measured run (three rounds) whose package has a fault planted
    after set-up, on the first ``keep`` jobs of the workload."""
    original = run.setup

    def faulty_setup(*args, **kwargs):
        al, cli, jobs, times = original(*args, **kwargs)
        plant(al, cli)
        return al, cli, jobs[:keep], times

    run.setup = faulty_setup
    workdir = run.ROOT / ".perfbench_tmp" / f"selftest-{name}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result, _ = run.measure(name, seed, 0.0, False, workdir)
    finally:
        run.setup = original
        shutil.rmtree(workdir, ignore_errors=True)
    return result


def check_planted() -> None:
    def last_digit(al, cli):
        cli._value = lambda x: repr(float(x) * (1 + 1e-15))

    result = planted("small_games", workloads.DEFAULT_SEED, last_digit, keep=6)
    expect(result["failed"] == result["attempted"] == 18 and not result["correct"],
           f"output off in the last digit fails every poa job at the default seed "
           f"({result['failed']} of {result['attempted']})")

    def inflated_optimum(al, cli):
        exact = al.equilibrium.optimal_welfare

        def optimal_welfare(game, cap=al.equilibrium.DEFAULT_ENUM_CAP):
            w, a = exact(game, cap=cap)
            return w * 1.001, a

        al.equilibrium.optimal_welfare = optimal_welfare

    result = planted("bounds_sweep", 7, inflated_optimum, keep=3)
    expect(result["failed"] == result["attempted"] == 9 and not result["correct"],
           f"an optimum off by 0.1% breaks the closed-form ratios at seed 7 "
           f"({result['failed']} of {result['attempted']})")


def check_traced_identical() -> None:
    for name in workloads.WORKLOADS:
        workdir = run.ROOT / ".perfbench_tmp" / f"selftest-{name}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            al, cli, jobs, _ = run.setup(name, workloads.DEFAULT_SEED, workdir)
            jobs = jobs[::4]
            _, _, plain = run.run_round(cli, jobs)
            tracer = tracing.Tracer(al)
            _, _, traced = run.run_round(cli, jobs, tracer, label=0)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        same = all(isinstance(plain[j.id], dict) and isinstance(traced[j.id], dict)
                   and run.digest(plain[j.id]) == run.digest(traced[j.id]) for j in jobs)
        expect(same, f"{name}: traced and untraced outputs are byte-identical "
                     f"({len(jobs)} jobs)")
        names = {s.name for s in tracer.spans}
        expect(tracer.leftover_wrappers() == [],
               f"{name}: no wrapper left after the traced round")
        for modname, fnames in tracing.TRACED.items():
            mod = sys.modules[f"anarchy_lab.{modname}"]
            restored = all(not hasattr(getattr(mod, f), tracing.MARK) for f in fnames)
            if not restored:
                expect(False, f"{name}: anarchy_lab.{modname} restored")
        if name == "small_games":
            # cmd_check calls check_submodular through the name cli imported
            direct = [s for s in tracer.spans if s.name == "game.check_submodular"
                      and tracer.spans[s.parent].name == "cli.main"]
            expect(bool(direct), "cli.check_submodular was patched too")
        expect("cli.main" in names, f"{name}: spans recorded ({len(tracer.spans)})")


def check_self_time() -> None:
    spans = [tracing.Span("a", 0.0, 10.0),
             tracing.Span("b", 1.0, 3.0, parent=0),
             tracing.Span("c", 2.0, 4.0, parent=0),
             tracing.Span("d", 6.0, 7.0, parent=0)]
    expect(tracing.self_times(spans) == [6.0, 2.0, 2.0, 1.0],
           "self time subtracts the union of child intervals")


def check_threaded_spans() -> None:
    tracer = tracing.Tracer(run.import_package()[0])
    inner = tracer._wrap("inner", lambda: None)
    outer = tracer._wrap("outer", lambda: inner())

    def worker():
        for _ in range(2000):
            outer()

    threads = [threading.Thread(target=worker) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    spans = tracer.spans
    nested = all(spans[s.parent].name == "outer" and spans[s.parent].start <= s.start
                 and s.end <= spans[s.parent].end for s in spans if s.name == "inner")
    expect(len(spans) == 8000 and nested,
           f"spans from two threads nest under their own parents ({len(spans)} spans)")


def main() -> int:
    check_self_time()
    check_threaded_spans()
    check_traced_identical()
    check_planted()
    print(f"{len(FAILURES)} failed" if FAILURES else "all harness checks pass")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
