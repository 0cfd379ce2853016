"""Spans around the package's public functions, installed from outside.

``Tracer.install`` replaces each traced function, in every ``anarchy_lab``
module that bound its name, by a wrapper that records a span: name, start,
end, parent span, job and round, plus the work counts read from the
arguments and return value. ``Tracer.remove`` puts the originals back.
Spans stay in memory; ``round_metrics`` turns one round's spans into the
per-layer metrics.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from dataclasses import dataclass, field

# module -> public functions traced in it
TRACED = {
    "instances": ("gen_k_blind", "gen_mc_blind", "gen_sim_game", "gen_random_separable",
                  "gen_family", "serialize", "parse"),
    "game": ("check_submodular", "check_vug"),
    "equilibrium": ("enumerate_pne", "optimal_welfare", "instance_poa",
                    "check_bound_chain_general", "check_bound_chain_mc"),
    "learning": ("temperature_sweep", "lll_run"),
    "cli": ("main",),
}
MARK = "__perfbench_traced__"


def _kind(game) -> str:
    return "sep" if game.separable else "tab"


def _cpu() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    job: str = ""
    round: object = None
    counts: dict = field(default_factory=dict)


class Tracer:
    def __init__(self, package, spans=None):
        self.package = package
        self.spans: list = spans if spans is not None else []
        self.job = ""
        self.round = None  # set by the harness: a set-up or a round label
        self._patched: list = []
        self._local = threading.local()
        self._main_stack: list = []
        self._lock = threading.Lock()  # a span's index is its place in ``spans``

    # -- counts read from arguments and return values ------------------------

    def _counts(self, name: str, args, kwargs, result) -> dict:
        game = args[0] if args else kwargs.get("game")
        jss = self.package.joint_space_size
        if name == "game.check_submodular":
            return {"kind": _kind(game), "pairs": result.pairs_checked}
        if name == "game.check_vug":
            return {"kind": _kind(game), "profiles": result.profiles_checked}
        if name == "equilibrium.enumerate_pne":
            return {"space": jss(game), "found": len(result.profiles)}
        if name == "equilibrium.optimal_welfare":
            return {"space": jss(game)}
        if name == "equilibrium.instance_poa":
            return {"pne": result.pne_count}
        if name == "equilibrium.check_bound_chain_mc":
            space = 1
            for i, label in enumerate(game.compromise):
                if label is self.package.Compromise.NORMAL:
                    space *= len(game.action_sets[i])
            return {"residual_space": space}
        if name == "learning.temperature_sweep":
            return {"kind": _kind(game), "steps": sum(r.steps for r in result.rows)}
        return {}

    # -- wrapping -------------------------------------------------------------

    def _stack(self) -> list:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            # a worker thread's spans hang under the main thread's open span
            parent = stack[-1] if stack else (
                tracer._main_stack[-1] if tracer._main_stack else -1)
            span = Span(name, 0.0, parent=parent, job=tracer.job, round=tracer.round)
            with tracer._lock:
                idx = len(tracer.spans)
                tracer.spans.append(span)
            stack.append(idx)
            cpu0 = _cpu()
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                span.counts["cpu"] = _cpu() - cpu0
                stack.pop()
            span.counts.update(tracer._counts(name, args, kwargs, result))
            return result

        setattr(traced, MARK, fn)
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    def _modules(self):
        prefix = self.package.__name__
        return [m for key, m in list(sys.modules.items())
                if m is not None and (key == prefix or key.startswith(prefix + "."))]

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = self._modules()
        for modname, names in TRACED.items():
            mod = sys.modules[f"{self.package.__name__}.{modname}"]
            for fname in names:
                original = getattr(mod, fname)
                wrapper = self._wrap(f"{modname}.{fname}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)
                            self._patched.append((m, attr, original))

    def remove(self) -> None:
        for m, attr, original in reversed(self._patched):
            setattr(m, attr, original)
        self._patched = []

    def leftover_wrappers(self) -> list:
        """Names still bound to a wrapper in any package module."""
        return [f"{m.__name__}.{attr}" for m in self._modules()
                for attr, value in vars(m).items() if hasattr(value, MARK)]


# ---------------------------------------------------------------------------
# metrics from spans


def _covered(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list) -> list:
    """Each span's duration minus the part of it its child spans cover."""
    children = [[] for _ in spans]
    for idx, span in enumerate(spans):
        if span.parent >= 0:
            children[span.parent].append(idx)
    out = []
    for idx, span in enumerate(spans):
        kids = [(max(spans[c].start, span.start), min(spans[c].end, span.end))
                for c in children[idx]]
        out.append(span.end - span.start - _covered(kids))
    return out


# per-layer metric name -> unit, in the order they are reported
LAYER_METRICS = {
    "equilibrium.optimal_welfare.self_s": "s",
    "equilibrium.optimal_welfare.space": "count",
    "equilibrium.optimal_welfare.us_per_profile": "us",
    "equilibrium.enumerate_pne.self_s": "s",
    "equilibrium.enumerate_pne.space": "count",
    "equilibrium.enumerate_pne.us_per_profile": "us",
    "equilibrium.chain_general.self_s": "s",
    "equilibrium.chain_mc.self_s": "s",
    "equilibrium.chain_mc.residual_space": "count",
    "equilibrium.instance_poa.self_s": "s",
    "equilibrium.pne_found": "count",
    "game.check_submodular.sep.self_s": "s",
    "game.check_submodular.sep.pairs": "count",
    "game.check_submodular.sep.us_per_pair": "us",
    "game.check_submodular.tab.self_s": "s",
    "game.check_submodular.tab.pairs": "count",
    "game.check_submodular.tab.us_per_pair": "us",
    "game.check_vug.sep.self_s": "s",
    "game.check_vug.sep.profiles": "count",
    "game.check_vug.sep.us_per_profile": "us",
    "game.check_vug.tab.self_s": "s",
    "game.check_vug.tab.profiles": "count",
    "game.check_vug.tab.us_per_profile": "us",
    "learning.sep.us_per_step": "us",
    "learning.tab.us_per_step": "us",
    "learning.steps": "count",
    "learning.cpu_per_wall": "ratio",
    "instances.gen_s": "s",
    "instances.serialize_s": "s",
    "instances.parse_s": "s",
    "instances.job_self_s": "s",
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
    "tracing.overhead_s": "s",
}


def _per(numerator: float, denominator: float, scale: float = 1e6) -> float:
    return numerator / denominator * scale if denominator else 0.0


def round_metrics(timed: list) -> dict:
    """Per-layer metrics of one round (one pass over the job list), from its
    (span, self time) pairs."""
    acc: dict = {}

    def add(key: str, value: float) -> None:
        acc[key] = acc.get(key, 0.0) + value

    for span, self_s in timed:
        c = span.counts
        layer, fname = span.name.split(".", 1)
        if span.name in ("game.check_submodular", "game.check_vug"):
            unit = "pairs" if fname == "check_submodular" else "profiles"
            base = f"{span.name}.{c['kind']}"
            add(base + ".self_s", self_s)
            add(f"{base}.{unit}", c[unit])
        elif span.name in ("equilibrium.optimal_welfare", "equilibrium.enumerate_pne"):
            add(span.name + ".self_s", self_s)
            add(span.name + ".space", c["space"])
        elif span.name == "equilibrium.check_bound_chain_general":
            add("equilibrium.chain_general.self_s", self_s)
        elif span.name == "equilibrium.check_bound_chain_mc":
            add("equilibrium.chain_mc.self_s", self_s)
            add("equilibrium.chain_mc.residual_space", c["residual_space"])
        elif span.name == "equilibrium.instance_poa":
            add("equilibrium.instance_poa.self_s", self_s)
            add("equilibrium.pne_found", c["pne"])
        elif span.name == "learning.temperature_sweep":
            wall = span.end - span.start
            add(f"learning.{c['kind']}.wall", wall)
            add(f"learning.{c['kind']}.steps", c["steps"])
            add("learning.steps", c["steps"])
            add("learning.cpu", c["cpu"])
            add("learning.wall", wall)
        elif layer == "instances":
            add("instances.job_self_s", self_s)
        elif span.name == "cli.main":
            add("cli.self_s", self_s)

    out = {name: 0.0 for name in LAYER_METRICS}
    out.update({k: v for k, v in acc.items() if k in out})
    for name in ("equilibrium.optimal_welfare", "equilibrium.enumerate_pne"):
        out[name + ".us_per_profile"] = _per(acc.get(name + ".self_s", 0.0),
                                             acc.get(name + ".space", 0.0))
    for name in ("game.check_submodular", "game.check_vug"):
        unit = "pairs" if name.endswith("submodular") else "profiles"
        rate = "us_per_pair" if unit == "pairs" else "us_per_profile"
        for kind in ("sep", "tab"):
            base = f"{name}.{kind}"
            out[f"{base}.{rate}"] = _per(acc.get(base + ".self_s", 0.0),
                                         acc.get(f"{base}.{unit}", 0.0))
    for kind in ("sep", "tab"):
        out[f"learning.{kind}.us_per_step"] = _per(acc.get(f"learning.{kind}.wall", 0.0),
                                                   acc.get(f"learning.{kind}.steps", 0.0))
    out["learning.cpu_per_wall"] = _per(acc.get("learning.cpu", 0.0),
                                        acc.get("learning.wall", 0.0), 1.0)
    return out


def setup_metrics(timed: list) -> dict:
    """Self time in the instances layer during one set-up, from its
    (span, self time) pairs."""
    out = {"instances.gen_s": 0.0, "instances.serialize_s": 0.0, "instances.parse_s": 0.0}
    for span, self_s in timed:
        if span.name in ("instances.serialize", "instances.parse"):
            out[f"{span.name}_s"] += self_s
        elif span.name.startswith("instances.gen_"):
            out["instances.gen_s"] += self_s
    return out
