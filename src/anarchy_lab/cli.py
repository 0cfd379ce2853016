"""Command-line front end: generate, validate, analyze and simulate.

Subcommands: gen, check, pne, poa, bounds, search, lll. Every run is fully
determined by its arguments, input files and seeds; numeric output uses
full-precision reprs for values and 6 significant digits in tables, so
outputs are byte-stable. Exit codes: 0 success, 2 validation failure,
3 work-cap refusal (a search would pass its budget of branches, profiles
or contexts; see ``SizeCapError``), 4 bound violation detected.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import math
import sys
from json.encoder import encode_basestring_ascii
from typing import Optional

from . import equilibrium as eq
from . import instances as inst
from . import learning
from .game import (
    Compromise,
    GameInstance,
    ModelIncompleteError,
    SizeCapError,
    UnsupportedUtilityError,
    ValidationError,
    Utility,
    check_vug,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SIZE_CAP = 3
EXIT_BOUND_VIOLATION = 4
# the longest start:stop:count temperature grid, built as a list; the most
# steps of one LLL run, and trials per temperature (each a row kept)
MAX_TEMPERATURES = 10_000
MAX_STEPS = 100_000_000
MAX_TRIALS = 1_000


def _value(x: float) -> str:
    return repr(float(x))


def _cell(x) -> str:
    if x is None:
        return "-"
    if isinstance(x, bool):
        return "yes" if x else "no"
    if isinstance(x, float):
        return format(x, ".6g")
    return str(x)


def _json(x, pad: Optional[str] = "") -> str:
    """``x`` as strict JSON in one pass: ``json.dumps(x, indent=2)``'s text at
    indentation ``pad`` (``json.dumps(x)``'s if None), byte for byte, but with
    a non-finite float at any depth as null. A non-str key is a TypeError."""
    if x is None or x is True or x is False:
        return "null" if x is None else "true" if x else "false"
    if isinstance(x, int):
        return int.__repr__(x)
    if isinstance(x, float):
        return float.__repr__(x) if math.isfinite(x) else "null"
    if isinstance(x, str):
        return encode_basestring_ascii(x)
    inner = None if pad is None else pad + "  "
    if isinstance(x, (list, tuple)):
        return inst._json_list([_json(v, inner) for v in x], pad)
    # a dict: its "key": value items laid out as a list's, in braces
    items = [f"{encode_basestring_ascii(k)}: {_json(v, inner)}" for k, v in x.items()]
    return "{" + inst._json_list(items, pad)[1:-1] + "}"


def _profile_json(profile):
    if profile is None:
        return None
    return [sorted(a) for a in profile]


def _print_table(headers, rows, out=None):
    out = out if out is not None else sys.stdout
    cells = [[_cell(h) for h in headers]] + [[_cell(c) for c in row] for row in rows]
    widths = [max(len(r[c]) for r in cells) for c in range(len(headers))]
    for idx, row in enumerate(cells):
        line = "  ".join(cell.ljust(widths[c]) for c, cell in enumerate(row))
        print(line.rstrip(), file=out)
        if idx == 0:
            print("  ".join("-" * w for w in widths), file=out)


def _read_instance(path: str) -> GameInstance:
    with open(path, "r", encoding="utf-8") as fh:
        return inst.parse(fh.read())


def _write_text(path: Optional[str], text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _parse_labels(spec: Optional[str], k: int):
    """'blind' applies to every compromised agent; or a comma list of k."""
    if spec is None:
        return None
    parts = [p.strip() for p in spec.split(",")]
    if not all(parts):
        raise ValueError(f"label list {spec!r} has an empty item")
    if len(parts) == 1 and k != 1:
        parts = parts * k
    return tuple(Compromise(p) for p in parts)


def _parse_k_range(spec: str) -> range:
    lo, dots, hi = spec.partition("..")
    try:
        ks = range(int(lo), int(hi if dots else lo) + 1)
    except ValueError:
        raise ValueError(
            f"k spec {spec!r} is not an integer k or a range lo..hi of integers"
        ) from None
    if not ks:
        raise ValueError(f"empty k range {spec!r}: the first k exceeds the last")
    return ks


def _parse_temps(spec: str):
    """Comma list, or start:stop:count with an optional (log)/(lin) suffix."""
    spec = spec.strip()
    if ":" in spec:
        mode = "log"
        if spec.endswith("(log)"):
            spec = spec[: -len("(log)")]
        elif spec.endswith("(lin)"):
            spec = spec[: -len("(lin)")]
            mode = "lin"
        try:
            start_s, stop_s, count_s = spec.split(":")
            start, stop, count = float(start_s), float(stop_s), int(count_s)
        except ValueError:
            raise ValueError(
                f"temperature grid {spec!r} is not start:stop:count "
                "(two numbers and an integer count)"
            ) from None
        for name, value in (("start", start), ("stop", stop)):
            if not math.isfinite(value):
                raise ValueError(f"temperature grid {spec!r} has a non-finite {name} {value!r}")
        if not 1 <= count <= MAX_TEMPERATURES:
            raise ValueError(f"temperature grid {spec!r} needs a count from 1 to "
                             f"MAX_TEMPERATURES = {MAX_TEMPERATURES}")
        if count == 1:
            return [start]
        if mode == "log":
            if start <= 0 or stop <= 0:
                raise ValueError("log-spaced temperatures must be positive")
            la, lb = math.log(start), math.log(stop)
            return [math.exp(la + (lb - la) * i / (count - 1)) for i in range(count)]
        return [start + (stop - start) * i / (count - 1) for i in range(count)]
    items = spec.split(",")
    if not all(items):
        raise ValueError(f"temperature list {spec!r} has an empty item")
    try:
        return [float(t) for t in items]
    except ValueError:
        raise ValueError(
            f"temperature list {spec!r} has an item that is not a number "
            "(give numbers separated by commas, or a start:stop:count grid)"
        ) from None


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen(args) -> int:
    params = inst.FamilyParams(
        family=args.family,
        n=args.n,
        k=args.k,
        labels=_parse_labels(args.labels, args.k if args.family != "fig1" else 3) or (),
        eps=args.eps,
        delta=args.delta,
        seed=args.seed,
        values=tuple(float(v) for v in args.values.split(",")) if args.values else (),
        max_resources=args.max_resources,
        max_actions=args.max_actions,
    )
    game = inst.gen_family(params)
    _write_text(args.out, inst.serialize(game))
    return EXIT_OK


def cmd_check(args) -> int:
    game = _read_instance(args.instance)
    vug = check_vug(game)
    sub = vug.welfare
    print(f"agents: {game.n}  resources: {game.num_resources}")
    print(f"welfare submodular/nondecreasing/normalized: {_cell(sub.ok)}")
    print(f"utilities dominate marginal contributions:   {_cell(vug.utility_dominates_marginal)}")
    print(f"utility sums bounded by welfare:             {_cell(vug.utility_sum_bounded)}")
    print(f"utility sums tight everywhere:               {_cell(vug.utility_sum_tight)}")
    failure = sub.failure or vug.failure
    if failure is not None:
        print(f"violation [{failure.kind}]: {failure.message}")
        if failure.witness:
            print(f"witness: {_json(dict(sorted(failure.witness.items())), None)}")
    return EXIT_OK if vug.ok else EXIT_VALIDATION


def cmd_pne(args) -> int:
    game = _read_instance(args.instance)
    eqs = eq.enumerate_pne(game)
    rows = [
        (idx, w, _json(_profile_json(p), None))
        for idx, (p, w) in enumerate(zip(eqs.profiles, eqs.welfares))
    ]
    print(f"pure Nash equilibria: {len(rows)}")
    if rows:
        _print_table(("#", "welfare", "profile"), rows)
    if args.json:
        doc = {
            "count": len(rows),
            "equilibria": [
                {"profile": _profile_json(p), "welfare": w}
                for p, w in zip(eqs.profiles, eqs.welfares)
            ],
        }
        _write_text(args.json, _json(doc) + "\n")
    return EXIT_OK


def _poa_doc(report: eq.PoAReport) -> dict:
    return {
        "opt_welfare": report.opt_welfare,
        "opt_profile": _profile_json(report.opt_profile),
        "worst_ne_welfare": report.worst_ne_welfare,
        "worst_ne_profile": _profile_json(report.worst_ne_profile),
        "ratio": report.ratio,
        "theoretical_bound": report.theoretical_bound,
        "bound_satisfied": report.bound_satisfied,
        "pne_count": report.pne_count,
    }


def cmd_poa(args) -> int:
    game = _read_instance(args.instance)
    report = eq.instance_poa(game)
    print(f"optimal welfare:     {_value(report.opt_welfare)}")
    print(f"equilibria found:    {report.pne_count}")
    if report.ratio is None:
        overflow = not math.isfinite(report.opt_welfare)
        cause = "the optimum overflows" if overflow else "no equilibrium or zero optimum"
        print(f"anarchy ratio:       undefined ({cause})")
    else:
        print(f"worst NE welfare:    {_value(report.worst_ne_welfare)}")
        print(f"anarchy ratio:       {_value(report.ratio)}")
    print(f"theoretical bound:   {_value(report.theoretical_bound)}")
    print(f"bound satisfied:     {_cell(report.bound_satisfied)}")
    if args.json:
        _write_text(args.json, _json(_poa_doc(report)) + "\n")
    if report.bound_satisfied is False:
        return EXIT_BOUND_VIOLATION
    return EXIT_OK


def _label_mixes(family: str, k: int, forced):
    if forced is not None:
        return [forced * k if len(forced) == 1 else forced]
    if k == 0 or family == "mc_noblind":
        return [()] if k == 0 else [(Compromise.ISOLATED,) * k]
    mixes = [(Compromise.BLIND,) * k, (Compromise.ISOLATED,) * k]
    if k >= 2:
        mixes.append(
            tuple(
                Compromise.BLIND if i % 2 == 0 else Compromise.ISOLATED
                for i in range(k)
            )
        )
    return mixes


def _chains_ok(game: GameInstance, report: eq.PoAReport) -> Optional[bool]:
    if report.ratio is None or game.agents_with(Compromise.DISABLED):
        return None
    certs = []
    certs.append(
        eq.check_bound_chain_general(
            game, report.worst_ne_profile, report.opt_profile, validate=False
        )
    )
    if all(u is Utility.MARGINAL_CONTRIBUTION for u in game.utilities) and game.agents_with(
        Compromise.BLIND
    ):
        certs.append(
            eq.check_bound_chain_mc(
                game, report.worst_ne_profile, report.opt_profile, validate=False
            )
        )
    return all(c.holds for c in certs)


def cmd_bounds(args) -> int:
    ks = _parse_k_range(args.k)
    # as given (k=1 does not expand one label): one label applies to every
    # k, a list must name exactly k labels
    forced = _parse_labels(args.labels, 1) if args.labels else None
    if forced and Compromise.NORMAL in forced:
        raise ValueError("bounds --labels takes blind, isolated or disabled, not normal")
    if forced is not None and len(forced) != 1:
        # the first k a list of labels does not fit, if any: ks[0] or ks[1]
        for k in itertools.islice(ks, 2):
            if k != len(forced):
                raise ValueError(f"expected {k} labels, got {len(forced)}")
    if ks[-1] > args.n:
        # every family needs k <= n: refuse with the family's own rule
        # before the sweep takes a step, however long the range
        inst.gen_family(inst.FamilyParams(args.family, args.n, ks[-1], eps=args.eps,
                                          delta=args.delta))
    rows = []
    docs = []
    any_violation = False
    for k in ks:
        optimum = None  # the label mixes of one k share welfare and actions
        for labels in _label_mixes(args.family, k, forced):
            # the families take blind/isolated labels; other mixes (e.g.
            # disabled) are applied by relabeling afterwards
            plain = all(l in (Compromise.BLIND, Compromise.ISOLATED) for l in labels)
            params = inst.FamilyParams(
                family=args.family,
                n=args.n,
                k=k,
                labels=labels if plain else (),
                eps=args.eps,
                delta=args.delta,
            )
            game = inst.gen_family(params)
            if not plain:
                compromise = tuple(labels) + (Compromise.NORMAL,) * (args.n - k)
                game = dataclasses.replace(game, compromise=compromise)
            if optimum is None:
                optimum = eq.optimal_welfare(game)
            report = eq.instance_poa(game, optimum)
            chains = _chains_ok(game, report)
            mix = ",".join(l.value for l in labels) if labels else "-"
            rows.append(
                (
                    k,
                    mix,
                    report.ratio,
                    report.theoretical_bound,
                    report.bound_satisfied,
                    chains,
                )
            )
            docs.append(
                {
                    "k": k,
                    "labels": [l.value for l in labels],
                    "report": _poa_doc(report),
                    "chains_hold": chains,
                }
            )
            if report.bound_satisfied is False or chains is False:
                any_violation = True
    _print_table(
        ("k", "labels", "ratio", "bound", "satisfied", "chains"), rows
    )
    if args.json:
        _write_text(args.json, _json(docs) + "\n")
    return EXIT_BOUND_VIOLATION if any_violation else EXIT_OK


def _read_search_config(path: str) -> eq.SearchConfig:
    """The search config file: a JSON object with a positive integer ``n``
    and a nonempty list of finite numbers ``value_grid``; every other key
    is optional."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except RecursionError as exc:
            raise inst.ParseError(f"search config: not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise inst.ParseError("search config: need a JSON object")

    def integer(key, default=None, least=1):
        v = inst._expect(raw, key, "search config") if default is None else raw.get(key, default)
        if type(v) is not int or (least is not None and v < least):
            raise inst.ParseError(f"search config: {key!r} must be an integer >= {least}")
        return v

    n = integer("n")
    grid = inst._numbers(inst._expect(raw, "value_grid", "search config"), "search config value_grid")
    if not grid or not all(map(math.isfinite, grid)):
        raise inst.ParseError("search config: 'value_grid' must be a nonempty list of finite numbers")
    labels = raw.get("labels", [])
    if not isinstance(labels, list):
        raise inst.ParseError("search config: 'labels' must be a list")
    # the enums raise ValueError on any value they do not name
    return eq.SearchConfig(
        n=n,
        k=integer("k", 0, least=0),
        labels=tuple(Compromise(l) for l in labels),
        utility_class=eq.UtilityClass(raw.get("utility_class", "vug")),
        value_grid=grid,
        budget=integer("budget", 200),
        seed=integer("seed", 0, least=None),
        max_resources=integer("max_resources", 4),
        max_actions=integer("max_actions", 3),
    )


def cmd_search(args) -> int:
    config = _read_search_config(args.config)
    game, report = eq.worst_case_search(config)
    print(f"candidates examined: {config.budget}")
    print(f"worst ratio found:   {_value(report.ratio)}")
    print(f"theoretical bound:   {_value(report.theoretical_bound)}")
    print(f"bound satisfied:     {_cell(report.bound_satisfied)}")
    if args.out:
        _write_text(args.out, inst.serialize(game))
    if args.report:
        _write_text(args.report, _json(_poa_doc(report)) + "\n")
    if report.bound_satisfied is False:
        return EXIT_BOUND_VIOLATION
    return EXIT_OK


def cmd_lll(args) -> int:
    for name, cap in (("steps", MAX_STEPS), ("trials", MAX_TRIALS)):
        if getattr(args, name) > cap:
            raise ValueError(f"--{name} {getattr(args, name)} is past MAX_{name.upper()} = {cap}")
    game = _read_instance(args.instance)
    temps = _parse_temps(args.temps)
    a0 = None
    if args.init == "worst-ne":
        _, _, a0 = eq._worst_pne(game)
        if a0 is None:
            print("no equilibrium to start from", file=sys.stderr)
            return EXIT_VALIDATION
    result = learning.temperature_sweep(
        game,
        temps,
        steps=args.steps,
        trials=args.trials,
        seed=args.seed,
        a0=a0,
        burn_in=args.burn_in,
    )
    if args.out:
        _write_text(args.out, result.to_csv())
    rows = [(T, result.pooled_mean(T)) for T in result.temperatures()]
    _print_table(("temperature", "mean_welfare"), rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anarchy-lab",
        description=(
            "Resource-allocation games with blind, isolated or disabled "
            "agents: generation, validation, equilibrium analysis, "
            "worst-case bounds and log-linear learning."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a canonical instance family member")
    p.add_argument("--family", required=True, choices=inst.FAMILY_NAMES)
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--eps", type=float, default=0.01)
    p.add_argument("--delta", type=float, default=0.01)
    p.add_argument("--labels", help="compromise label, or comma list of k labels")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--values",
        default="1.0,0.7,0.3,0.4,2.0,0.8",
        help="six comma-separated resource values (fig1 family)",
    )
    p.add_argument("--max-resources", type=int, default=4)
    p.add_argument("--max-actions", type=int, default=4)
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("check", help="validate an instance file")
    p.add_argument("--instance", required=True)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("pne", help="enumerate all pure Nash equilibria")
    p.add_argument("--instance", required=True)
    p.add_argument("--json", help="write a JSON report here")
    p.set_defaults(func=cmd_pne)

    p = sub.add_parser("poa", help="anarchy ratio against the class bound")
    p.add_argument("--instance", required=True)
    p.add_argument("--json", help="write a JSON report here")
    p.set_defaults(func=cmd_poa)

    p = sub.add_parser(
        "bounds", help="sweep a family over k and compare with the bounds"
    )
    p.add_argument("--family", required=True, choices=("k_blind", "mc_blind", "mc_noblind", "sim"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", required=True, help="single value or range lo..hi")
    p.add_argument("--labels", help="one label for every k (e.g. 'disabled'), or a list of k")
    p.add_argument("--eps", type=float, default=0.01)
    p.add_argument("--delta", type=float, default=0.01)
    p.add_argument("--json", help="write a JSON report here")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("search", help="randomized worst-case instance search")
    p.add_argument("--config", required=True, help="JSON search configuration")
    p.add_argument("--out", help="write the worst instance here")
    p.add_argument("--report", help="write its JSON report here")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("lll", help="log-linear learning temperature sweep")
    p.add_argument("--instance", required=True)
    p.add_argument("--temps", required=True, help="list 0.001,0.01 or start:stop:count(log)")
    p.add_argument("--steps", type=int, default=200_000)
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--burn-in", dest="burn_in", type=int, default=0)
    p.add_argument("--init", choices=("empty", "worst-ne"), default="empty")
    p.add_argument("--out", help="write the CSV here")
    p.set_defaults(func=cmd_lll)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SizeCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SIZE_CAP
    except (
        inst.ParseError,
        ValidationError,
        UnsupportedUtilityError,
        ModelIncompleteError,
        ValueError,
        OverflowError,  # a count too large to index
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
