"""End-to-end command-line behavior: formats, determinism, exit codes."""

import dataclasses
import itertools
import json
import math
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import anarchy_lab as al
import anarchy_lab.game as game_module
from anarchy_lab import cli, equilibrium
from anarchy_lab import instances as inst
from anarchy_lab.cli import main
from test_equilibrium import coverage_game, cover8, overflowing_pair, table_by_set
from test_instances import reference_serialize
from test_learning import reference_walk, sim_table_twin, softmax_choice


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# the CLI in a child process with 256 MB of address space, for inputs that
# would allocate or loop without bound if nothing refused them
LIMITED = (
    "import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (1 << 28, 1 << 28)); "
    "from anarchy_lab.cli import main; sys.exit(main(sys.argv[1:]))"
)


def run_limited(cwd, *argv):
    """(exit code, stdout, stderr) of ``argv`` run under LIMITED, cut after 10 s."""
    src = os.path.dirname(os.path.dirname(al.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", LIMITED, *argv], cwd=cwd, capture_output=True, text=True,
        timeout=10, env=dict(os.environ, PYTHONPATH=path),
    )
    return proc.returncode, proc.stdout, proc.stderr


def strict_json(text):
    """Parse RFC 8259 JSON, refusing the non-standard NaN and Infinity."""

    def refuse(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(text, parse_constant=refuse)


class TestGen:
    def test_generated_instance_is_valid(self, tmp_path, capsys):
        out = tmp_path / "g.json"
        code, _, _ = run(
            capsys, "gen", "--family", "mc_blind", "--n", "6", "--k", "3",
            "--eps", "0.01", "--out", str(out),
        )
        assert code == 0
        game = al.parse(out.read_text())
        assert al.check_vug(game).ok

    def test_sim_family_has_the_reference_optimum(self, tmp_path, capsys):
        out = tmp_path / "sim.json"
        code, _, _ = run(
            capsys, "gen", "--family", "sim", "--n", "10", "--k", "9",
            "--eps", "0.05", "--out", str(out),
        )
        assert code == 0
        game = al.parse(out.read_text())
        w, _ = al.optimal_welfare(game)
        assert w == pytest.approx(9.55, abs=1e-9)

    def test_missing_required_parameter_fails(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen"])
        assert exc.value.code != 0

    @pytest.mark.parametrize("flag", ["--max-resources", "--max-actions"])
    def test_random_draw_limits(self, tmp_path, capsys, flag):
        argv = ["gen", "--family", "random", "--n", "3", "--out", str(tmp_path / "g.json")]
        assert run(capsys, *argv, flag, "1000")[0] == 0
        code, out, err = run(capsys, *argv, flag, "1001")
        assert (code, out) == (2, "")
        assert "at most MAX_RESOURCES = 1000 and max_actions at most MAX_ACTIONS = 1000" in err
        code, out, err = run_limited(tmp_path, *argv, flag, str(10**30))
        assert (code, out) == (2, "")
        assert err.startswith("error: max_resources must be at most MAX_RESOURCES")

    def test_a_huge_n_exits_two_before_allocating(self, tmp_path, capsys):
        # k_blind's curves hold (n+1)^2 cells: n = 10^8 used to end in a
        # MemoryError traceback, exit 1
        code, out, err = run_limited(tmp_path, "gen", "--family", "k_blind", "--n", "100000000",
                                     "--k", "0")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "n at most MAX_AGENTS = 2000" in err
        argv = ["gen", "--family", "mc_blind", "--k", "0", "--out", str(tmp_path / "g.json")]
        assert run(capsys, *argv, "--n", str(inst.MAX_AGENTS))[0] == 0
        assert al.parse((tmp_path / "g.json").read_text()).n == inst.MAX_AGENTS
        assert run(capsys, *argv, "--n", str(inst.MAX_AGENTS + 1))[0] == 2

    def test_bad_parameters_exit_validation(self, capsys):
        code, _, err = run(capsys, "gen", "--family", "k_blind", "--n", "3", "--k", "3")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("k, labels", [(1, "blind"), (1, "disabled"), (2, "isolated,blind")])
    def test_mc_noblind_takes_isolated_labels_only(self, k, labels, tmp_path, capsys):
        # the family is all-isolated: it used to write isolated agents
        # whatever the labels asked for
        out = tmp_path / "g.json"
        code, stdout, err = run(
            capsys, "gen", "--family", "mc_noblind", "--n", "5", "--k", str(k),
            "--labels", labels, "--out", str(out),
        )
        assert (code, stdout, err) == (2, "", "error: this family takes isolated labels only\n")
        assert not out.exists()
        code, _, _ = run(
            capsys, "gen", "--family", "mc_noblind", "--n", "5", "--k", str(k),
            "--labels", "isolated", "--out", str(out),
        )
        assert code == 0
        assert al.parse(out.read_text()).agents_with(al.Compromise.ISOLATED) == tuple(range(k))

    @pytest.mark.parametrize("labels", [",", "isolated,,isolated", "blind,"])
    def test_an_empty_label_is_rejected(self, labels, tmp_path, capsys):
        # the empty items used to be dropped: "," wrote two blind agents
        out = tmp_path / "g.json"
        code, stdout, err = run(
            capsys, "gen", "--family", "k_blind", "--n", "4", "--k", "2",
            "--labels", labels, "--out", str(out),
        )
        assert (code, stdout) == (2, "")
        assert err == f"error: label list {labels!r} has an empty item\n"
        assert not out.exists()

    def test_stdout_output_is_deterministic(self, capsys):
        code1, out1, _ = run(capsys, "gen", "--family", "random", "--n", "4", "--seed", "5")
        code2, out2, _ = run(capsys, "gen", "--family", "random", "--n", "4", "--seed", "5")
        assert code1 == code2 == 0
        assert out1 == out2


class TestCheck:
    def test_valid_instance_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        path.write_text(al.serialize(al.gen_k_blind(4, 2, 0.01, 0.01)))
        code, out, _ = run(capsys, "check", "--instance", str(path))
        assert code == 0
        assert "yes" in out

    def test_supermodular_table_exits_two_with_witness(self, tmp_path, capsys):
        doc = {
            "n": 2,
            "resources": [{"id": 0}, {"id": 1}],
            "table": [
                {"subset": [], "value": 0.0},
                {"subset": [0], "value": 1.0},
                {"subset": [1], "value": 1.0},
                {"subset": [0, 1], "value": 3.0},
            ],
            "action_sets": [[[0]], [[1]]],
            "utility": ["mc", "mc"],
            "compromise": ["normal", "normal"],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "check", "--instance", str(path))
        assert code == 2
        assert "witness" in out

    def test_equal_share_on_table_exits_two(self, tmp_path, capsys):
        doc = {
            "n": 1,
            "resources": [{"id": 0}],
            "table": [{"subset": [], "value": 0.0}, {"subset": [0], "value": 1.0}],
            "action_sets": [[[0]]],
            "utility": ["es"],
            "compromise": ["normal"],
        }
        path = tmp_path / "es.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "check", "--instance", str(path))
        assert code == 2
        assert "equal-share" in err

    @pytest.mark.parametrize("hole", [(0, 1, 2), ()])
    def test_a_table_missing_an_entry_exits_two_naming_it(self, hole, tmp_path, capsys):
        # CI's smoke-hole3.json layout, and the same table without its ∅
        # entry: check's profile scan raises on the first entry it misses,
        # so no report is printed, only that error; check_submodular,
        # called on its own, returns the entry as a table-missing finding
        table = {
            frozenset(s): float(size)
            for size in range(4) for s in itertools.combinations(range(3), size) if s != hole
        }
        game = al.GameInstance(
            al.TabulatedWelfare.from_mapping(table, 3), (({0}, {1}, {2}),) * 3,
            ("mc",) * 3, ("normal",) * 3,
        )
        path = tmp_path / "hole.json"
        path.write_text(al.serialize(game))
        message = f"no welfare table entry for base set {list(hole)}"
        assert run(capsys, "check", "--instance", str(path)) == (2, "", f"error: {message}\n")
        report = al.check_submodular(game)
        assert (report.ok, report.failure.kind, report.failure.message) == (
            False, "table-missing", message
        )

    def test_coverage_tables_past_the_walks_cap_are_settled(self, tmp_path, capsys):
        # CI's cover8 layout with 8 and with 12 agents (4^12 = 16,777,216
        # profiles): the margin spread settles both, with the verdicts the
        # profile walk gives on 8 agents
        welfare = cover8().welfare
        walk = game_module._scan_vug(cover8(), None, al.check_submodular(cover8()))
        assert (walk.ok, walk.utility_sum_tight) == (True, False)
        for n in (8, 12):
            game = al.GameInstance(welfare, (({0}, {1}, {2}),) * n, ("mc",) * n, ("normal",) * n)
            path = tmp_path / f"cover{n}.json"
            path.write_text(al.serialize(game))
            code, out, err = run(capsys, "check", "--instance", str(path))
            assert (code, err) == (0, "")
            assert [line.split()[-1] for line in out.splitlines()] == ["3", "yes", "yes", "yes", "no"]

    def test_runs_the_submodularity_scan_once(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "g.json"
        path.write_text(al.serialize(al.gen_k_blind(4, 2, 0.01, 0.01)))
        scan = game_module.check_submodular
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return scan(*args, **kwargs)

        monkeypatch.setattr(game_module, "check_submodular", counting)
        monkeypatch.setattr(cli, "check_submodular", counting, raising=False)
        code, _, _ = run(capsys, "check", "--instance", str(path))
        assert code == 0
        assert len(calls) == 1


SEPARABLE_DOC = {
    "n": 2,
    "resources": [{"id": 0, "curve": [0.0, 1.0, 1.5]}],
    "action_sets": [[[0]], [[0]]],
    "utility": ["mc", "mc"],
    "compromise": ["normal", "normal"],
}
TABULATED_DOC = {
    "n": 1,
    "resources": [{"id": 0}, {"id": 1}],
    "table": [
        {"subset": [], "value": 0.0},
        {"subset": [0], "value": 1.0},
        {"subset": [1], "value": 1.0},
    ],
    "action_sets": [[[0], [1]]],
    "utility": ["mc"],
    "compromise": ["normal"],
}


def edited(doc, **fields):
    return {**doc, **fields}


MALFORMED_DOCUMENTS = {
    "resource-not-an-object": edited(SEPARABLE_DOC, resources=[0]),
    "utility-not-a-list": edited(SEPARABLE_DOC, utility=3),
    "compromise-not-a-list": edited(SEPARABLE_DOC, compromise=None),
    "table-not-a-list": edited(TABULATED_DOC, table=3),
    "table-entry-not-an-object": edited(TABULATED_DOC, table=[[0]]),
    "string-ids-in-table-subsets": edited(
        TABULATED_DOC,
        table=[{"subset": ["a"], "value": 1.0}, {"subset": [0], "value": 1.0}],
    ),
    "n-is-a-boolean": edited(
        SEPARABLE_DOC,
        n=True,
        resources=[{"id": 0, "curve": [0.0, 1.0]}],
        action_sets=[[[0]]],
        utility=["mc"],
        compromise=["normal"],
    ),
    "string-in-curve": edited(SEPARABLE_DOC, resources=[{"id": 0, "curve": [0.0, "1", 1.5]}]),
    "nan-in-curve": edited(
        SEPARABLE_DOC, resources=[{"id": 0, "curve": [0.0, 1.0, float("nan")]}]
    ),
    "infinity-in-curve": edited(
        SEPARABLE_DOC, resources=[{"id": 0, "curve": [0.0, float("inf"), float("inf")]}]
    ),
    "nan-in-table": edited(
        TABULATED_DOC,
        table=TABULATED_DOC["table"][:2] + [{"subset": [1], "value": float("nan")}],
    ),
    "infinity-in-table": edited(
        TABULATED_DOC,
        table=TABULATED_DOC["table"][:2] + [{"subset": [1], "value": float("inf")}],
    ),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_DOCUMENTS))
def test_malformed_document_exits_two_with_an_error(name, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(MALFORMED_DOCUMENTS[name]))
    code, _, err = run(capsys, "check", "--instance", str(path))
    assert code == 2
    assert err.startswith("error: ")


def test_well_formed_documents_pass(tmp_path, capsys):
    for doc in (SEPARABLE_DOC, TABULATED_DOC):
        path = tmp_path / "good.json"
        path.write_text(json.dumps(doc))
        code, _, _ = run(capsys, "check", "--instance", str(path))
        assert code == 0


class TestAnalysis:
    @pytest.fixture()
    def instance(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(al.serialize(al.gen_mc_blind(5, 2, 0.01)))
        return str(path)

    def test_pne_lists_equilibria(self, instance, tmp_path, capsys):
        report = tmp_path / "pne.json"
        code, out, _ = run(capsys, "pne", "--instance", instance, "--json", str(report))
        assert code == 0
        doc = json.loads(report.read_text())
        assert doc["count"] >= 1
        assert "pure Nash equilibria" in out

    def test_poa_report(self, instance, tmp_path, capsys):
        report = tmp_path / "poa.json"
        code, out, _ = run(capsys, "poa", "--instance", instance, "--json", str(report))
        assert code == 0
        doc = json.loads(report.read_text())
        assert doc["ratio"] == pytest.approx(1.01 / 3.01, abs=1e-12)
        assert doc["bound_satisfied"] is True

    def test_poa_with_an_overflowing_optimum_is_undefined(self, tmp_path, capsys):
        # the ratio inf / inf used to print nan and exit 4
        game = overflowing_pair()
        path = tmp_path / "overflow.json"
        path.write_text(al.serialize(game))
        code, out, _ = run(capsys, "poa", "--instance", str(path))
        assert code == 0
        assert out == (
            "optimal welfare:     inf\n"
            "equilibria found:    2\n"
            "anarchy ratio:       undefined (the optimum overflows)\n"
            "theoretical bound:   0.5\n"
            "bound satisfied:     -\n"
        )
        assert cli._chains_ok(game, al.instance_poa(game)) is None

    @pytest.mark.parametrize("command", ["poa", "pne"])
    def test_overflowing_values_are_written_as_strict_json(self, command, tmp_path, capsys):
        # an inf welfare used to be written as the bare token Infinity
        path = tmp_path / "overflow.json"
        path.write_text(al.serialize(overflowing_pair()))
        report = tmp_path / "report.json"
        run(capsys, command, "--instance", str(path), "--json", str(report))
        doc = strict_json(report.read_text())
        if command == "poa":
            assert doc["opt_welfare"] is None and doc["worst_ne_welfare"] is None
            assert doc["theoretical_bound"] == 0.5
        else:
            assert [e["welfare"] for e in doc["equilibria"]] == [None, None]

    def test_overflowing_witness_is_strict_json(self, tmp_path, capsys):
        path = tmp_path / "overflow.json"
        path.write_text(al.serialize(overflowing_pair()))
        code, out, _ = run(capsys, "check", "--instance", str(path))
        assert code == 2
        (line,) = [l for l in out.splitlines() if l.startswith("witness: ")]
        witness = strict_json(line[len("witness: "):])
        assert witness["margin_at_larger"] is None
        assert witness["margin_at_smaller"] == 1e308

    def test_size_cap_exit_code(self, tmp_path, capsys):
        # 3^12 profiles, past the walk's cap. The additive table's margin
        # spread settles it unwalked; W({0, 1}) = 2 + 5e-10 puts 12 times a
        # margin rise of 5e-10 in the spread, past the tolerance, so that
        # table needs the walk, which refuses
        for top in (2.0, 2.0 + 5e-10):
            table = {frozenset(s): float(len(s)) for s in ((), (0,), (1,))}
            table[frozenset({0, 1})] = top
            game = al.GameInstance(
                welfare=al.TabulatedWelfare.from_mapping(table, 2),
                action_sets=(({0}, {1}),) * 12,
                utilities=("mc",) * 12,
                compromise=("normal",) * 12,
            )
            path = tmp_path / "table12.json"
            path.write_text(al.serialize(game))
            code, out, err = run(capsys, "check", "--instance", str(path))
            if top == 2.0:
                assert (code, err) == (0, "")
                verdicts = [line.split()[-1] for line in out.splitlines()[1:]]
                assert verdicts == ["yes", "yes", "yes", "no"]
            else:
                assert (code, out) == (3, "")
                assert err == ("error: joint action space has 531441 profiles, "
                               "above the cap of 250000\n")

    @pytest.mark.parametrize("family, n, k", [("k_blind", 13, 1), ("sim", 10, 9)])
    def test_check_past_the_scans_caps(self, family, n, k, tmp_path, capsys):
        # k_blind n=13 has 1,062,882 profiles and sim n=10 6,144 distinct
        # selections, which the scans refuse; the curves settle both
        path = str(tmp_path / "g.json")
        gen = ("gen", "--family", family, "--n", str(n), "--k", str(k), "--out", path)
        assert run(capsys, *gen, "--eps", "0.05")[0] == 0
        code, out, err = run(capsys, "check", "--instance", path)
        assert (code, err) == (0, "")
        assert [line.split()[-1] for line in out.splitlines()[1:4]] == ["yes"] * 3

    @pytest.mark.parametrize("family", ["k_blind", "mc_blind"])
    @pytest.mark.parametrize("n", [20, 30, 40])
    def test_bounds_past_the_joint_space_cap_match_the_closed_forms(
        self, family, n, tmp_path, capsys
    ):
        # every game here has more than 10^7 joint actions, but the searches
        # visit a few dozen nodes; mc_blind keeps n - k small, since each of
        # the 2^(n-k) profiles of its normal agents is an equilibrium
        eps = delta = 0.01
        ks = [0, 1, 2, 3] if family == "k_blind" else [n - 3, n - 2, n - 1]
        report = tmp_path / "bounds.json"
        code, _, err = run(
            capsys, "bounds", "--family", family, "--n", str(n), "--k", f"{ks[0]}..{ks[-1]}",
            "--json", str(report),
        )
        assert (code, err) == (0, "")
        docs = json.loads(report.read_text())
        assert sorted({d["k"] for d in docs}) == ks
        for doc in docs:
            k = doc["k"]
            if family == "k_blind":
                closed = 1 / (1 + (n - k - 1) * (1 / n - delta) + k * (1 - eps))
            else:
                closed = (1 + eps) / (k + 1 + eps)
            assert abs(doc["report"]["ratio"] - closed) <= 1e-9, doc
            assert doc["chains_hold"] is True

    def test_bounds_sweep(self, capsys):
        code, out, _ = run(
            capsys, "bounds", "--family", "mc_blind", "--n", "5", "--k", "0..3",
            "--eps", "0.01",
        )
        assert code == 0
        assert "satisfied" in out
        assert "no" not in [cell.strip() for line in out.splitlines() for cell in line.split("  ")]

    @pytest.mark.parametrize("flag", ["--eps", "--delta"])
    def test_bounds_rejects_negative_parameters(self, flag, capsys):
        code, _, err = run(
            capsys, "bounds", "--family", "k_blind", "--n", "4", "--k", "1", flag, "-0.1"
        )
        assert code == 2
        assert "nonnegative" in err

    def test_bounds_rejects_a_reversed_k_range(self, capsys):
        code, out, err = run(capsys, "bounds", "--family", "k_blind", "--n", "4", "--k", "3..1")
        assert code == 2
        assert out == ""
        assert "empty k range" in err

    @pytest.mark.parametrize("spec", ["a", "1..", "..2", "1..2..3"])
    def test_bounds_names_a_malformed_k_spec(self, spec, capsys):
        # these used to exit with int()'s "invalid literal ... with base 10"
        code, out, err = run(capsys, "bounds", "--family", "k_blind", "--n", "4", "--k", spec)
        assert (code, out) == (2, "")
        assert err == (
            f"error: k spec {spec!r} is not an integer k or a range lo..hi of integers\n"
        )

    @pytest.mark.parametrize("command", [
        ("gen", "--family", "k_blind", "--n", str(10**30), "--k", "0"),
        ("bounds", "--family", "k_blind", "--n", str(10**30), "--k", "0"),
        ("bounds", "--family", "k_blind", "--n", "4", "--k", f"0..{10**30}"),
    ])
    def test_a_count_too_large_to_index_exits_two(self, command, capsys):
        # these used to end in an OverflowError traceback, exit 1
        code, out, err = run(capsys, *command)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("labels", [(), ("--labels", "disabled")])
    def test_a_k_range_past_n_is_refused_before_it_is_listed(self, labels, capsys):
        # the range used to be listed whole first, and a forced label walked
        # all of it: 0..10**12 ended in a MemoryError traceback, exit 1
        code, out, err = run(
            capsys, "bounds", "--family", "mc_blind", "--n", "4", "--k", f"0..{10**12}", *labels
        )
        assert (code, out, err) == (2, "", "error: need 0 <= k <= n\n")

    @pytest.mark.parametrize("command, message", [
        (("gen", "--family", "k_blind", "--n", "4", "--k", "5"), "need 0 <= k < n"),
        (("gen", "--family", "mc_noblind", "--n", "4", "--k", "5"),
         "need k >= 1 and n >= k + 2"),
        (("bounds", "--family", "mc_blind", "--n", "4", "--k", "3..5"), "need 0 <= k <= n"),
    ])
    def test_k_past_n_gets_the_familys_own_message(self, command, message, capsys):
        # a shared "k must not exceed n" used to come before the family's check
        code, out, err = run(capsys, *command)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("command", [
        ("gen", "--family", "k_blind", "--n", "4", "--k", "0"),
        ("bounds", "--family", "k_blind", "--n", "4", "--k", "0..1"),
    ])
    @pytest.mark.parametrize("flag, value", [("--eps", "nan"), ("--delta", "inf")])
    def test_non_finite_eps_or_delta_exits_two(self, command, flag, value, capsys):
        # k=0 never reads eps, so gen used to exit 0 with --eps nan
        code, out, err = run(capsys, *command, flag, value)
        assert (code, out, err) == (2, "", "error: eps and delta must be finite\n")

    def test_bounds_without_k_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bounds", "--family", "mc_blind", "--n", "5"])
        assert exc.value.code == 2
        assert "--k" in capsys.readouterr().err

    @pytest.mark.parametrize("labels", ["normal", "blind,normal"])
    def test_bounds_rejects_a_normal_label(self, labels, capsys):
        # a relabel to normal would leave nobody compromised while the row
        # still reads k
        code, out, err = run(
            capsys, "bounds", "--family", "k_blind", "--n", "4", "--k", "1..2",
            "--labels", labels,
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: bounds --labels") and "not normal" in err

    @pytest.mark.parametrize("k, labels, message", [
        ("1..3", "blind,isolated", "error: expected 1 labels, got 2\n"),
        ("2", "blind,isolated,blind", "error: expected 2 labels, got 3\n"),
    ])
    def test_bounds_rejects_a_label_list_of_another_length(self, k, labels, message, capsys):
        # the rows used to print k copies of the first label instead
        code, out, err = run(
            capsys, "bounds", "--family", "k_blind", "--n", "5", "--k", k, "--labels", labels,
        )
        assert (code, out, err) == (2, "", message)

    @pytest.mark.parametrize("labels", [",", "blind,", "isolated,,isolated"])
    def test_bounds_rejects_an_empty_label(self, labels, capsys):
        code, out, err = run(
            capsys, "bounds", "--family", "k_blind", "--n", "5", "--k", "2", "--labels", labels,
        )
        assert (code, out) == (2, "")
        assert err == f"error: label list {labels!r} has an empty item\n"

    def test_bounds_applies_one_label_to_every_k(self, capsys):
        code, out, _ = run(
            capsys, "bounds", "--family", "k_blind", "--n", "5", "--k", "1..3",
            "--labels", "isolated",
        )
        assert code == 0
        mixes = [line.split()[1] for line in out.splitlines()[2:]]
        assert mixes == ["isolated", "isolated,isolated", "isolated,isolated,isolated"]

    def test_bounds_mc_noblind_rejects_a_blind_label(self, tmp_path, capsys):
        # the row used to read blind while the game analysed was all-isolated
        report = tmp_path / "bounds.json"
        code, out, err = run(
            capsys, "bounds", "--family", "mc_noblind", "--n", "5", "--k", "1",
            "--labels", "blind", "--json", str(report),
        )
        assert (code, out, err) == (2, "", "error: this family takes isolated labels only\n")
        assert not report.exists()

    def test_bounds_mc_noblind_relabels_to_disabled(self, capsys):
        code, out, _ = run(
            capsys, "bounds", "--family", "mc_noblind", "--n", "5", "--k", "1..2",
            "--labels", "disabled",
        )
        assert code == 0
        rows = [line.split() for line in out.splitlines()[2:]]
        assert [row[1] for row in rows] == ["disabled", "disabled,disabled"]
        assert [row[3] for row in rows] == ["0", "0"]  # the bound with a disabled agent

    def test_gen_still_takes_normal_labels(self, tmp_path, capsys):
        out = tmp_path / "fig1.json"
        code, _, _ = run(
            capsys, "gen", "--family", "fig1", "--labels", "normal,blind,isolated",
            "--out", str(out),
        )
        assert code == 0
        game = al.parse(out.read_text())
        assert [c.value for c in game.compromise] == ["normal"] * 3 + ["blind", "isolated"]

    def test_bounds_hub_family_all_rows_satisfied(self, capsys):
        code, out, _ = run(
            capsys, "bounds", "--family", "k_blind", "--n", "6", "--k", "0..4",
            "--eps", "0.001", "--delta", "0.001",
        )
        assert code == 0


def finite(x):
    """``x`` with every non-finite float, at any depth, replaced by None."""
    if isinstance(x, float):
        return x if math.isfinite(x) else None
    if isinstance(x, dict):
        return {k: finite(v) for k, v in x.items()}
    return [finite(v) for v in x] if isinstance(x, (list, tuple)) else x


def reference_json(x, pad=""):
    """What json's own encoder writes for ``cli._json(x, pad)``: the oracle
    for the one-pass writer."""
    if pad is None:
        return json.dumps(finite(x), allow_nan=False)
    return json.dumps(finite(x), allow_nan=False, indent=2).replace("\n", "\n" + pad)


def report_runs(tmp_path):
    """Commands writing every kind of JSON document, the overflow game's
    among them (its welfare is written as null)."""
    paths = {}
    for name, game in [
        ("k_blind", al.gen_k_blind(5, 2, 0.01, 0.01)),
        ("mc_blind", al.gen_mc_blind(5, 2, 0.01, labels=["blind", "isolated"])),
        ("coverage", coverage_game(3, 3)),
        ("overflow", overflowing_pair()),
    ]:
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(al.serialize(game))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 3, "k": 1, "labels": ["blind"], "value_grid": [0.5, 1],
                               "budget": 20, "seed": 2}))
    runs = [[cmd, "--instance", str(path), "--json", str(tmp_path / f"{cmd}-{name}.out")]
            for cmd in ("poa", "pne") for name, path in paths.items()]
    runs += [["bounds", "--family", family, "--n", "5", "--k", "0..2", "--json",
              str(tmp_path / f"bounds-{family}.out")] for family in ("k_blind", "mc_blind")]
    runs.append(["bounds", "--family", "mc_blind", "--n", "4", "--k", "1..2", "--labels",
                 "disabled", "--json", str(tmp_path / "bounds-disabled.out")])
    runs.append(["search", "--config", str(cfg), "--report", str(tmp_path / "search.out"),
                 "--out", str(tmp_path / "search-game.json")])
    runs.append(["check", "--instance", str(paths["overflow"])])
    return runs


class TestJsonWriter:
    def test_reports_match_the_json_encoder_byte_for_byte(self, tmp_path, capsys, monkeypatch):
        calls = []
        write = cli._json

        def spy(x, pad=""):
            text = write(x, pad)
            calls.append((x, pad, text))
            return text

        # the writer's recursive calls go through the spy too
        monkeypatch.setattr(cli, "_json", spy)
        for argv in report_runs(tmp_path):
            main(argv)
        capsys.readouterr()
        assert {pad for _, pad, _ in calls} >= {None, "", "  ", "    ", "      "}
        for x, pad, text in calls:
            assert text == reference_json(x, pad)
        outputs = sorted(tmp_path.glob("*.out"))
        assert len(outputs) == 12
        overflow = json.loads((tmp_path / "poa-overflow.out").read_text())
        assert overflow["opt_welfare"] is None
        for path in outputs:
            text = path.read_text()
            assert text == json.dumps(strict_json(text), indent=2) + "\n"
        game_doc = (tmp_path / "search-game.json").read_text()
        assert game_doc == reference_serialize(al.parse(game_doc))

    def test_witness_line_matches_the_json_encoder(self, tmp_path, capsys):
        game = overflowing_pair()
        path = tmp_path / "overflow.json"
        path.write_text(al.serialize(game))
        out = run(capsys, "check", "--instance", str(path))[1]
        witness = al.check_vug(game).welfare.failure.witness
        expected = json.dumps(finite(witness), allow_nan=False, sort_keys=True)
        assert f"witness: {expected}\n" in out

    def test_strings_are_ascii_escaped(self):
        doc = {"caf\u00e9": ["\u2028", "\U0001f600", "tab\t\"quote\"\\", ""]}
        text = cli._json(doc)
        assert text.isascii() and "\\ud83d\\ude00" in text
        assert text == json.dumps(doc, indent=2)

    @pytest.mark.parametrize("key", [1, 1.5, None, True, (0,)])
    def test_a_key_that_is_not_a_string_is_refused(self, key):
        # json would write 1, 1.5, null and true as strings and refuse the
        # tuple; the writer refuses them all, at any depth
        for doc in ({key: 0}, [{"a": {key: [1.0]}}]):
            for pad in ("", None):
                with pytest.raises(TypeError):
                    cli._json(doc, pad)


JSON_TREES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.just(10**100)
    | st.floats()
    | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.tuples(inner, inner)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(JSON_TREES, st.sampled_from(["", None]))
def test_json_writer_matches_the_json_encoder(x, pad):
    assert cli._json(x, pad) == reference_json(x, pad)


class TestSearch:
    def test_search_writes_worst_instance(self, tmp_path, capsys):
        config = {
            "n": 3,
            "k": 1,
            "labels": ["blind"],
            "utility_class": "mc",
            "value_grid": [0.5, 1.0, 1.01],
            "budget": 80,
            "seed": 4,
        }
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "worst.json"
        rep = tmp_path / "rep.json"
        code, stdout, _ = run(
            capsys, "search", "--config", str(cfg), "--out", str(out), "--report", str(rep)
        )
        assert code == 0
        game = al.parse(out.read_text())
        doc = json.loads(rep.read_text())
        assert doc["ratio"] >= doc["theoretical_bound"] - 1e-9
        assert al.instance_poa(game).ratio == pytest.approx(doc["ratio"], abs=1e-12)


    @pytest.mark.parametrize(
        "config",
        [
            {"k": 1},
            [1],
            {"n": "x", "value_grid": [1]},
            {"n": True, "value_grid": [1]},
            {"n": 3, "value_grid": []},
            {"n": 3, "value_grid": [1.0, None]},
            {"n": 3, "value_grid": [1.0], "budget": 0},
            {"n": 3, "value_grid": [1.0], "labels": "blind"},
            # a normal label used to run with nobody compromised, exit 0
            {"n": 3, "k": 1, "labels": ["normal"], "value_grid": [1.0], "budget": 5},
            {"n": 3, "k": 2, "labels": ["blind"], "value_grid": [1.0], "budget": 5},
        ],
        ids=[
            "lacks-n", "not-an-object", "string-n", "boolean-n", "empty-grid",
            "null-in-grid", "zero-budget", "labels-not-a-list", "normal-label",
            "too-few-labels",
        ],
    )
    def test_bad_config_exits_two_with_an_error(self, tmp_path, capsys, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code, _, err = run(capsys, "search", "--config", str(cfg))
        assert code == 2
        assert err.startswith("error: search config")

    def test_no_defined_ratio_exits_two_with_an_error(self, tmp_path, capsys):
        # all-zero values give a zero optimum, so no candidate has a ratio
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 2, "value_grid": [0], "budget": 3}))
        code, out, err = run(capsys, "search", "--config", str(cfg))
        assert code == 2
        assert err.startswith("error: no sampled candidate produced a defined ratio")
        assert out == ""

    def test_a_count_too_large_to_index_exits_two(self, tmp_path, capsys):
        # this used to end in an OverflowError traceback, exit 1
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 10**30, "value_grid": [1], "budget": 2}))
        code, out, err = run(capsys, "search", "--config", str(cfg))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_a_huge_n_exits_two_before_allocating(self, tmp_path):
        # one action set per agent: n = 10^9 used to end in a MemoryError
        # traceback, exit 1
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 10**9, "value_grid": [1], "budget": 1}))
        code, out, err = run_limited(tmp_path, "search", "--config", str(cfg))
        assert (code, out) == (2, "")
        assert err.startswith("error: search config: ") and "MAX_AGENTS = 2000" in err

    def test_a_deeply_nested_config_exits_two(self, tmp_path, capsys):
        # json.load's RecursionError used to end in a traceback, exit 1
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[" * 100_000)
        code, out, err = run(capsys, "search", "--config", str(cfg))
        assert (code, out) == (2, "")
        assert err.startswith("error: search config: not valid JSON: ")

    @pytest.mark.parametrize("key", ["max_resources", "max_actions"])
    def test_draw_limits_past_the_maximum_exit_two(self, tmp_path, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 3, "value_grid": [1], "budget": 2, key: 10**30}))
        code, out, err = run_limited(tmp_path, "search", "--config", str(cfg))
        assert (code, out) == (2, "")
        assert err.startswith("error: search config: max_resources must be at most MAX_RESOURCES")

    def test_samples_past_ten_million_profiles_are_analysed(self, tmp_path, capsys):
        # 645 million to 4.9 billion profiles each, with 9,591 to 104,976
        # equilibria: all three used to be skipped for size, exit 2
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "n": 24, "k": 1, "labels": ["blind"], "value_grid": [0.5, 1, 2], "budget": 3, "seed": 1,
        }))
        code, out, _ = run(capsys, "search", "--config", str(cfg))
        assert code == 0
        assert "worst ratio found:   1.0\n" in out

    def test_overflowing_candidates_are_skipped(self, tmp_path, capsys):
        # a NaN worst ratio used to be reported as a violated bound, exit 4
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"n": 2, "value_grid": [1e308, 1e308], "budget": 5, "max_resources": 3}
        ))
        code, out, _ = run(capsys, "search", "--config", str(cfg))
        assert code == 0
        assert "worst ratio found:   1.0\n" in out


class TestLll:
    def test_csv_deterministic_across_runs(self, tmp_path, capsys):
        inst = tmp_path / "sim.json"
        inst.write_text(al.serialize(al.gen_sim_game(5, 4, 0.05)))
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        for out in (out1, out2):
            code, _, _ = run(
                capsys, "lll", "--instance", str(inst), "--temps", "0.001,1.0",
                "--steps", "1000", "--trials", "2", "--seed", "7", "--out", str(out),
            )
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_log_spaced_temperature_grid(self, tmp_path, capsys):
        inst = tmp_path / "sim.json"
        inst.write_text(al.serialize(al.gen_sim_game(5, 4, 0.05)))
        out = tmp_path / "sweep.csv"
        code, _, _ = run(
            capsys, "lll", "--instance", str(inst), "--temps", "0.001:10:5(log)",
            "--steps", "500", "--trials", "1", "--seed", "1", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        temps = [float(line.split(",")[0]) for line in lines[1:]]
        assert len(temps) == 5
        assert temps[0] == pytest.approx(0.001)
        assert temps[-1] == pytest.approx(10.0)
        ratios = [temps[i + 1] / temps[i] for i in range(4)]
        assert max(ratios) == pytest.approx(min(ratios), rel=1e-9)

    def test_worst_ne_start(self, tmp_path, capsys):
        # the start is the first worst equilibrium of the listing of them all
        inst, csv = tmp_path / "g.json", tmp_path / "sweep.csv"
        for game in (
            al.gen_sim_game(5, 4, 0.05),
            al.gen_mc_blind(8, 2, 0.01),  # tied worst equilibria
            al.gen_random_separable(
                5, 3, 3, k=2, labels=(al.Compromise.BLIND, al.Compromise.ISOLATED), seed=4
            ),
            coverage_game(5, 4, [al.Compromise.BLIND, al.Compromise.ISOLATED]),
        ):
            inst.write_text(al.serialize(game))
            code, _, _ = run(
                capsys, "lll", "--instance", str(inst), "--temps", "0.0005,1", "--steps", "300",
                "--trials", "2", "--seed", "2", "--init", "worst-ne", "--out", str(csv),
            )
            assert code == 0
            a0 = al.enumerate_pne(game).worst()[1]
            sweep = al.temperature_sweep(game, [0.0005, 1.0], steps=300, trials=2, seed=2, a0=a0)
            assert csv.read_text() == sweep.to_csv()

    def test_worst_ne_start_without_an_equilibrium_exits_two(self, tmp_path, capsys, monkeypatch):
        # the game classes here always have an equilibrium, so the empty set
        # comes from a stand-in search that visits no equilibrium
        inst = tmp_path / "sim.json"
        inst.write_text(al.serialize(al.gen_sim_game(5, 4, 0.05)))
        monkeypatch.setattr(equilibrium, "_search", lambda game, classes, cap, visit: (0, 0))
        code, out, err = run(
            capsys, "lll", "--instance", str(inst), "--temps", "0.1", "--init", "worst-ne",
        )
        assert (code, out, err) == (2, "", "no equilibrium to start from\n")

    def test_a_grid_past_the_most_temperatures_exits_two(self, tmp_path, capsys, monkeypatch):
        inst = tmp_path / "sim.json"
        inst.write_text(al.serialize(al.gen_sim_game(3, 2, 0.05)))
        argv = ("lll", "--instance", str(inst), "--steps", "1", "--temps")
        message = "error: temperature grid '0.1:1:{}' needs a count from 1 to MAX_TEMPERATURES = {}\n"
        code, out, err = run_limited(tmp_path, *argv, f"0.1:1:{10**30}")
        assert (code, out, err) == (2, "", message.format(10**30, 10_000))
        monkeypatch.setattr(cli, "MAX_TEMPERATURES", 3)
        assert run(capsys, *argv, "0.1:1:3")[0] == 0
        assert run(capsys, *argv, "0.1:1:4") == (2, "", message.format(4, 3))

    @pytest.mark.parametrize("option, cap", [("--steps", "MAX_STEPS"), ("--trials", "MAX_TRIALS")])
    def test_a_count_past_its_cap_exits_two_before_any_step(
        self, tmp_path, capsys, monkeypatch, option, cap
    ):
        inst = tmp_path / "mc.json"
        inst.write_text(al.serialize(al.gen_mc_blind(3, 1, 0.01)))
        argv = ("lll", "--instance", str(inst), "--temps", "0.1", "--steps", "1", option)
        message = f"error: {option} {{}} is past {cap} = {{}}\n"
        limit = getattr(cli, cap)
        code, out, err = run_limited(tmp_path, *argv, str(10**30))
        assert (code, out, err) == (2, "", message.format(10**30, limit))

        def no_run(*args, **kwargs):
            raise AssertionError("a run started")

        monkeypatch.setattr(al.learning, "_play", no_run)
        assert run(capsys, *argv, str(10**30)) == (2, "", message.format(10**30, limit))
        assert run(capsys, *argv, str(limit + 1)) == (2, "", message.format(limit + 1, limit))
        monkeypatch.undo()
        monkeypatch.setattr(cli, cap, 2)
        assert run(capsys, *argv, "2")[0] == 0
        assert run(capsys, *argv, "3") == (2, "", message.format(3, 2))

    @pytest.mark.parametrize(
        "temps", ["nan", "inf", "0.1,nan", "1:0.1:0", "1:0.1:-2", "nan:1:3(lin)"]
    )
    def test_bad_temperatures_exit_two_with_an_error(self, tmp_path, capsys, temps):
        inst = tmp_path / "sim.json"
        inst.write_text(al.serialize(al.gen_sim_game(5, 4, 0.05)))
        code, out, err = run(
            capsys, "lll", "--instance", str(inst), "--temps", temps, "--steps", "10",
        )
        assert code == 2
        assert err.startswith("error: temperature")
        assert out == ""

    @pytest.mark.parametrize(
        "temps, message",
        [
            ("0.1,,0.2", "has an empty item"),
            ("0.1,", "has an empty item"),
            ("0.1:inf:3", "has a non-finite stop inf"),
            ("inf:1:3(lin)", "has a non-finite start inf"),
            ("1:2", "grid '1:2' is not start:stop:count"),
            ("0.1:1:2:3", "grid '0.1:1:2:3' is not start:stop:count"),
            ("1:2:3.5", "grid '1:2:3.5' is not start:stop:count"),
            ("abc", "list 'abc' has an item that is not a number (give numbers "
             "separated by commas, or a start:stop:count grid)"),
        ],
    )
    def test_empty_items_and_infinite_grid_ends_exit_two(self, tmp_path, capsys, temps, message):
        inst = tmp_path / "sim.json"
        inst.write_text(al.serialize(al.gen_sim_game(5, 4, 0.05)))
        code, out, err = run(
            capsys, "lll", "--instance", str(inst), "--temps", temps, "--steps", "10",
        )
        assert code == 2
        assert err.startswith("error: temperature")
        assert message in err
        assert out == ""

    @pytest.mark.parametrize("where", ["mid-run", "first step"])
    def test_a_missing_table_entry_exits_two_where_the_reference_raises(
        self, tmp_path, capsys, where
    ):
        # the sim game's welfare as a table with holes: the sets of seven to
        # ten resources are met only mid-run, a missing single resource
        # already in the first distribution read
        game = sim_table_twin()
        m = game.num_resources
        table = table_by_set(game.welfare)
        for s in list(table):
            if (6 < len(s) < m) if where == "mid-run" else len(s) == 1:
                del table[s]
        game = dataclasses.replace(game, welfare=al.TabulatedWelfare.from_mapping(table, m))
        inst = tmp_path / "holed.json"
        inst.write_text(al.serialize(game))
        walk = reference_walk(game, al.sub_seed(5, 0, 0), softmax_choice(game, 1.0))
        done = 0
        with pytest.raises(al.ModelIncompleteError) as want:
            for _ in itertools.islice(walk, 2000):
                done += 1
        assert (done > 10) if where == "mid-run" else done == 0
        argv = ("lll", "--instance", str(inst), "--temps", "1", "--steps", "2000",
                "--trials", "2", "--seed", "5")
        assert run(capsys, *argv) == (2, "", f"error: {want.value}\n")

    def test_workers_option_is_gone(self, tmp_path, capsys):
        inst = tmp_path / "sim.json"
        inst.write_text(al.serialize(al.gen_sim_game(5, 4, 0.05)))
        with pytest.raises(SystemExit) as exc:
            main(["lll", "--instance", str(inst), "--temps", "0.1", "--workers", "2"])
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err

    def test_all_disabled_game_exits_two(self, tmp_path, capsys):
        inst = tmp_path / "off.json"
        inst.write_text(al.serialize(al.GameInstance(
            welfare=al.SeparableWelfare(curves=((0.0, 1.0, 1.0),)),
            action_sets=((frozenset({0}),), (frozenset({0}),)),
            utilities=(al.Utility.MARGINAL_CONTRIBUTION,) * 2,
            compromise=(al.Compromise.DISABLED,) * 2,
        )))
        code, _, err = run(
            capsys, "lll", "--instance", str(inst), "--temps", "0.1", "--steps", "10",
        )
        assert code == 2
        assert "disabled" in err
