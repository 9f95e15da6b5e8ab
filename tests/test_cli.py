from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fairaudit import explain, fairness, make_decision, model, parse_dimacs, search
from fairaudit.cli import main

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"


def fixture(name: str) -> str:
    return str(FIXTURES / f"{name}.json")


def graph(name: str) -> str:
    return str(FIXTURES / "graphs" / f"{name}.json")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert err == ""
    return code, json.loads(out)


class TestAudit:
    def test_adopt_fails_universal_with_protected_witness(self, capsys):
        code, report = run_json(
            capsys, "audit", fixture("adopt"), "--notion", "universal"
        )
        assert code == 1
        assert report["verdicts"]["universal"] is False
        assert report["verdicts"]["existential"] is True
        witness = report["witnesses"]["universal"]
        assert witness["unfair_explanation"]["features"] == ["s"]
        assert witness["instance"] == {"s1": False, "s2": False, "s": False}

    def test_adopt2_is_universally_fair(self, capsys):
        code, report = run_json(
            capsys, "audit", fixture("adopt2"), "--notion", "universal"
        )
        assert code == 0
        assert report["verdicts"]["fair"] is True
        for notion in ("ftu", "existential", "universal"):
            assert notion not in report["witnesses"]

    def test_empty_space_is_vacuously_fair_with_warning(self, capsys):
        code, report = run_json(capsys, "audit", fixture("empty-space"))
        assert code == 0
        assert report["space"]["size_constrained"] == 0
        assert any("empty constrained space" in w for w in report["warnings"])

    def test_notion_selects_the_headline(self, capsys):
        code_ftu, _ = run_json(
            capsys, "audit", fixture("xor_link"), "--notion", "ftu"
        )
        code_exist, _ = run_json(
            capsys, "audit", fixture("xor_link"), "--notion", "existential"
        )
        assert code_ftu == 0
        assert code_exist == 1

    def test_search_engine_matches_exhaustive(self, capsys, fixtures_dir):
        paths = sorted(fixtures_dir.glob("*.json"))
        assert len(paths) >= 18
        for path in paths:
            a, ra = run_json(capsys, "audit", str(path), "--engine", "search")
            b, rb = run_json(capsys, "audit", str(path), "--engine", "exhaustive")
            assert a == b, path.name
            assert ra["verdicts"] == rb["verdicts"], path.name

    def test_per_decision_listing(self, capsys, load_model, fixtures_dir):
        code, report = run_json(
            capsys, "audit", fixture("mirrored_features"), "--per-decision"
        )
        assert code == 0
        statuses = {d["status"] for d in report["per_decision"]}
        assert statuses == {"EXISTENTIALLY_FAIR_ONLY"}
        assert len(report["per_decision"]) == 2
        # every fixture's listing is each decision's own verdict, also past
        # an unfair decision
        early_exits = 0
        for path in sorted(fixtures_dir.glob("*.json")):
            loaded = load_model(path.stem)
            cs, k = loaded.constrained(), loaded.classifier
            names = loaded.space.names

            def pi(e, x):
                if e is None:
                    return None
                return {
                    "features": [names[i] for i in e.features],
                    "assignment": {names[i]: x[i] for i in e.features},
                    "fair": e.fair,
                    "coverage": e.coverage_size,
                }

            expected = []
            for x in cs.instances:
                dv = fairness.decision_verdict(cs, make_decision(cs, k, x))
                expected.append(
                    {
                        "instance": dict(zip(names, x)),
                        "label": dv.decision.label,
                        "status": dv.status.value,
                        "fair_pi": pi(dv.fair_pi, x),
                        "unfair_pi": pi(dv.unfair_pi, x),
                    }
                )
            _, report = run_json(
                capsys, "audit", str(path), "--notion", "universal", "--per-decision"
            )
            assert report["per_decision"] == expected, path.name
            early_exits += any(e["status"] == "UNFAIR" for e in expected[:-1])
        assert early_exits >= 5

    def test_reports_are_byte_identical(self, capsys):
        _, first, _ = run(capsys, "audit", fixture("work_from_home"))
        _, second, _ = run(capsys, "audit", fixture("work_from_home"))
        assert first == second

    def test_timing_flag_populates_timing_ms(self, capsys):
        _, plain = run_json(capsys, "audit", fixture("adopt"))
        assert plain["timing_ms"] is None
        _, timed = run_json(capsys, "audit", fixture("adopt"), "--timing")
        assert isinstance(timed["timing_ms"], float)

    def test_ignore_constraints_equals_stripped_document(self, capsys, tmp_path):
        doc = json.loads(Path(fixture("bonus_goals")).read_text())
        doc["constraints"] = []
        stripped = tmp_path / "stripped.json"
        stripped.write_text(json.dumps(doc))
        code_a, report_a = run_json(
            capsys, "audit", fixture("bonus_goals"), "--ignore-constraints"
        )
        code_b, report_b = run_json(capsys, "audit", str(stripped))
        assert code_a == code_b
        assert report_a == report_b

    def test_text_format(self, capsys):
        code, out, err = run(
            capsys, "audit", fixture("bonus_goals"), "--format", "text",
            "--notion", "universal",
        )
        assert code == 0
        assert "headline [universal]: FAIR" in out
        assert "scope profile: ONLY_P" in out

    def test_missing_file_is_exit_2(self, capsys):
        code, out, err = run(capsys, "audit", str(FIXTURES / "nope.json"))
        assert code == 2
        assert "error:" in err
        assert "internal error" not in err


class TestOneAxpSearchPerDecision:
    """An audit asks the prime recursion once per label, seeded with the
    decisions of that label; explain asks it once, seeded with the one
    decision. With --per-decision the listing's recursion over every
    decision is the only one: on a model that fails FTU, the verdict
    filters its primes to the decisions up to the FTU witness."""

    @pytest.mark.parametrize("name", ["adopt2", "bonus_goals", "training_course"])
    def test_audit_of_a_fair_model(self, capsys, load_model, recursion_seeds, name):
        code, _ = run_json(capsys, "audit", fixture(name), "--notion", "universal")
        assert code == 0
        loaded = load_model(name)
        cs = loaded.constrained()
        assert recursion_seeds == list(cs.label_masks(loaded.classifier).values())

    def test_explain(self, capsys, load_model, recursion_seeds):
        _, report = run_json(capsys, "explain", fixture("spouses"), "--instance", "1,1")
        assert report["axps"] and report["pi_explanations"]
        cs = load_model("spouses").constrained()
        assert recursion_seeds == [1 << cs.rank((True, 1))]

    @pytest.mark.parametrize(
        "name", ["adopt2", "adopt", "work_from_home", "xor_link", "parental_leave"]
    )
    def test_audit_per_decision(self, capsys, load_model, recursion_seeds, name):
        # fair, universally unfair, and unfair with an early exit
        run_json(capsys, "audit", fixture(name), "--per-decision")
        loaded = load_model(name)
        cs, k = loaded.constrained(), loaded.classifier
        assert recursion_seeds == list(cs.label_masks(k).values())

    @pytest.mark.parametrize(
        "name", ["adopt2", "adopt", "work_from_home", "xor_link", "parental_leave"]
    )
    def test_check_disentangled_seeds_as_audit_does(self, capsys, recursion_seeds, name):
        run_json(capsys, "audit", fixture(name))
        audit = list(recursion_seeds)
        recursion_seeds.clear()
        run_json(capsys, "check", fixture(name), "--what", "disentangled")
        assert recursion_seeds == audit


class TestExplain:
    def test_dense_space_is_never_enumerated(self, capsys, monkeypatch, tmp_path):
        # 16 boolean features, every 4th protected, three clauses: |F[C]|
        # is 27/64 of |F|, and one decision needs none of its instances
        names = [f"f{i}" for i in range(16)]
        path = tmp_path / "loose-16.json"
        path.write_text(json.dumps({
            "features": [
                {"name": f, "domain": [False, True], "protected": i % 4 == 0}
                for i, f in enumerate(names)
            ],
            "constraints": ["(or f5 (not f9))", "(or f6 f13)", "(or (not f10) f14)"],
            "classifier": {
                "form": "expression",
                "expr": "(or (and f1 f2 (not f3)) (and f0 f6) (and f10 (not f13) f15))",
            },
        }))
        argv = ["explain", str(path), "--instance", ",".join("1101" * 4)]
        want = run(capsys, *argv)

        def refuse(self, mask):
            raise AssertionError("F[C] enumerated")

        monkeypatch.setattr(model.ConstrainedSpace, "instances_of_mask", refuse)
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == want and code in (0, 1)
        assert json.loads(out)["space"]["size_constrained"] == 27 << 10

    def test_adoption_decision_unfair_under_constraints(self, capsys):
        code, report = run_json(
            capsys, "explain", fixture("adoption_same_race"), "--instance", "1,1,1"
        )
        assert code == 1
        assert [e["features"] for e in report["pi_explanations"]] == [["s"]]
        assert report["verdict"]["status"] == "UNFAIR"

    def test_adoption_decision_fair_when_ignoring_constraints(self, capsys):
        code, report = run_json(
            capsys,
            "explain",
            fixture("adoption_same_race"),
            "--instance",
            "1,1,1",
            "--ignore-constraints",
        )
        assert code == 0
        assert [e["features"] for e in report["pi_explanations"]] == [["s1", "s2"]]
        assert report["pi_explanations"][0]["fair"] is True

    def test_spouses_decision_lists_both_reasons(self, capsys):
        code, report = run_json(
            capsys, "explain", fixture("spouses"), "--instance", "1,1"
        )
        assert code == 0
        assert report["verdict"]["status"] == "EXISTENTIALLY_FAIR_ONLY"
        assert [e["features"] for e in report["pi_explanations"]] == [["m"], ["n"]]
        fair_flags = {tuple(e["features"]): e["fair"] for e in report["pi_explanations"]}
        assert fair_flags == {("m",): False, ("n",): True}

    @pytest.mark.parametrize("raw", ["1_0", "\u0662"])
    def test_instance_integers_are_ascii_digits(self, capsys, raw):
        # int() reads "1_0" as 10 and the Arabic-Indic digit two as 2
        code, out, err = run(
            capsys, "explain", fixture("spouses"), "--instance", f"1,{raw}"
        )
        assert code == 2 and out == ""
        assert err.startswith("error: ") and repr(raw) in err
        signed = run(capsys, "explain", fixture("spouses"), "--instance", "1,+1")
        assert signed == run(capsys, "explain", fixture("spouses"), "--instance", "1,1")
        assert signed[0] == 0

    def test_instance_outside_the_space_names_the_constraint(self, capsys):
        code, out, err = run(
            capsys, "explain", fixture("training_course"), "--instance", "0,1"
        )
        assert code == 2
        assert "(implies m e)" in err
        assert "internal error" not in err

    def test_axps_listed_alongside(self, capsys):
        code, report = run_json(
            capsys, "explain", fixture("work_from_home"), "--instance", "1,1,1,1"
        )
        assert code == 1
        assert [e["features"] for e in report["axps"]] == [["f", "p"], ["p", "b", "a"]]
        assert [e["features"] for e in report["pi_explanations"]] == [["f", "p"]]


class TestCheck:
    def test_loose_violation_exits_1(self, capsys):
        code, report = run_json(
            capsys, "check", fixture("work_from_home"), "--what", "loose"
        )
        assert code == 1
        assert report["result"] is False
        assert report["witnesses"]["loose"]["protected_feature"] == "f"

    def test_disentangled_clean_model_exits_0(self, capsys):
        code, report = run_json(
            capsys, "check", fixture("training_course"), "--what", "disentangled"
        )
        assert code == 0
        assert report["result"] is True

    def test_scope_prints_the_profile(self, capsys):
        code, report = run_json(
            capsys, "check", fixture("pregnancy_bonus"), "--what", "scope"
        )
        assert code == 0
        assert report["result"] == "ONLY_P"

    def test_decomposable(self, capsys):
        code, report = run_json(
            capsys, "check", fixture("mirrored_features"), "--what", "decomposable"
        )
        assert code == 1
        assert report["result"] is False


class TestExportCnf:
    def test_constrained_xor_link_is_unsat(self, capsys, tmp_path):
        out_file = tmp_path / "q.cnf"
        code, out, _ = run(capsys, "export-cnf", fixture("xor_link"), str(out_file))
        assert code == 0
        formula = parse_dimacs(out_file.read_text())
        assert not search(formula).satisfiable
        assert "x.a" in out  # legend printed

    def test_stripped_bonus_model_is_sat(self, capsys, tmp_path):
        out_file = tmp_path / "q.cnf"
        code, *_ = run(
            capsys,
            "export-cnf",
            fixture("bonus_goals"),
            str(out_file),
            "--ignore-constraints",
        )
        assert code == 0
        assert search(parse_dimacs(out_file.read_text())).satisfiable

    def test_multivalued_feature_exports_exactly_one(self, capsys, tmp_path):
        out_file = tmp_path / "q.cnf"
        run(capsys, "export-cnf", fixture("spouses"), str(out_file))
        formula = parse_dimacs(out_file.read_text())
        onehot = sorted(
            v for v, n in formula.comment_map.items() if n.startswith("x.n=")
        )
        assert tuple(onehot) in formula.clauses
        assert (-onehot[0], -onehot[1]) in formula.clauses

    def test_boolean_feature_with_the_one_value_false(self, capsys, tmp_path):
        # a one-value boolean is one-hot encoded; reading it as true needs
        # the literal of a value off its domain
        doc = tmp_path / "only_false.json"
        doc.write_text(
            json.dumps(
                {
                    "features": [
                        {"name": "a", "domain": [False], "protected": False},
                        {"name": "b", "domain": [False, True], "protected": False},
                        {"name": "s", "domain": [False, True], "protected": True},
                    ],
                    "constraints": [],
                    "classifier": {"form": "expression", "expr": "(and a b)"},
                }
            )
        )
        searched = run(capsys, "audit", str(doc), "--engine", "search")
        assert searched == run(capsys, "audit", str(doc), "--engine", "exhaustive")
        assert searched[0] == 0 and searched[2] == ""
        code, _, err = run(capsys, "export-cnf", str(doc), str(tmp_path / "q.cnf"))
        assert code == 0 and err == ""

    @pytest.mark.parametrize("target", ["missing/q.cnf", "."])
    def test_unwritable_output_is_a_user_error(self, capsys, tmp_path, target):
        code, out, err = run(capsys, "export-cnf", fixture("spouses"), str(tmp_path / target))
        assert code == 2 and out == ""
        assert err.startswith("error: cannot write ")
        assert "internal error" not in err


class TestFtci:
    def test_maternity_leave_newly_protected(self, capsys):
        code, report = run_json(
            capsys, "ftci", fixture("ftci_leave"), graph("maternity")
        )
        assert report["ftci"]["newly_protected"] == ["maternity_leave"]
        assert code == 1  # the classifier leans on maternity_leave

    def test_empty_graph_report_equals_audit(self, capsys):
        _, audit_out, _ = run(capsys, "audit", fixture("adopt"))
        _, ftci_out, _ = run(capsys, "ftci", fixture("adopt"), graph("empty"))
        assert audit_out == ftci_out

    def test_race_chain_flips_the_verdict(self, capsys):
        code_before, before = run_json(capsys, "audit", fixture("adoption_race"))
        assert code_before == 0
        code_after, after = run_json(
            capsys, "ftci", fixture("adoption_race"), graph("race_chain")
        )
        assert code_after == 1
        assert after["ftci"]["newly_protected"] == ["s"]
        assert after["verdicts"]["existential"] is False

    def test_unknown_vertex_is_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"vertices": ["gender"], "edges": []}))
        code, out, err = run(capsys, "ftci", fixture("ftci_leave"), str(bad))
        assert code == 2
        assert "not a vertex" in err
        assert "internal error" not in err


class TestSnapshots:
    def test_fixture_reports_match_snapshots(self, capsys, fixtures_dir):
        # refresh with scripts/audit_all_fixtures.py --write
        checked = 0
        for path in sorted(fixtures_dir.glob("*.json")):
            snap = fixtures_dir / "snapshots" / f"{path.stem}.audit.json"
            assert snap.exists(), f"missing snapshot for {path.name}"
            code, out, err = run(
                capsys, "audit", str(path), "--notion", "existential"
            )
            assert code in (0, 1)
            assert out == snap.read_text(), f"report drifted for {path.name}"
            checked += 1
        assert checked >= 12


class TestExitCodes:
    @pytest.mark.parametrize(
        "argv",
        [
            ("audit", "adopt"),
            ("audit", "adopt2", "--notion", "universal"),
            ("explain", "spouses", "--instance", "1,1"),
            ("check", "work_from_home", "--what", "loose"),
            ("check", "pregnancy_bonus", "--what", "scope"),
        ],
    )
    def test_only_documented_exit_codes(self, capsys, argv):
        cmd, name, *rest = argv
        code = main([cmd, fixture(name), *rest])
        err = capsys.readouterr().err
        assert code in (0, 1, 2)
        assert "internal error" not in err

    def test_capacity_error_is_exit_2(self, capsys, tmp_path):
        # 25 boolean features: |F| = 2^25 is above the enumeration cap
        doc = tmp_path / "huge.json"
        doc.write_text(
            json.dumps(
                {
                    "features": [
                        {"name": f"f{i}", "domain": [False, True], "protected": i == 0}
                        for i in range(25)
                    ],
                    "constraints": [],
                    "classifier": {"form": "expression", "expr": "(or f0 f1)"},
                }
            )
        )
        code, out, err = run(capsys, "audit", str(doc))
        assert code == 2
        assert "cap" in err
        assert "internal error" not in err

    @staticmethod
    def _pinned_document(tmp_path, width: int) -> Path:
        """(or f0 f1) over width boolean features, f0 protected, and
        every feature past f8 pinned to false: F[C] is the 512 instances
        of the 9-feature model."""
        doc = tmp_path / f"wide{width}.json"
        doc.write_text(
            json.dumps(
                {
                    "features": [
                        {"name": f"f{i}", "domain": [False, True], "protected": i == 0}
                        for i in range(width)
                    ],
                    "constraints": [f"(not f{i})" for i in range(9, width)],
                    "classifier": {"form": "expression", "expr": "(or f0 f1)"},
                }
            )
        )
        return doc

    def test_explain_at_21_features_is_answered(self, capsys, tmp_path):
        # the prime recursion enumerates no feature sets: at 21 and 24
        # features the pinned ones join no reason, and explain gives the
        # reasons of the 9-feature model
        keys = ("label", "axps", "pi_explanations", "verdict")
        doc = self._pinned_document(tmp_path, 9)
        code, narrow = run_json(capsys, "explain", str(doc), "--instance", "1," * 8 + "1")
        assert code == 0 and [e["features"] for e in narrow["axps"]] == [["f0"], ["f1"]]
        for width in (21, 24):
            doc = self._pinned_document(tmp_path, width)
            instance = ",".join(["1"] * 9 + ["0"] * (width - 9))
            code, wide = run_json(capsys, "explain", str(doc), "--instance", instance)
            assert code == 0
            assert {k: wide[k] for k in keys} == {k: narrow[k] for k in keys}

    def test_audit_over_the_subset_cap_is_answered(self, capsys, tmp_path):
        # the prime recursion enumerates no feature sets, so the width
        # does not stop an audit: pinning features 9..20 to false changes
        # no verdict, witness or listing of the 9-feature model
        pinned = {f"f{i}" for i in range(9, 21)}
        reports = []
        for width in (21, 9):
            doc = self._pinned_document(tmp_path, width)
            code, report = run_json(
                capsys, "audit", str(doc), "--notion", "universal", "--per-decision"
            )
            assert code == 1
            reports.append(report)

        def unpinned(obj):
            if isinstance(obj, dict):
                return {key: unpinned(v) for key, v in obj.items() if key not in pinned}
            if isinstance(obj, list):
                return [unpinned(v) for v in obj]
            return obj

        wide, narrow = reports
        assert wide["space"]["size_constrained"] == narrow["space"]["size_unconstrained"]
        for key in ("verdicts", "witnesses", "per_decision"):
            assert unpinned(wide[key]) == narrow[key]
        assert not wide["verdicts"]["existential"] and len(wide["per_decision"]) == 512

    @pytest.mark.parametrize("cap", ["PRIME_CAP", "COVERAGE_CAP_BITS"])
    def test_audit_past_the_prime_caps_is_exit_2(self, capsys, monkeypatch, cap):
        monkeypatch.setattr(explain, cap, 8)
        code, out, err = run(capsys, "audit", fixture("work_from_home"))
        assert code == 2 and out == ""
        assert err.startswith("error:") and "cap" in err

    def test_internal_error_is_exit_2(self, capsys, monkeypatch):
        def broken(cs, k, verdicts=None):
            raise AssertionError("universal fairness without existential fairness")

        monkeypatch.setattr(fairness, "classifier_verdict", broken)
        code, out, err = run(capsys, "audit", fixture("adopt"))
        assert code == 2
        assert out == ""
        assert "internal error:" in err
        assert "AssertionError" in err

    def test_module_entry_point_reports_the_exit_code(self):
        env = dict(os.environ)
        src = str(ROOT / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-m", "fairaudit.cli", "audit", fixture("adopt"),
             "--notion", "universal"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 1
        report = json.loads(proc.stdout)
        assert report["verdicts"]["fair"] is False

    @pytest.mark.parametrize("target", ["model", "graph"])
    @pytest.mark.parametrize(
        "content",
        [
            b"[" * 200_000,
            b"\xff\xfe" + '{"features": []}'.encode("utf-16-le"),
            b"[" + b"1" * 5000 + b"]",
        ],
        ids=["nested-200000", "not-utf-8", "integer-of-5000-digits"],
    )
    def test_undecodable_document_is_exit_2(self, capsys, tmp_path, target, content):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        if target == "model":
            argv = ["audit", str(bad)]
        else:
            argv = ["ftci", fixture("ftci_leave"), str(bad)]
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def _two_feature_document(self, tmp_path, k: dict) -> Path:
        doc = tmp_path / "classes.json"
        doc.write_text(
            json.dumps(
                {
                    "features": [
                        {"name": "m", "domain": [False, True], "protected": True},
                        {"name": "e", "domain": [False, True]},
                    ],
                    "classifier": k,
                }
            )
        )
        return doc

    def _classifier(self, form: str, label=int) -> dict:
        if form == "table":
            rows = [[m, e, label(m)] for m in (False, True) for e in (False, True)]
            return {"form": "table", "rows": rows}
        return {"form": "tree", "nodes": [self._TEST, *self._LEAVES]}

    @pytest.mark.parametrize("form", ["table", "tree"])
    @pytest.mark.parametrize("command", ["audit", "export-cnf"])
    def test_class_count_past_the_encoding_limit_is_exit_2(
        self, capsys, tmp_path, form, command
    ):
        # the encoder allocates per declared class, so 10^9 is refused first
        doc = self._two_feature_document(
            tmp_path, {**self._classifier(form), "classes": 10**9}
        )
        if command == "audit":
            argv = ["audit", str(doc), "--engine", "search"]
        else:
            argv = ["export-cnf", str(doc), str(tmp_path / "out.cnf")]
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "classes" in err

    @pytest.mark.parametrize("form", ["table", "tree"])
    @pytest.mark.parametrize("classes", [-5, 0, 1])
    def test_declared_class_count_below_two_is_exit_2(
        self, capsys, tmp_path, form, classes
    ):
        doc = self._two_feature_document(
            tmp_path, {**self._classifier(form), "classes": classes}
        )
        code, out, err = run(capsys, "audit", str(doc))
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "classes" in err

    def test_constant_table_without_declared_classes_is_audited(self, capsys, tmp_path):
        # every label 0 and no "classes": read as two classes, one unused
        doc = self._two_feature_document(
            tmp_path, self._classifier("table", label=lambda m: 0)
        )
        code, report = run_json(capsys, "audit", str(doc), "--notion", "universal")
        assert code == 0
        assert report["verdicts"]["fair"] is True

    _TEST = {"id": 0, "feature": "e", "value": True, "if_true": 1, "if_false": 2}
    _LEAVES = [{"id": 1, "label": 1}, {"id": 2, "label": 0}]

    @pytest.mark.parametrize(
        "tree, constraint",
        [
            ({"nodes": [_TEST, {"id": 1, "label": "x"}, _LEAVES[1]]}, "e"),
            ({"nodes": [_TEST, *_LEAVES], "classes": "3"}, "e"),
            ({"nodes": [{**_TEST, "id": [0]}, *_LEAVES]}, "e"),
            ({"nodes": [{**_TEST, "if_true": [1]}, *_LEAVES]}, "e"),
            ({"nodes": [{**_TEST, "feature": ["e"]}, *_LEAVES]}, "e"),
            ({"nodes": [_TEST, *_LEAVES]}, "(not " * 3000 + "e" + ")" * 3000),
            # integers are ASCII digits: int() refuses "²", and reads the
            # Arabic-Indic digit two as 2
            ({"nodes": [_TEST, *_LEAVES]}, "(le n \u00b2)"),
            ({"nodes": [_TEST, *_LEAVES]}, "(= n 1\u00b2)"),
            ({"nodes": [_TEST, *_LEAVES]}, "(= n \u0662)"),
        ],
        ids=[
            "leaf-label-str",
            "classes-str",
            "id-list",
            "edge-list",
            "feature-list",
            "nesting-3000",
            "superscript-two",
            "superscript-after-digit",
            "arabic-indic-two",
        ],
    )
    def test_malformed_tree_or_expression_is_exit_2(
        self, capsys, tmp_path, tree, constraint
    ):
        doc = tmp_path / "bad.json"
        doc.write_text(
            json.dumps(
                {
                    "features": [
                        {"name": "e", "domain": [False, True]},
                        {"name": "m", "domain": [False, True], "protected": True},
                        {"name": "n", "domain": [0, 1, 2]},
                    ],
                    "constraints": [constraint],
                    "classifier": {"form": "tree", **tree},
                }
            )
        )
        code, out, err = run(capsys, "audit", str(doc), "--notion", "universal")
        assert code == 2
        assert "error:" in err
        assert "internal error" not in err

    def test_long_tree_chain_is_audited(self, capsys, tmp_path, chain_tree_document):
        doc = tmp_path / "chain.json"
        doc.write_text(chain_tree_document)
        code, out, err = run(capsys, "audit", str(doc))
        assert code in (0, 1)
        assert "Traceback" not in err
        report = json.loads(out)
        assert report["space"]["size_constrained"] == 2 * 1501
