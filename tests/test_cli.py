"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import (
    _parse_schema,
    build_parser,
    load_setting_text,
    main,
)
from repro.core import ReproError

SETTING_TEXT = """
# Example 2.1 of the paper
source:      M/2 N/2
target:      E/2 F/2 G/2
st:          M(x1,x2) -> E(x1,x2)
st:          N(x,y) -> exists z1, z2 . E(x,z1) & F(x,z2)
target-dep:  F(y,x) -> exists z . G(x,z)
target-dep:  F(x,y) & F(x,z) -> y = z
"""

SOURCE_TEXT = "M('a','b'), N('a','b'), N('a','c')"


@pytest.fixture
def setting_file(tmp_path):
    path = tmp_path / "setting.txt"
    path.write_text(SETTING_TEXT, encoding="utf-8")
    return str(path)


@pytest.fixture
def source_file(tmp_path):
    path = tmp_path / "source.txt"
    path.write_text(SOURCE_TEXT, encoding="utf-8")
    return str(path)


class TestSettingFormat:
    def test_parse_schema(self):
        schema = _parse_schema("M/2 N/3")
        assert schema["M"].arity == 2 and schema["N"].arity == 3

    def test_bad_schema_token(self):
        with pytest.raises(ReproError):
            _parse_schema("M/two")

    def test_load_setting(self):
        setting = load_setting_text(SETTING_TEXT)
        assert len(setting.st_dependencies) == 2
        assert len(setting.target_dependencies) == 2
        assert setting.is_weakly_acyclic

    def test_comments_and_blank_lines_ignored(self):
        text = "# hi\n\nsource: P/1\ntarget: Q/1\nst: P(x) -> Q(x)\n"
        setting = load_setting_text(text)
        assert len(setting.st_dependencies) == 1

    def test_missing_schema_rejected(self):
        with pytest.raises(ReproError):
            load_setting_text("st: P(x) -> Q(x)")

    def test_unknown_key_rejected(self):
        with pytest.raises(ReproError):
            load_setting_text("source: P/1\ntarget: Q/1\nbogus: nope")

    def test_malformed_line_rejected(self):
        with pytest.raises(ReproError):
            load_setting_text("source P/1")


class TestCommands:
    def test_solve(self, setting_file, source_file, capsys):
        code = main(["solve", setting_file, source_file])
        out = capsys.readouterr().out
        assert code == 0
        assert "core (minimal CWA-solution)" in out
        assert "E(a, b)" in out

    def test_chase_narration(self, setting_file, source_file, capsys):
        code = main(["chase", setting_file, source_file])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("I0 = ")
        assert "result: success" in out

    def test_certain(self, setting_file, source_file, capsys):
        code = main(
            ["certain", setting_file, source_file, "Q(x, y) :- E(x, y)"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "a\tb" in out

    def test_certain_boolean(self, setting_file, source_file, capsys):
        code = main(
            [
                "certain",
                setting_file,
                source_file,
                "Q() :- F('a', u), G(u, w)",
            ]
        )
        assert code == 0
        assert capsys.readouterr().out.strip() == "true"

    def test_maybe_semantics(self, setting_file, source_file, capsys):
        code = main(
            [
                "certain",
                setting_file,
                source_file,
                "Q() :- E('a', 'q')",
                "--semantics",
                "maybe",
            ]
        )
        assert code == 0
        assert capsys.readouterr().out.strip() == "true"

    def test_check(self, setting_file, source_file, tmp_path, capsys):
        target = tmp_path / "target.txt"
        target.write_text(
            "E('a','b'), F('a',#1), G(#1,#2)", encoding="utf-8"
        )
        code = main(["check", setting_file, source_file, str(target)])
        out = capsys.readouterr().out
        assert code == 0
        assert "CWA-solution     : yes" in out.replace("  ", " ") or "yes" in out

    def test_check_non_solution(self, setting_file, source_file, tmp_path, capsys):
        target = tmp_path / "target.txt"
        target.write_text("E('a','b')", encoding="utf-8")
        code = main(["check", setting_file, source_file, str(target)])
        out = capsys.readouterr().out
        assert code == 1
        assert "solution" in out

    def test_analyze(self, setting_file, capsys):
        code = main(["analyze", setting_file])
        out = capsys.readouterr().out
        assert code == 0
        assert "weakly acyclic: yes" in out
        assert "richly acyclic: yes" in out

    def test_analyze_warns_outside_weak_acyclicity(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text(
            "source: S/2\ntarget: E/2\nst: S(x,y) -> E(x,y)\n"
            "target-dep: E(x,y) -> exists z . E(y,z)\n",
            encoding="utf-8",
        )
        code = main(["analyze", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "undecidable" in out

    def test_report(self, setting_file, source_file, capsys):
        code = main(["report", setting_file, source_file])
        out = capsys.readouterr().out
        assert code == 0
        assert "data exchange report" in out
        assert "gaifman blocks" in out
        assert "null justifications" in out

    def test_report_no_solution(self, tmp_path, capsys):
        setting = tmp_path / "key.txt"
        setting.write_text(
            "source: Src/2\ntarget: Tgt/2\nst: Src(x,y) -> Tgt(x,y)\n"
            "target-dep: Tgt(x,y) & Tgt(x,z) -> y = z\n",
            encoding="utf-8",
        )
        source = tmp_path / "clash.txt"
        source.write_text("Src('a','b'), Src('a','c')", encoding="utf-8")
        code = main(["report", str(setting), str(source)])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAILED" in out

    def test_solve_from_csv_directory(self, setting_file, tmp_path, capsys):
        from repro.io import dump_instance
        from repro.logic import parse_instance as parse

        dump_instance(
            parse("M('a','b'), N('a','b'), N('a','c')"), tmp_path / "csvdata"
        )
        code = main(["solve", setting_file, str(tmp_path / "csvdata")])
        assert code == 0
        assert "core" in capsys.readouterr().out

    def test_error_reporting(self, tmp_path, capsys):
        path = tmp_path / "broken.txt"
        path.write_text("source P/1", encoding="utf-8")
        code = main(["analyze", str(path)])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_explain(self, setting_file, source_file, capsys):
        code = main(["explain", setting_file, source_file])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("I0 = ")
        assert "result: success" in out

    def test_explain_why(self, setting_file, source_file, capsys):
        code = main(
            ["explain", setting_file, source_file, "--why", "G(#1, #2)"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "G(⊥1, ⊥2) ⇐ " in out
        assert "⇐ source" in out

    def test_explain_why_rejects_multiple_atoms(
        self, setting_file, source_file, capsys
    ):
        code = main(
            [
                "explain",
                setting_file,
                source_file,
                "--why",
                "G(#1,#2), E('a','b')",
            ]
        )
        assert code == 2
        assert "exactly one atom" in capsys.readouterr().err

    def test_delta_without_incremental_from_is_a_usage_error(
        self, setting_file, source_file, tmp_path, capsys
    ):
        delta = tmp_path / "edit.delta"
        delta.write_text("+ N('a','d')\n- M('a','b')\n", encoding="utf-8")
        code = main(["solve", "--delta", str(delta), setting_file, source_file])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1, captured.err
        assert "--incremental-from" in lines[0]


class TestSinkLifecycle:
    """Trace artifacts must be complete and parseable on every exit path."""

    def _failing_exchange(self, tmp_path):
        setting = tmp_path / "key.txt"
        setting.write_text(
            "source: Src/2\ntarget: Tgt/2\nst: Src(x,y) -> Tgt(x,y)\n"
            "target-dep: Tgt(x,y) & Tgt(x,z) -> y = z\n",
            encoding="utf-8",
        )
        source = tmp_path / "clash.txt"
        source.write_text("Src('a','b'), Src('a','c')", encoding="utf-8")
        return str(setting), str(source)

    def test_failing_chase_still_writes_valid_trace_files(
        self, tmp_path, capsys
    ):
        import json

        setting, source = self._failing_exchange(tmp_path)
        trace_json = tmp_path / "run.jsonl"
        trace_viewer = tmp_path / "run.trace.json"
        code = main(
            [
                "report",
                setting,
                source,
                "--trace-json",
                str(trace_json),
                "--trace-viewer",
                str(trace_viewer),
            ]
        )
        capsys.readouterr()
        assert code == 1  # the egd failed: no solution exists
        # Line-JSON: every line parses, and the stream is complete
        # (ends with the snapshot event).
        lines = trace_json.read_text(encoding="utf-8").splitlines()
        events = [json.loads(line) for line in lines]
        assert events[-1]["type"] == "snapshot"
        # Trace-viewer: one complete JSON object, B/E balanced.
        payload = json.loads(trace_viewer.read_text(encoding="utf-8"))
        begins = [e for e in payload["traceEvents"] if e["ph"] == "B"]
        ends = [e for e in payload["traceEvents"] if e["ph"] == "E"]
        assert len(begins) == len(ends) > 0

    def test_usage_error_still_writes_valid_trace_file(
        self, tmp_path, setting_file, capsys
    ):
        import json

        trace_viewer = tmp_path / "err.trace.json"
        code = main(
            [
                "chase",
                setting_file,
                str(tmp_path / "no-such-source.txt"),
                "--trace-viewer",
                str(trace_viewer),
            ]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err
        payload = json.loads(trace_viewer.read_text(encoding="utf-8"))
        assert isinstance(payload["traceEvents"], list)

    def test_provenance_flag_writes_ledger(
        self, tmp_path, setting_file, source_file, capsys
    ):
        from repro.obs.provenance import ProvenanceLedger

        path = tmp_path / "prov.json"
        code = main(
            ["solve", setting_file, source_file, "--provenance", str(path)]
        )
        capsys.readouterr()
        assert code == 0
        ledger = ProvenanceLedger.loads(path.read_text(encoding="utf-8"))
        assert len(ledger.steps) > 0
        kinds = {step.kind for step in ledger.steps}
        assert "source" in kinds and "tgd" in kinds

    def test_provenance_written_on_failing_chase(self, tmp_path, capsys):
        from repro.obs.provenance import ProvenanceLedger

        setting, source = self._failing_exchange(tmp_path)
        path = tmp_path / "prov.json"
        code = main(["report", setting, source, "--provenance", str(path)])
        capsys.readouterr()
        assert code == 1
        ledger = ProvenanceLedger.loads(path.read_text(encoding="utf-8"))
        assert {step.kind for step in ledger.steps} >= {"source", "tgd"}


class TestTruncatedLedger:
    def test_incremental_from_a_cut_ledger_exits_2(
        self, tmp_path, setting_file, source_file, capsys
    ):
        ledger_path = tmp_path / "ledger.json"
        code = main(
            ["solve", setting_file, source_file, "--provenance", str(ledger_path)]
        )
        capsys.readouterr()
        assert code == 0
        text = ledger_path.read_text(encoding="utf-8").rstrip()
        assert len(text) > 600
        cut_path = tmp_path / "cut.json"
        for cut in (0, 1, 100, 600, len(text) - 1):
            cut_path.write_text(text[:cut], encoding="utf-8")
            code = main(
                [
                    "solve",
                    setting_file,
                    source_file,
                    "--incremental-from",
                    str(cut_path),
                ]
            )
            captured = capsys.readouterr()
            assert code == 2, cut
            assert captured.out == ""
            lines = captured.err.splitlines()
            assert len(lines) == 1, captured.err
            assert lines[0].startswith("error: invalid provenance JSON"), cut


class TestMalformedInputFiles:
    """A well-formed JSON file of the wrong shape exits 2 with one line."""

    def _run(self, argv, capsys):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1, captured.err
        assert lines[0].startswith("error: ")

    def test_malformed_ledger_exits_2(
        self, tmp_path, setting_file, source_file, capsys
    ):
        bad = tmp_path / "bad.prov.json"
        bad.write_text(
            json.dumps(
                {
                    "schema": "repro.obs/prov/v1",
                    "steps": [{"kind": "egd", "merged": [["n", 1]]}],
                }
            ),
            encoding="utf-8",
        )
        self._run(
            ["solve", setting_file, source_file, "--incremental-from", str(bad)],
            capsys,
        )

    def test_malformed_delta_exits_2(
        self, tmp_path, setting_file, source_file, capsys
    ):
        ledger = tmp_path / "ledger.json"
        assert main(
            ["solve", setting_file, source_file, "--provenance", str(ledger)]
        ) == 0
        capsys.readouterr()
        bad = tmp_path / "bad.delta"
        empty = {"schema": "repro.io/v1", "relations": {}}
        bad.write_text(
            json.dumps(
                {
                    "schema": "repro.io/delta/v1",
                    "insert": {
                        "schema": "repro.io/v1",
                        "relations": {"N": {"rows": [["c", "a"]]}},
                    },
                    "delete": empty,
                }
            ),
            encoding="utf-8",
        )
        self._run(
            [
                "solve",
                setting_file,
                source_file,
                "--incremental-from",
                str(ledger),
                "--delta",
                str(bad),
            ],
            capsys,
        )


class TestExplainPlan:
    def test_text_report_covers_every_dependency(
        self, setting_file, source_file, capsys
    ):
        code = main(["explain-plan", setting_file, source_file])
        out = capsys.readouterr().out
        assert code == 0
        assert "EXPLAIN ANALYZE" in out
        for name in ("st1", "st2", "t1", "t2"):
            assert f"\n{name} " in out
        assert "triggers=" in out and "est=" in out
        assert "-> step 0" in out

    def test_json_document(self, setting_file, source_file, capsys):
        import json

        code = main(["explain-plan", "--json", setting_file, source_file])
        document = json.loads(capsys.readouterr().out)
        assert code == 0
        assert document["schema"] == "repro.obs/attribution/v1"
        assert document["solved"] is True
        assert [d["name"] for d in document["dependencies"]] == [
            "st1",
            "st2",
            "t1",
            "t2",
        ]
        for dep in document["dependencies"]:
            assert dep["plans"], dep["name"]
            # Every dependency shows per-step rows and estimates.
            assert any(
                step["candidates"] or step["probes"]
                for plan in dep["plans"]
                for step in plan["steps"]
            ), dep["name"]
            for plan in dep["plans"]:
                for step in plan["steps"]:
                    assert "estimated_rows" in step
                    assert "seconds" in step

    def test_attribution_stays_off_afterwards(
        self, setting_file, source_file, capsys
    ):
        import os

        from repro.obs import attribution

        main(["explain-plan", setting_file, source_file])
        capsys.readouterr()
        assert not attribution.enabled()
        assert "REPRO_ATTRIBUTION" not in os.environ


class TestProgressFlag:
    def test_solve_progress_heartbeat(self, setting_file, source_file, capsys):
        import json

        from repro.obs import attribution

        code = main(["solve", setting_file, source_file, "--progress"])
        captured = capsys.readouterr()
        assert code == 0
        beats = [
            json.loads(line)
            for line in captured.err.splitlines()
            if line.startswith("{")
        ]
        assert beats
        assert all(record["type"] == "heartbeat" for record in beats)
        assert beats[0]["round"] == 0
        assert beats[-1]["atoms"] > 0
        # The CLI uninstalls its heartbeat in the finally block.
        assert attribution.heartbeat() is None


class TestStatsTop:
    def _metrics_log(self, tmp_path, setting_file, source_file, capsys):
        path = tmp_path / "metrics.jsonl"
        main(
            [
                "solve",
                setting_file,
                source_file,
                "--metrics-log",
                str(path),
            ]
        )
        capsys.readouterr()
        return str(path)

    def test_top_truncates_and_ranks(
        self, tmp_path, setting_file, source_file, capsys
    ):
        log = self._metrics_log(tmp_path, setting_file, source_file, capsys)
        code = main(["stats", log, "--top", "2"])
        out = capsys.readouterr().out
        assert code == 0
        span_lines = [
            line
            for line in out.splitlines()
            if line.startswith("solve")
        ]
        # Only the two most expensive spans survive, costliest first.
        assert len(span_lines) == 2
        assert span_lines[0].startswith("solve ")
        assert "more spans" in out
        assert "more counters" in out

    def test_without_top_all_rows_render(
        self, tmp_path, setting_file, source_file, capsys
    ):
        log = self._metrics_log(tmp_path, setting_file, source_file, capsys)
        code = main(["stats", log])
        out = capsys.readouterr().out
        assert code == 0
        assert "more spans" not in out
        assert "chase.tgd_firings" in out
