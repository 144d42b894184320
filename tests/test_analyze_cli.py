"""``repro lint`` CLI tests: formats, exit codes, baseline workflow."""

import json
from pathlib import Path

import pytest

from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parents[1]

DIRTY = "try:\n    pass\nexcept:\n    pass\n"

VALID_TRACE = {
    "otherData": {"schema": 1},
    "traceEvents": [
        {"name": "gemm", "cat": "executor", "ph": "X",
         "pid": 0, "tid": 0, "ts": 0.0, "dur": 5.0},
    ],
}


#: artifacts the default suite must report once, under the one schema
#: id that owns them: (file name, text, ids with findings, finding count
#: or None when any positive count will do)
OWNED_ARTIFACTS = [
    ("export.json",
     json.dumps({"schema": "repro.campaign.store/v1", "rows": []}), [], 0),
    ("health.json",
     json.dumps({"schema": "repro.obs.health/v0", "num_ranks": 4,
                 "num_samples": 1, "cadence_s": 0.1, "findings": [],
                 "degraded_ranks": [], "series": {},
                 "watchdog": {"tripped": False, "deadlines_s": {}}}),
     ["health-report"], 1),
    ("fleet.json",
     json.dumps({"schema": "repro.obs.fleet/v999", "heatmap": {},
                 "trend": {}}),
     ["fleet-schema"], None),
    ("nan.json", '{"traceEvents": [], "x": NaN}', ["trace-schema"], 1),
    ("torn.json", json.dumps(VALID_TRACE)[:40], ["trace-schema"], 1),
]


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestExitCodes:
    def test_clean_file_exits_zero(self, tmp_path, capsys):
        path = _write(tmp_path, "clean.py", "x = 1\n")
        assert main(["lint", path, "--no-baseline"]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_findings_exit_one(self, tmp_path, capsys):
        path = _write(tmp_path, "dirty.py", DIRTY)
        assert main(["lint", path, "--no-baseline"]) == 1
        out = capsys.readouterr().out
        assert "[hygiene]" in out and ":3:0: error" in out

    def test_unknown_checker_exits_two(self, tmp_path, capsys):
        path = _write(tmp_path, "clean.py", "x = 1\n")
        rc = main(["lint", path, "--select", "no-such-checker"])
        assert rc == 2

    def test_syntax_error_exits_one(self, tmp_path, capsys):
        path = _write(tmp_path, "broken.py", "def f(:\n")
        assert main(["lint", path, "--no-baseline"]) == 1
        assert "[parse]" in capsys.readouterr().out

    def test_list_checkers(self, capsys):
        assert main(["lint", "--list"]) == 0
        out = capsys.readouterr().out
        for checker_id in ("precision-flow", "tag-space",
                           "collective-matching", "hygiene", "trace-schema"):
            assert checker_id in out


class TestJsonFormat:
    def test_json_report_shape(self, tmp_path, capsys):
        path = _write(tmp_path, "dirty.py", DIRTY)
        out_file = tmp_path / "report.json"
        rc = main(["lint", path, "--no-baseline", "--format", "json",
                   "--out", str(out_file)])
        assert rc == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is False
        assert doc["files_checked"] == 1
        assert doc["findings"][0]["checker"] == "hygiene"
        # --out mirrors the same document to disk (the CI artifact).
        assert json.loads(out_file.read_text()) == doc


class TestBaselineWorkflow:
    def test_update_then_clean(self, tmp_path, capsys):
        path = _write(tmp_path, "dirty.py", DIRTY)
        base = str(tmp_path / "baseline.json")
        assert main(["lint", path, "--baseline", base,
                     "--update-baseline"]) == 0
        assert main(["lint", path, "--baseline", base]) == 0
        assert "1 baselined" in capsys.readouterr().out

    def test_new_finding_still_fails(self, tmp_path, capsys):
        path = _write(tmp_path, "dirty.py", DIRTY)
        base = str(tmp_path / "baseline.json")
        main(["lint", path, "--baseline", base, "--update-baseline"])
        _write(tmp_path, "dirty.py", DIRTY + "def f(xs=[]):\n    return xs\n")
        assert main(["lint", path, "--baseline", base]) == 1

    def test_select_restricts_checkers(self, tmp_path, capsys):
        path = _write(
            tmp_path, "dirty.py",
            DIRTY + "import numpy as np\nH = np.float16(1.0)\n",
        )
        rc = main(["lint", path, "--no-baseline",
                   "--select", "precision-flow"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "[precision-flow]" in out and "[hygiene]" not in out


class TestTraceArtifacts:
    def test_valid_trace_passes(self, tmp_path, capsys):
        path = _write(tmp_path, "trace.json", json.dumps(VALID_TRACE))
        assert main(["lint", path, "--no-baseline"]) == 0

    def test_invalid_trace_fails(self, tmp_path, capsys):
        doc = {"traceEvents": []}  # no spans, no otherData
        path = _write(tmp_path, "trace.json", json.dumps(doc))
        assert main(["lint", path, "--no-baseline"]) == 1
        assert "[trace-schema]" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "name,text,ids,count", OWNED_ARTIFACTS,
        ids=[case[0] for case in OWNED_ARTIFACTS],
    )
    def test_each_artifact_is_reported_by_its_owner_once(
            self, tmp_path, capsys, name, text, ids, count):
        path = _write(tmp_path, name, text)
        rc = main(["lint", path, "--no-baseline", "--format", "json"])
        findings = json.loads(capsys.readouterr().out)["findings"]
        assert rc == (1 if ids else 0)
        assert sorted({f["checker"] for f in findings}) == ids
        if count is not None:
            assert len(findings) == count

    def test_trace_is_parsed_once(self, tmp_path, monkeypatch, capsys):
        from repro.analyze.checkers import schemas

        calls = []
        load = schemas.load_strict_json

        def counting_load(path):
            calls.append(path)
            return load(path)

        monkeypatch.setattr(schemas, "load_strict_json", counting_load)
        path = _write(tmp_path, "trace.json", json.dumps(VALID_TRACE))
        assert main(["lint", path, "--no-baseline"]) == 0
        assert calls == [path]

    def test_require_layers_flag(self, tmp_path, capsys):
        path = _write(tmp_path, "trace.json", json.dumps(VALID_TRACE))
        rc = main(["lint", path, "--no-baseline", "--require-layers"])
        assert rc == 1  # only 'executor' spans present
        assert "required layer" in capsys.readouterr().out


class TestRepositoryIsClean:
    def test_src_tree_clean_against_checked_in_baseline(self, monkeypatch,
                                                        capsys):
        """The acceptance gate: `repro lint src/` exits 0 at HEAD."""
        monkeypatch.chdir(REPO_ROOT)
        assert main(["lint", "src"]) == 0
        assert "baseline: .lint-baseline.json" in capsys.readouterr().out


class TestChangedScoping:
    """``repro lint --changed``: diff-scoped analysis."""

    def _git_repo(self, tmp_path):
        import subprocess

        def git(*argv):
            subprocess.run(
                ["git", *argv], cwd=tmp_path, check=True,
                capture_output=True,
                env={"GIT_AUTHOR_NAME": "t", "GIT_AUTHOR_EMAIL": "t@t",
                     "GIT_COMMITTER_NAME": "t", "GIT_COMMITTER_EMAIL": "t@t",
                     "HOME": str(tmp_path), "PATH": "/usr/bin:/bin"},
            )

        git("init", "-q")
        (tmp_path / "committed.py").write_text(DIRTY)
        git("add", "committed.py")
        git("commit", "-qm", "seed")
        return git

    def test_only_touched_files_are_linted(self, tmp_path, monkeypatch,
                                           capsys):
        self._git_repo(tmp_path)
        # the committed dirty file is NOT touched; a new dirty file is
        (tmp_path / "fresh.py").write_text(DIRTY)
        monkeypatch.chdir(tmp_path)
        rc = main(["lint", str(tmp_path), "--no-baseline", "--changed",
                   "--select", "hygiene"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "fresh.py" in out
        assert "committed.py" not in out
        assert "1 file(s)" in out

    def test_modified_tracked_file_is_linted(self, tmp_path, monkeypatch,
                                             capsys):
        self._git_repo(tmp_path)
        (tmp_path / "committed.py").write_text(DIRTY + "x = 1\n")
        monkeypatch.chdir(tmp_path)
        rc = main(["lint", str(tmp_path), "--no-baseline", "--changed",
                   "--select", "hygiene"])
        assert rc == 1
        assert "committed.py" in capsys.readouterr().out

    def test_no_changes_is_clean(self, tmp_path, monkeypatch, capsys):
        self._git_repo(tmp_path)
        monkeypatch.chdir(tmp_path)
        rc = main(["lint", str(tmp_path), "--no-baseline", "--changed"])
        assert rc == 0
        assert "no modified files" in capsys.readouterr().out

    def test_outside_git_falls_back_to_full_lint(self, tmp_path,
                                                 monkeypatch, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("GIT_DIR", str(tmp_path / "no-such-repo"))
        rc = main(["lint", str(tmp_path), "--no-baseline", "--changed",
                   "--select", "hygiene"])
        assert rc == 0
        err = capsys.readouterr().err
        assert "needs a git checkout" in err
