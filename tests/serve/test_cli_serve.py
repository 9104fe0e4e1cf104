"""Tests for the ``repro serve`` CLI."""

import json

import pytest

from repro.__main__ import main
from repro.serve.cli import RECIPE_NAME
from repro.serve.daemon import MANIFEST_NAME


class TestServeRun:
    def test_run_checkpoints_and_reports(self, tmp_path, capsys):
        target = tmp_path / "ck"
        assert main(["serve", "run", "--size", "small", "--seed", "3",
                     "--days", "2", "--window", "1", "--shards", "2",
                     "--workers", "inline", "--dir", str(target),
                     "--checkpoint-every", "24", "--status-every", "24",
                     "--queries", "5"]) == 0
        out = capsys.readouterr().out
        assert "serve: started 2 shards (inline)" in out
        assert "final checkpoint" in out
        assert "ingested 48 hours" in out
        assert (target / MANIFEST_NAME).is_file()
        assert (target / "shard-00").is_dir()

    @pytest.mark.parametrize("flag", ["--shards", "--days", "--window"])
    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_counts_below_one_are_usage_errors(self, flag, value, capsys):
        with pytest.raises(SystemExit) as exited:
            main(["serve", "run", "--workers", "inline", flag, value])
        assert exited.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:")
        assert f"argument {flag}: must be at least 1, got {value}" in err

    def test_resume_requires_dir(self, capsys):
        assert main(["serve", "run", "--resume"]) == 1
        assert "--resume requires --dir" in capsys.readouterr().err

    def test_resume_continues_the_stream(self, tmp_path, capsys):
        target = tmp_path / "ck"
        assert main(["serve", "run", "--size", "small", "--seed", "3",
                     "--days", "1", "--window", "1", "--shards", "2",
                     "--workers", "inline", "--dir", str(target)]) == 0
        capsys.readouterr()
        assert main(["serve", "run", "--days", "2", "--workers", "inline",
                     "--resume", "--dir", str(target)]) == 0
        out = capsys.readouterr().out
        assert "resumed 2 shards" in out
        assert "streaming hours 24..47" in out

    def test_resume_keeps_the_recipe_it_adopted(self, tmp_path, capsys):
        """A resumed run records the checkpoint's seed/size/window, not
        the command line's defaults, so it can be resumed again."""
        target = tmp_path / "ck"
        assert main(["serve", "run", "--size", "small", "--seed", "9",
                     "--days", "1", "--window", "1", "--shards", "2",
                     "--workers", "inline", "--dir", str(target)]) == 0
        first = json.loads((target / RECIPE_NAME).read_text())
        assert (first["seed"], first["window"]) == (9, 1)
        for days in ("2", "3"):
            assert main(["serve", "run", "--days", days, "--workers",
                         "inline", "--resume", "--dir", str(target)]) == 0
            again = json.loads((target / RECIPE_NAME).read_text())
            assert {key: again[key] for key in ("size", "seed", "window")} \
                == {key: first[key] for key in ("size", "seed", "window")}
        assert "streaming hours 48..71" in capsys.readouterr().out


class TestServeStatus:
    def test_status_reads_a_checkpoint(self, tmp_path, capsys):
        target = tmp_path / "ck"
        assert main(["serve", "run", "--size", "small", "--seed", "3",
                     "--days", "1", "--window", "1", "--shards", "2",
                     "--workers", "inline", "--dir", str(target)]) == 0
        capsys.readouterr()
        assert main(["serve", "status", "--dir", str(target)]) == 0
        out = capsys.readouterr().out
        assert "2 shards" in out
        assert "shard 00" in out
        assert "scenario: size=small" in out

    def test_status_requires_dir(self, capsys):
        assert main(["serve", "status"]) == 1

    def test_status_on_missing_checkpoint_fails(self, tmp_path, capsys):
        assert main(["serve", "status", "--dir",
                     str(tmp_path / "nope")]) == 1
        assert "manifest" in capsys.readouterr().err