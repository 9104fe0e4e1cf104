"""Tests for the ``python -m repro`` CLI."""

import pytest

from repro.__main__ import main
from repro.store import SegmentStore


class TestCli:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            main([])

    def test_incident_command(self, capsys):
        assert main(["incident"]) == 0
        out = capsys.readouterr().out
        assert "blind" in out
        assert "TIPSY-guided" in out
        assert "withdraw-coordinated" in out

    def test_evaluate_command_small(self, capsys):
        assert main(["evaluate", "--size", "small", "--seed", "7",
                     "--train-days", "4", "--test-days", "2"]) == 0
        out = capsys.readouterr().out
        assert "Table 4" in out
        assert "Hist_AP/AL/A" in out

    def test_risk_command_small(self, capsys):
        assert main(["risk", "--size", "small", "--seed", "11",
                     "--train-days", "4", "--test-days", "1"]) == 0
        out = capsys.readouterr().out
        assert "Links at risk" in out

    @pytest.mark.parametrize("command", ["risk", "evaluate", "report"])
    def test_window_past_the_horizon_is_a_usage_error(self, command,
                                                      capsys):
        """Rejected before the world is built or a day is streamed: exit
        2 with a message naming the horizon, not a traceback."""
        assert main([command, "--size", "small", "--train-days", "27",
                     "--test-days", "3"]) == 2
        err = capsys.readouterr().err
        assert f"repro {command}:" in err
        assert "30 days is past the 28-day horizon" in err

    @pytest.mark.parametrize("argv", [
        ["evaluate", "--train-days"], ["evaluate", "--test-days"],
        ["risk", "--train-days"], ["risk", "--test-days"], ["risk", "--limit"],
        ["report", "--train-days"], ["report", "--test-days"],
        ["snapshot", "save", "--dir", "unused", "--window"],
        ["snapshot", "save", "--dir", "unused", "--days"],
        ["obs", "--days"]])
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_days_below_one_are_usage_errors(self, argv, value, capsys):
        """Not all-zero tables, a service that never trains, a numpy
        traceback or a risk table short of its last findings (a negative
        ``--limit`` slices them off the end): exit 2 with usage, before
        a world is built.  ``repro obs`` needs a day to train on and one
        to serve."""
        low = 2 if argv[0] == "obs" else 1
        with pytest.raises(SystemExit) as exited:
            main([*argv, value])
        assert exited.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:")
        assert (f"argument {argv[-1]}: must be at least {low}, got {value}"
                in err)

    @pytest.mark.parametrize("flag", ["--checkpoint-every",
                                      "--status-every", "--queries"])
    def test_negative_serve_cadences_are_usage_errors(self, flag, capsys):
        """0 turns a cadence off; below it is a usage error (exit 2),
        not a silent "off", before a world is built."""
        with pytest.raises(SystemExit) as exited:
            main(["serve", "run", "--workers", "inline", flag, "-3"])
        assert exited.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:")
        assert f"argument {flag}: must be at least 0, got -3" in err

    @pytest.mark.parametrize("value", ["-1", "-0.5", "nan", "inf"])
    def test_a_negative_or_non_finite_hour_delay_is_a_usage_error(
            self, value, capsys):
        with pytest.raises(SystemExit) as exited:
            main(["serve", "run", "--workers", "inline", "--hour-delay",
                  value])
        assert exited.value.code == 2
        assert (f"argument --hour-delay: must be a finite number of at "
                f"least 0, got {value}") in capsys.readouterr().err

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_evaluate_compare_flag(self, capsys):
        assert main(["evaluate", "--size", "small", "--seed", "7",
                     "--train-days", "4", "--test-days", "2",
                     "--compare"]) == 0
        out = capsys.readouterr().out
        assert "measured vs paper" in out
        assert "delta" in out

    def test_report_command(self, tmp_path, capsys):
        output = tmp_path / "r.md"
        assert main(["report", "--size", "small", "--seed", "7",
                     "--train-days", "4", "--test-days", "2",
                     "-o", str(output)]) == 0
        text = output.read_text()
        assert "# TIPSY reproduction report" in text
        assert "Table 7" in text


class TestSnapshotCommand:
    def test_save_load_verify_inspect(self, capsys, tmp_path):
        target = str(tmp_path / "snap")
        assert main(["snapshot", "save", "--dir", target, "--seed", "5",
                     "--days", "5", "--window", "3"]) == 0
        out = capsys.readouterr().out
        assert "day segments" in out
        assert "model" not in out

        assert main(["snapshot", "inspect", "--dir", target]) == 0
        out = capsys.readouterr().out
        assert "day_counts" in out
        assert "model_grain" not in out     # models are not persisted
        assert "ok" in out

        assert main(["snapshot", "load", "--dir", target, "--verify"]) == 0
        out = capsys.readouterr().out
        assert "lost [], trained on [1, 2, 3]" in out
        assert "verify OK" in out

    def test_load_degrades_on_corruption(self, capsys, tmp_path):
        target = tmp_path / "snap"
        assert main(["snapshot", "save", "--dir", str(target),
                     "--seed", "5", "--days", "5", "--window", "3"]) == 0
        capsys.readouterr()
        segment = next(target.glob("day-*.npz"))
        segment.write_bytes(segment.read_bytes()[:50])
        assert main(["snapshot", "inspect", "--dir", str(target)]) == 1
        assert "checksum mismatch" in capsys.readouterr().out
        # load still succeeds: the lost day is reported and not trained on
        assert main(["snapshot", "load", "--dir", str(target)]) == 0
        out = capsys.readouterr().out
        lost = int(segment.stem.split("-")[1])
        assert f"lost [{lost}]" in out
        assert str(lost) not in out.split("trained on")[1].splitlines()[0]
        assert "degraded" in out

    def test_load_without_recipe_fails_cleanly(self, capsys, tmp_path):
        empty = tmp_path / "empty"
        SegmentStore(empty, create=True).set_meta({})
        assert main(["snapshot", "load", "--dir", str(empty)]) == 1
        assert "recipe" in capsys.readouterr().err

    @pytest.mark.parametrize("action", ["load", "inspect"])
    @pytest.mark.parametrize("made", [False, True])
    def test_a_directory_without_a_manifest_is_reported(self, action, made,
                                                        capsys, tmp_path):
        """Not an empty store (exit 0) or a missing recipe: the directory,
        there or not, holds no snapshot, as ``repro serve status`` says
        of a checkpoint directory."""
        target = tmp_path / "nowhere"
        if made:
            target.mkdir()
        assert main(["snapshot", action, "--dir", str(target)]) == 1
        assert capsys.readouterr().err == (
            f"repro snapshot: {target}: no snapshot manifest\n")
        assert target.exists() == made

    def test_rejects_unknown_action(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["snapshot", "frobnicate", "--dir", str(tmp_path)])
