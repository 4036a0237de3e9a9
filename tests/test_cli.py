"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    @pytest.mark.parametrize(
        "argv",
        [["detect"], ["table4", "--full"], ["table5", "--repeat", "2"], ["all"]],
    )
    def test_valid_commands_parse(self, argv):
        args = build_parser().parse_args(argv)
        assert args.command == argv[0]


class TestCommands:
    def test_detect(self, capsys):
        assert main(["detect"]) == 0
        out = capsys.readouterr().out
        assert "TOTAL: 6/6 flagged" in out

    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        assert "NetFlow:" in capsys.readouterr().out

    def test_table4_quick(self, capsys):
        assert main(["table4"]) == 0
        out = capsys.readouterr().out
        assert "false positives: 0" in out
        assert "one variant per family" in out

    def test_indirect(self, capsys):
        assert main(["indirect"]) == 0
        assert "fig2-control-dep" in capsys.readouterr().out

    def test_table5_single_repeat(self, capsys):
        assert main(["table5", "--repeat", "1"]) == 0
        assert "average slowdown" in capsys.readouterr().out

    def test_timeline(self, capsys):
        assert main(["timeline", "reflective"]) == 0
        out = capsys.readouterr().out
        assert "FAROS timeline" in out and "FLAG" in out

    def test_timeline_requires_known_attack(self):
        with pytest.raises(SystemExit):
            main(["timeline", "bogus"])


@pytest.fixture
def no_pool(monkeypatch):
    """Make spawning a worker pool an error (asserts the serial path)."""
    import repro.analysis.supervisor as supervisor

    def _boom(*args, **kwargs):
        raise AssertionError("a worker pool was spawned")

    monkeypatch.setattr(supervisor, "WorkerPool", _boom)


class TestTriageFlags:
    @pytest.mark.parametrize("command", ["detect", "table3", "table4", "compare", "all"])
    def test_flags_parse(self, command):
        args = build_parser().parse_args(
            [command, "--jobs", "4", "--timeout", "30", "--json", "out.json"]
        )
        assert args.jobs == 4
        assert args.timeout == 30.0
        assert args.json == "out.json"

    def test_flag_defaults(self):
        args = build_parser().parse_args(["detect"])
        assert args.jobs == 1 and args.timeout is None and args.json is None

    def test_table2_has_no_triage_flags(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table2", "--jobs", "2"])

    def test_jobs_1_stays_in_process(self, capsys, no_pool):
        # With the pool forbidden, --jobs 1 must still work end to end.
        assert main(["detect", "--jobs", "1"]) == 0
        assert "TOTAL: 6/6 flagged" in capsys.readouterr().out

    def test_jobs_2_spawns_the_pool(self, no_pool):
        with pytest.raises(AssertionError, match="worker pool was spawned"):
            main(["detect", "--jobs", "2"])

    def test_json_to_file_is_parseable(self, capsys, tmp_path):
        out = tmp_path / "table4.json"
        assert main(["table4", "--jobs", "2", "--json", str(out)]) == 0
        assert "false positives: 0" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert payload["command"] == "table4"
        assert payload["jobs"] == 2
        assert len(payload["results"]) == 21
        assert all(r["status"] == "OK" for r in payload["results"])
        assert all(r["verdict"] is False for r in payload["results"])

    def test_json_dash_writes_stdout(self, capsys):
        assert main(["detect", "--jobs", "1", "--json", "-"]) == 0
        out = capsys.readouterr().out
        table, _, blob = out.partition("{")
        assert "TOTAL: 6/6 flagged" in table
        payload = json.loads("{" + blob)
        assert payload["command"] == "detect"
        assert [r["verdict"] for r in payload["results"]] == [True] * 6
