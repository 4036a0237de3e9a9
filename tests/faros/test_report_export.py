"""Tests for the machine-readable report export."""

import json

import pytest

from repro.attacks import build_drop_reload_scenario, build_reflective_dll_scenario
from repro.faros import Faros
from repro.faros.report import ProvenanceChain, ReportSummary


@pytest.fixture(scope="module")
def report():
    faros = Faros()
    build_reflective_dll_scenario().scenario.run(plugins=[faros])
    return faros.report()


class TestToDict:
    def test_json_serialisable(self, report):
        text = json.dumps(report.to_json_dict())
        assert "attack_detected" in text

    def test_top_level_fields(self, report):
        d = report.to_json_dict()
        assert d["attack_detected"] is True
        assert d["instructions_analyzed"] > 0
        assert d["tainted_bytes"] > 0
        assert set(d["tag_map_sizes"]) == {"netflow", "process", "file", "export"}

    def test_flag_entries_complete(self, report):
        flag = report.to_json_dict()["flags"][0]
        assert flag["executing_process"] == "notepad.exe"
        assert flag["instruction"].startswith("ld")
        assert flag["rule"] == "netflow+export-table"
        assert any(p.startswith("NetFlow:") for p in flag["provenance"])

    def test_chain_entries_complete(self, report):
        chain = report.to_json_dict()["chains"][0]
        assert chain["netflow"].startswith("169.254.26.161:4444")
        assert chain["process_chain"] == ["inject_client.exe", "notepad.exe"]
        assert chain["resolved_function"] == "WriteConsoleA"

    def test_stitched_fields_in_export(self):
        faros = Faros()
        build_drop_reload_scenario().scenario.run(plugins=[faros])
        chain = faros.report().to_json_dict()["chains"][0]
        assert chain["netflow"] is None
        assert chain["stitched_netflow"].startswith("169.254.26.161")
        assert "dropper.exe" in chain["upstream_processes"]

    def test_clean_report_export(self):
        from repro.emulator.record_replay import Scenario
        from tests.conftest import register_asm

        def setup(machine):
            register_asm(machine, "c.exe", "start: movi r1, 0\nmovi r0, SYS_EXIT\nsyscall")
            machine.kernel.spawn("c.exe")

        faros = Faros()
        Scenario(name="clean", setup=setup).run(plugins=[faros])
        d = faros.report().to_json_dict()
        assert d["attack_detected"] is False
        assert d["flags"] == [] and d["chains"] == []


class TestSummaryRoundTrip:
    """The cross-process result channel: ``to_json_dict`` -> JSON -> summary
    must reconstruct exactly what the in-process report says, for every
    attack in the §VI roster."""

    @pytest.fixture(scope="class")
    def attack_reports(self):
        from repro.analysis.experiments import ATTACK_BUILDERS

        reports = {}
        for name, build in ATTACK_BUILDERS:
            faros = Faros()
            build().scenario.run(plugins=[faros])
            reports[name] = faros.report()
        return reports

    def test_covers_the_full_attack_roster(self, attack_reports):
        assert len(attack_reports) == 6

    def test_summary_round_trips_for_every_attack(self, attack_reports):
        for name, report in attack_reports.items():
            wire = json.loads(json.dumps(report.to_json_dict()))
            rebuilt = ReportSummary.from_json_dict(wire)
            assert rebuilt == report.summary(), name

    def test_rebuilt_summary_matches_in_process_values(self, attack_reports):
        for name, report in attack_reports.items():
            rebuilt = ReportSummary.from_json_dict(report.to_json_dict())
            assert rebuilt.attack_detected is report.attack_detected, name
            assert rebuilt.instructions_analyzed == report.instructions_analyzed
            assert rebuilt.tainted_bytes == report.tainted_bytes
            assert rebuilt.tag_map_sizes == report.tag_map_sizes
            assert rebuilt.chains == report.chains(), name

    def test_summary_export_matches_report_export(self, attack_reports):
        for name, report in attack_reports.items():
            assert report.summary().to_json_dict() == report.to_json_dict(), name

    def test_chain_dict_round_trip(self, attack_reports):
        for report in attack_reports.values():
            for chain in report.chains():
                clone = ProvenanceChain.from_json_dict(
                    json.loads(json.dumps(chain.to_json_dict()))
                )
                assert clone == chain


class TestCliJson:
    def test_timeline_json_flag(self, capsys):
        from repro.cli import main

        assert main(["timeline", "reflective", "--json"]) == 0
        out = capsys.readouterr().out
        # The JSON document starts at the first line that is exactly "{"
        # (the human-readable render above uses braces mid-line).
        payload = json.loads(out[out.index("\n{\n") + 1:])
        assert payload["command"] == "timeline"
        assert payload["report"]["attack_detected"] is True
        assert payload["timeline"], "timeline events should be exported"
