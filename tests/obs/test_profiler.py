"""Hot-block profiler: a read-out of the translation cache, deterministic
under record/replay, and invisible to how the machine executes."""

import pytest

from repro.analysis.triage import ATTACK_BUILDER_REGISTRY
from repro.emulator.machine import Machine, MachineConfig
from repro.emulator.record_replay import record, replay
from repro.faros import Faros
from repro.obs.profiler import HotBlockProfiler
from repro.obs.session import ObsSession


@pytest.fixture(scope="module")
def recording():
    return record(ATTACK_BUILDER_REGISTRY["code_injection"]().scenario)


def _profile_replay(recording):
    session = ObsSession.create(enabled=True)
    faros = Faros(metrics=session.registry)
    machine = replay(recording, plugins=session.plugins_for(faros),
                     metrics=session.registry)
    return session, faros, machine


class TestDeterminism:
    def test_top_n_identical_across_replays(self, recording):
        # Two independent replays of the same recording must rank the
        # same blocks with the same counts -- the record/replay
        # substrate is deterministic and the ranking is a total order.
        first = _profile_replay(recording)[0].profiler
        second = _profile_replay(recording)[0].profiler
        assert first.snapshot(50) == second.snapshot(50)

    def test_ranking_is_a_total_order(self, recording):
        top = _profile_replay(recording)[0].profiler.top(50)
        keys = [(-b.retired, -b.taint_slow, b.start_pc) for b in top]
        assert keys == sorted(keys)
        # Start addresses are unique, so no two rows can tie completely.
        assert len({b.start_pc for b in top}) == len(top)


class TestSessionWiring:
    def test_plugins_for_orders_profiler_after_tracker(self, recording):
        session = ObsSession.create(enabled=True)
        faros = Faros(metrics=session.registry)
        assert session.plugins_for(faros) == [faros, session.profiler]

    def test_disabled_session_has_no_profiler(self):
        session = ObsSession.create(enabled=False)
        faros = Faros()
        assert session.profiler is None
        assert session.plugins_for(faros) == [faros]
        assert session.snapshot()["hot_blocks"] is None

    def test_snapshot_carries_taint_attribution(self, recording):
        session = _profile_replay(recording)[0]
        snap = session.snapshot()
        top = snap["hot_blocks"]["top"]
        assert top, "an attack replay must surface hot blocks"
        attributed = sum(b["taint_slow"] for b in top)
        assert 0 < attributed <= snap["gauges"]["taint.slow_retirements"]

    def test_profiler_leaves_faros_on_the_taint_tier(self):
        # The profiler implements no per-instruction hook, so with it
        # registered after FAROS the plan is still the taint tier --
        # never the interpreter's "full" fan-out.
        machine = Machine(MachineConfig())
        faros = machine.plugins.register(Faros())
        machine.plugins.register(HotBlockProfiler())
        assert machine.plugins.plan == ("taint", faros.tracker)


class TestPassiveMode:
    """The profiler is passive: every count comes off the cache."""

    def test_passive_attributes_from_translation_cache(self, recording):
        session, faros, machine = _profile_replay(recording)
        translator = machine.translator
        assert translator.taint_executions > 0
        assert translator.taint_single_steps == 0
        retired, names = {}, {}
        processes = {p.aspace: p.name for p in machine.kernel.processes.values()}
        for space, blocks in translator.spaces():
            for block in blocks:
                if block.exec_count:
                    retired[block.start_pc] = retired.get(block.start_pc, 0) + block.retired
                    names.setdefault(block.start_pc, set()).add(processes[space])
        top = session.profiler.top(10)
        assert top
        for entry in top:
            assert entry.retired == retired[entry.start_pc]
            assert entry.processes == sorted(names[entry.start_pc])

    @pytest.mark.parametrize(
        "attack, exact",
        [("reverse_tcp_dns", True), ("process_hollowing", False)],
    )
    def test_taint_slow_accounts_the_tracker(self, attack, exact):
        # Every slow retirement is charged to the block that ran it, so
        # the cache's blocks hold the tracker's whole count on a run
        # that invalidated nothing, and at most it once a code write
        # dropped blocks (process hollowing rewrites its victim).
        session, faros, machine = _profile_replay(
            record(ATTACK_BUILDER_REGISTRY[attack]().scenario)
        )
        translator = machine.translator
        attributed = sum(block.taint_slow for block in translator.blocks())
        total = faros.tracker.stats.slow_retirements
        assert total > 0
        assert (translator.invalidations == 0) is exact
        if exact:
            assert attributed == total
        else:
            assert 0 < attributed <= total
        snap = session.profiler.snapshot(10_000)
        assert sum(b["taint_slow"] for b in snap["top"]) == attributed
        assert snap["blocks_seen"] == len(snap["top"])
