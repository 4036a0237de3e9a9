"""The two closed-loop, in-process workloads: Table V replay and
sample-to-report for the attack roster (cold boot and warm fork)."""

from __future__ import annotations

import json
from typing import Dict, List

from harness import Run, import_probe_s, median, median_ms, now, percentile

from repro.analysis.experiments import OVERHEAD_APPS
from repro.analysis.triage import ATTACK_BUILDER_REGISTRY
from repro.emulator.record_replay import Recording, ReplayDivergence, verify_replay
from repro.emulator.snapshot import MachineSnapshot, snapshot_record, snapshot_replay
from repro.faros import Faros
from repro.obs.metrics import MetricsRegistry
from repro.workloads.behaviors import build_sample_scenario

#: What a command-line analysis run imports before it can start.
PROGRAM_MODULES = ("repro.cli", "repro.analysis.experiments",
                   "repro.analysis.triage", "repro.faros")

#: Table V machines get the same instruction budget as the paper-table run.
TABLE5_BUDGET = 2_000_000

#: The cheapest roster attack: the attack workload's untimed warm-up.
WARMUP_ATTACK = "code_injection"


def _faros(traced: bool) -> Faros:
    """A fresh FAROS plugin; traced runs bind a live registry so the
    interner and flag-cache gauges can be read after each replay."""
    return Faros(metrics=MetricsRegistry(enabled=True) if traced else None)


def _work_counts(faros: Faros, machine) -> Dict[str, float]:
    stats = faros.tracker.stats
    translator = machine.translator
    return {
        "tracked_insns": stats.instructions,
        "slow_insns": stats.slow_retirements,
        "stepped_insns": (translator.taint_single_steps
                          if translator is not None else stats.instructions),
        "instret": machine.now,
        "flags": len(faros.detector.flagged),
        "tainted_bytes": faros.tracker.shadow.tainted_bytes,
    }


def _clean(faros: Faros, machine) -> bool:
    return machine.fault is None and faros.fault_record is None


class _TaintTotals:
    """Per-layer taint figures summed over the passes of a traced run."""

    def __init__(self) -> None:
        self.tracked = self.slow = self.stepped = 0
        self.flags = self.tainted = 0
        self.interner = [0, 0]
        self.flag_cache = [0, 0]

    def add(self, faros: Faros, counts: Dict[str, float]) -> None:
        self.tracked += counts["tracked_insns"]
        self.slow += counts["slow_insns"]
        self.stepped += counts["stepped_insns"]
        self.flags += counts["flags"]
        self.tainted += counts["tainted_bytes"]
        gauges = faros.metrics.snapshot()["gauges"]
        self.interner[0] += gauges.get("taint.interner.hits", 0)
        self.interner[1] += gauges.get("taint.interner.misses", 0)
        self.flag_cache[0] += gauges.get("taint.shadow.flag_cache.hits", 0)
        self.flag_cache[1] += gauges.get("taint.shadow.flag_cache.misses", 0)

    def layer_metrics(self, per: int) -> Dict[str, float]:
        """Ratios over everything added; counts divided by *per* (the
        number of passes or reports they are quoted for)."""

        def rate(pair: List[int]) -> float:
            return pair[0] / sum(pair) if sum(pair) else 0.0

        tracked = max(self.tracked, 1)
        per = max(per, 1)
        return {
            "taint.tracked_insns": self.tracked / per,
            "taint.fused_share": 1.0 - self.stepped / tracked,
            "taint.slow_share": self.slow / tracked,
            "taint.interner_hit_rate": rate(self.interner),
            "taint.flag_cache_hit_rate": rate(self.flag_cache),
            "faros.flags": self.flags / per,
            "faros.tainted_bytes": self.tainted / per,
        }


# ----------------------------------------------------------------------
# table5_replay
# ----------------------------------------------------------------------

def table5_replay(run: Run) -> Dict[str, float]:
    """Table V: plain and FAROS ``Machine.run`` per app, closed loop."""
    span = run.tracer.span
    apps = [app for app, _ in OVERHEAD_APPS]

    def setup():
        import_probe_s(PROGRAM_MODULES)
        scenarios = {}
        for app, behaviors in OVERHEAD_APPS:
            with span("workloads.build", job=app):
                scenarios[app] = build_sample_scenario(
                    app, behaviors, variant=0, max_instructions=TABLE5_BUDGET)
        references = {}
        for app in apps:
            scenario = scenarios[app]
            machine = scenario.build(())
            stats = machine.run(scenario.max_instructions)
            references[app] = Recording(scenario, list(machine.journal),
                                        machine.now, stats)
        # Warm-up: one untimed FAROS replay of the smallest app.
        warm = scenarios[apps[0]]
        warm.build((Faros(),)).run(warm.max_instructions)
        return scenarios, references

    scenarios, references = run.setup(setup)

    faros_by_pass: List[float] = []
    app_ms: List[float] = []
    plain_s = faros_s = 0.0
    plain_instret = 0
    totals = _TaintTotals()
    for _ in run.passes():
        pass_faros = 0.0
        for app in run.rng.sample(apps, len(apps)):
            scenario, reference = scenarios[app], references[app]
            with span("guestos.boot", job=app):
                plain = scenario.build(())
            start = now()
            with span("emulator.record", job=app):
                plain.run(scenario.max_instructions)
            plain_t = now() - start
            run.tick()
            faros = _faros(run.trace)
            with span("guestos.boot", job=app):
                machine = scenario.build((faros,))
            start = now()
            with span("taint.replay", job=app):
                machine.run(scenario.max_instructions)
            faros_t = now() - start
            run.tick()
            with span("emulator.verify", job=app):
                try:
                    verify_replay(reference, plain)
                    verify_replay(reference, machine)
                    replayed = True
                except ReplayDivergence as exc:
                    run.checks.fail(f"table5 {app}: {exc}")
                    replayed = False
                counts = _work_counts(faros, machine)
                ok = (replayed and _clean(faros, machine)
                      and counts["flags"] == 0
                      and run.counts.observe(f"table5:{app}", counts))
            run.checks.op(ok, f"table5 {app}: replay failed its checks")
            pass_faros += faros_t
            app_ms.append(1e3 * faros_t)
            if run.trace:
                totals.add(faros, counts)
                plain_s += plain_t
                faros_s += faros_t
                plain_instret += plain.now
        faros_by_pass.append(pass_faros)

    run.meta["passes"] = len(faros_by_pass)
    run.meta["latency_samples"] = len(app_ms)
    run.meta["latency_tail_percentile"] = 50
    run.meta["faros_replay_s_per_pass"] = faros_by_pass
    layers = {}
    if run.trace:
        tracer = run.tracer
        layers.update(totals.layer_metrics(per=len(faros_by_pass)))
        layers.update({
            "workloads.build_ms": median_ms(tracer, "workloads.build", "setup"),
            "guestos.boot_ms": median_ms(tracer, "guestos.boot"),
            "emulator.record_ms": median_ms(tracer, "emulator.record"),
            "isa.record_kips": plain_instret / plain_s / 1e3 if plain_s else 0.0,
            "taint.replay_ms": median_ms(tracer, "taint.replay"),
            "taint.us_per_tracked_insn": (
                1e6 * (faros_s - plain_s) / totals.tracked
                if totals.tracked else 0.0),
            "table5.overhead_x": faros_s / plain_s if plain_s else 0.0,
        })
    return {
        # 6 / Table V's summed "w/ FAROS" column.
        "jobs_per_s": len(app_ms) / (sum(app_ms) / 1e3),
        "latency_p50_ms": median(app_ms),
        # ~30 samples a run: no percentile above the median has ten
        # samples beyond it, so the tail is the median itself.
        "latency_tail_ms": percentile(app_ms, 50),
        "layers": layers,
    }


# ----------------------------------------------------------------------
# attack_reports
# ----------------------------------------------------------------------

#: The cold latencies fall in three bands: five attacks near 0.1 s, then
#: reverse_tcp_dns, then process_hollowing, each band 1/7 of the
#: samples.  p80 sits mid-band (a percentile at a band edge would jump
#: between bands from run to run) and keeps ten samples beyond it at
#: the 60-100 cold reports of a run.
ATTACK_TAIL_PERCENTILE = 80


def _report_json(faros: Faros) -> str:
    return json.dumps(faros.report().to_json_dict(), sort_keys=True)


def attack_reports(run: Run) -> Dict[str, float]:
    """Sample-to-report for the seven roster attacks, cold and warm."""
    span = run.tracer.span
    names = list(ATTACK_BUILDER_REGISTRY)

    def cold(name: str, traced: bool):
        with span("attacks.build", job=name):
            scenario = ATTACK_BUILDER_REGISTRY[name]().scenario
        with span("guestos.boot", job=name):
            machine = scenario.build(())
        with span("emulator.record", job=name):
            stats = machine.run(scenario.max_instructions)
        recording = Recording(scenario, list(machine.journal), machine.now, stats)
        faros = _faros(traced)
        with span("guestos.boot", job=name):
            replayed = scenario.build((faros,))
        with span("taint.replay", job=name):
            replayed.run(scenario.max_instructions)
        with span("emulator.verify", job=name):
            verify_replay(recording, replayed)
        with span("faros.report", job=name):
            report = _report_json(faros)
        return faros, replayed, report, machine

    def warm(name: str, snapshot: MachineSnapshot, traced: bool):
        with span("snapshot.fork", job=name):
            machine = snapshot.fork(plugins=())
        with span("emulator.record", job=name):
            recording = snapshot_record(snapshot, machine=machine)
        faros = _faros(traced)
        with span("snapshot.fork", job=name):
            replayed = snapshot.fork(plugins=(faros,))
        with span("taint.replay", job=name):
            snapshot_replay(snapshot, recording, machine=replayed, verify=False)
        with span("emulator.verify", job=name):
            verify_replay(recording, replayed)
        with span("faros.report", job=name):
            report = _report_json(faros)
        return faros, replayed, report, machine

    def setup():
        import_probe_s(PROGRAM_MODULES)
        snapshots = {}
        for name in names:
            with span("attacks.build", job=name):
                scenario = ATTACK_BUILDER_REGISTRY[name]().scenario
            with span("snapshot.capture", job=name):
                snapshots[name] = MachineSnapshot.capture(scenario, name=name)
        # Warm-up: one untimed cold and warm report of the cheapest attack.
        cold(WARMUP_ATTACK, False)
        warm(WARMUP_ATTACK, snapshots[WARMUP_ATTACK], False)
        return snapshots

    snapshots = run.setup(setup)

    report_ms: Dict[str, List[float]] = {"cold": [], "warm": []}
    record_instret = reports_built = 0
    totals = _TaintTotals()
    for _ in run.passes():
        for name in run.rng.sample(names, len(names)):
            built = []
            for path in ("cold", "warm"):
                start = now()
                try:
                    if path == "cold":
                        faros, machine, report, plain = cold(name, run.trace)
                    else:
                        faros, machine, report, plain = warm(
                            name, snapshots[name], run.trace)
                except ReplayDivergence as exc:
                    run.checks.op(False, f"{name} {path}: {exc}")
                    continue
                report_ms[path].append(1e3 * (now() - start))
                counts = _work_counts(faros, machine)
                ok = (faros.attack_detected and _clean(faros, machine)
                      and run.counts.observe(f"attack:{name}", counts))
                run.checks.op(ok, f"{name} {path}: not flagged, degraded, "
                                  f"or its work counts drifted")
                built.append(report)
                if run.trace:
                    totals.add(faros, counts)
                    record_instret += plain.now
                    reports_built += 1
                run.tick()
            if len(built) == 2 and built[0] != built[1]:
                run.checks.fail(f"{name}: warm report differs from cold")

    run.meta["passes"] = len(run.pass_walls)
    run.meta["latency_samples"] = len(report_ms["cold"])
    run.meta["latency_tail_percentile"] = ATTACK_TAIL_PERCENTILE
    layers = {}
    if run.trace:
        tracer = run.tracer
        record_s = sum(tracer.durations("emulator.record"))
        replay_s = sum(tracer.durations("taint.replay"))
        layers.update(totals.layer_metrics(per=reports_built))
        layers.update({
            "attacks.build_ms": median_ms(tracer, "attacks.build"),
            "guestos.boot_ms": median_ms(tracer, "guestos.boot"),
            "emulator.record_ms": median_ms(tracer, "emulator.record"),
            "isa.record_kips": record_instret / record_s / 1e3 if record_s else 0.0,
            "taint.replay_ms": median_ms(tracer, "taint.replay"),
            "taint.us_per_tracked_insn": (
                1e6 * (replay_s - record_s) / totals.tracked
                if totals.tracked else 0.0),
            "faros.report_ms": median_ms(tracer, "faros.report"),
            "snapshot.capture_ms": median_ms(tracer, "snapshot.capture", "setup"),
            "snapshot.fork_ms": median_ms(tracer, "snapshot.fork"),
        })
        warm_ms = report_ms["warm"]
        layers["attack.warm_report_ms_p50"] = median(warm_ms)
        layers["attack.warm_report_ms_tail"] = percentile(
            warm_ms, ATTACK_TAIL_PERCENTILE)
    cold_ms = report_ms["cold"]
    every_ms = cold_ms + report_ms["warm"]
    return {
        # Reports, cold and warm, per second spent building them.
        "jobs_per_s": len(every_ms) / (sum(every_ms) / 1e3),
        "latency_p50_ms": median(cold_ms),
        "latency_tail_ms": percentile(cold_ms, ATTACK_TAIL_PERCENTILE),
        "layers": layers,
    }
