"""Command-line interface: ``python -m repro <command>``.

One subcommand per paper artifact, so the whole evaluation can be
regenerated from a shell::

    python -m repro detect        # Figs. 7-10: the six attacks
    python -m repro table2        # FAROS output sample
    python -m repro table3        # JIT false positives
    python -m repro table4        # corpus false positives (--full: all 104)
    python -m repro table5        # overhead measurement
    python -m repro compare       # FAROS vs Cuckoo vs Cuckoo+malfind
    python -m repro indirect      # Figs. 1-2 policy dilemma
    python -m repro evasion       # §VI-D evasion studies
    python -m repro stats         # observability snapshot for one attack
    python -m repro all           # everything above

**Uniform flags.**  Every experiment subcommand accepts ``--json [OUT]``
-- write the machine-readable results to OUT, ``-`` (the default when
the flag is given bare) meaning stdout.  The batch commands (``detect``,
``table3``, ``table4``, ``compare``, ``all``) also accept ``--jobs N``
to shard samples over N worker processes (output is byte-identical to
serial), ``--timeout S`` for a per-sample wall-clock bound, and
``--metrics`` to collect per-job observability telemetry (counters,
phase spans, hot blocks) into each result row.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, List, Optional


def _triage_kwargs(args: argparse.Namespace) -> dict:
    return {
        "jobs": getattr(args, "jobs", 1),
        "timeout": getattr(args, "timeout", None),
        "metrics": getattr(args, "metrics", False),
    }


def _triage_payload(command: str, args: argparse.Namespace, rows) -> dict:
    return {
        "command": command,
        "jobs": getattr(args, "jobs", 1),
        "timeout": getattr(args, "timeout", None),
        "results": [row.result.to_json_dict() for row in rows if row.result],
    }


def _cmd_detect(args: argparse.Namespace) -> Optional[dict]:
    from repro.analysis.experiments import detection_suite
    from repro.analysis.tables import render_detection_suite

    rows = detection_suite(**_triage_kwargs(args))
    print(render_detection_suite(rows))
    return _triage_payload("detect", args, rows)


def _cmd_table2(args: argparse.Namespace) -> Optional[dict]:
    from repro.analysis.experiments import table2_analysis

    analysis = table2_analysis(metrics=getattr(args, "metrics", False))
    print(analysis.report.render())
    return {
        "command": "table2",
        "attack": analysis.name,
        "detected": analysis.detected,
        "report": analysis.report.to_json_dict(),
    }


def _cmd_table3(args: argparse.Namespace) -> Optional[dict]:
    from repro.analysis.experiments import jit_fp_experiment
    from repro.analysis.tables import render_table3

    rows = jit_fp_experiment(**_triage_kwargs(args))
    print(render_table3(rows))
    return _triage_payload("table3", args, rows)


def _cmd_table4(args: argparse.Namespace) -> Optional[dict]:
    from repro.analysis.experiments import corpus_fp_experiment
    from repro.analysis.tables import render_table4

    limit = None if args.full else 21
    if not args.full:
        print("(one variant per family; pass --full for all 104 samples)")
    rows = corpus_fp_experiment(limit=limit, **_triage_kwargs(args))
    print(render_table4(rows))
    return _triage_payload("table4", args, rows)


def _cmd_table5(args: argparse.Namespace) -> Optional[dict]:
    from repro.analysis.experiments import overhead_experiment
    from repro.analysis.tables import render_table5

    rows = overhead_experiment(repeat=args.repeat)
    print(render_table5(rows))
    return {
        "command": "table5",
        "repeat": args.repeat,
        "results": [
            {
                "application": row.application,
                "replay_seconds": row.replay_seconds,
                "faros_seconds": row.faros_seconds,
                "instructions": row.instructions,
                "slowdown": row.slowdown,
            }
            for row in rows
        ],
    }


def _cmd_compare(args: argparse.Namespace) -> Optional[dict]:
    from repro.analysis.experiments import comparison_matrix
    from repro.analysis.tables import render_comparison_matrix

    rows = comparison_matrix(include_transient=True, **_triage_kwargs(args))
    print(render_comparison_matrix(rows))
    return _triage_payload("compare", args, rows)


def _cmd_indirect(args: argparse.Namespace) -> Optional[dict]:
    from repro.analysis.indirect_flows import (
        indirect_flow_experiment,
        render_indirect_flow_table,
    )

    results = indirect_flow_experiment()
    print(render_indirect_flow_table(results))
    return {
        "command": "indirect",
        "results": [
            {
                "figure": r.figure,
                "policy": r.policy,
                "output_tainted": r.output_tainted,
                "output_value_correct": r.output_value_correct,
                "tainted_bytes": r.tainted_bytes,
            }
            for r in results
        ],
    }


def _cmd_evasion(args: argparse.Namespace) -> Optional[dict]:
    from repro.analysis.evasion import (
        stub_scanner_experiment,
        tag_pressure_experiment,
        taint_laundering_experiment,
    )

    laundering = taint_laundering_experiment()
    print("E12a -- control-dependency taint laundering (§VI-D)")
    print(f"  stage executed            : {laundering.stage_ran}")
    print(f"  default policy detected   : {laundering.default_policy_detected}")
    print(f"  control-dep policy caught : {laundering.control_dep_policy_detected}")
    print()
    scanner = stub_scanner_experiment()
    print("E12b -- stub-scanning resolver (export table avoided)")
    print(f"  stage executed            : {scanner.stage_ran}")
    print(f"  default policy detected   : {scanner.default_policy_detected}")
    print(f"  kernel-code policy caught : {scanner.kernel_code_policy_detected}")
    print()
    pressure = tag_pressure_experiment()
    print("E12c -- tag-memory pressure")
    print(f"  file tags minted          : {pressure.file_tags}")
    print(f"  netflow tags minted       : {pressure.netflow_tags}")
    print(f"  map capacity (per type)   : {pressure.map_capacity}")
    return {
        "command": "evasion",
        "laundering": {
            "stage_ran": laundering.stage_ran,
            "default_policy_detected": laundering.default_policy_detected,
            "control_dep_policy_detected": laundering.control_dep_policy_detected,
        },
        "stub_scanner": {
            "stage_ran": scanner.stage_ran,
            "default_policy_detected": scanner.default_policy_detected,
            "kernel_code_policy_detected": scanner.kernel_code_policy_detected,
        },
        "tag_pressure": {
            "file_tags": pressure.file_tags,
            "netflow_tags": pressure.netflow_tags,
            "process_tags": pressure.process_tags,
            "tainted_bytes": pressure.tainted_bytes,
            "map_capacity": pressure.map_capacity,
        },
    }


_TIMELINE_ATTACKS = {
    "reflective": "build_reflective_dll_scenario",
    "hollowing": "build_process_hollowing_scenario",
    "code": "build_code_injection_scenario",
    "dropper": "build_drop_reload_scenario",
    "atombombing": "build_atombombing_scenario",
}


def _cmd_timeline(args: argparse.Namespace) -> Optional[dict]:
    import repro.attacks as attacks
    from repro.faros import Faros
    from repro.obs.session import ObsSession

    builder = getattr(attacks, _TIMELINE_ATTACKS[args.attack])
    session = ObsSession.create(enabled=getattr(args, "metrics", False))
    with session.span("boot"):
        attack = builder()
    faros = Faros(metrics=session.registry)
    with session.span("detection"):
        attack.scenario.run(plugins=session.plugins_for(faros),
                            metrics=session.registry)
    with session.span("report"):
        report = faros.report()
    if session.enabled:
        report.metrics = session.snapshot()
    print(faros.render_timeline())
    print()
    print(report.render())
    return {
        "command": "timeline",
        "attack": args.attack,
        "timeline": [
            {"tick": e.tick, "kind": e.kind, "description": e.description}
            for e in faros.timeline
        ],
        "report": report.to_json_dict(),
    }


#: The attack roster ``repro stats`` can profile (the triage engine's
#: attack-kind builders; kept literal so parsing stays import-free).
_STATS_ATTACKS = (
    "bypassuac_injection",
    "code_injection",
    "darkcomet_injection",
    "njrat_injection",
    "process_hollowing",
    "reflective_dll_inject",
    "reverse_tcp_dns",
)


def _cmd_stats(args: argparse.Namespace) -> Optional[dict]:
    """One fully instrumented attack analysis, rendered as a snapshot.

    Runs through :func:`~repro.analysis.triage.execute_job` -- the same
    code path a ``--metrics`` triage batch uses -- so the numbers here
    are identical to what the triage JSON export carries for this job.
    """
    from repro.analysis.triage import TriageJob, execute_job
    from repro.obs.render import render_snapshot

    job = TriageJob(
        job_id=0, name=args.attack, kind="attack",
        params={
            "attack": args.attack,
            "metrics": True,
            "top_blocks": args.top,
        },
    )
    result = execute_job(job)
    if not result.ok:
        print(f"stats run failed: {result.error}", file=sys.stderr)
        raise SystemExit(1)
    print(render_snapshot(result.metrics, title=f"{args.attack} snapshot"))
    print(f"-- verdict: {'FLAGGED' if result.verdict else 'clean'}, "
          f"wall clock {result.duration_s:.3f}s")
    return {
        "command": "stats",
        "attack": args.attack,
        "result": result.to_json_dict(),
    }


def _cmd_chaos(args: argparse.Namespace) -> Optional[dict]:
    """The fault-injection matrix: every attack under every fault spec.

    ``--smoke`` additionally asserts the degradation contract (no ERROR
    rows, every faulted row carries a fault record, always-firing specs
    fire) plus a replay-determinism probe, exiting 1 on any violation.
    """
    from repro.analysis.chaos import (
        FAULT_SPECS,
        render_chaos_matrix,
        replay_determinism_probe,
        run_chaos_matrix,
        smoke_violations,
    )

    results = run_chaos_matrix(
        attacks=args.attack or None,
        fault_names=args.fault or None,
        jobs=args.jobs,
        timeout=args.timeout,
        metrics=getattr(args, "metrics", False),
    )
    print(render_chaos_matrix(results))
    payload = {
        "command": "chaos",
        "jobs": args.jobs,
        "timeout": args.timeout,
        "specs": {name: spec.description for name, spec in FAULT_SPECS.items()},
        "results": [r.to_json_dict() for r in results],
    }
    if args.smoke:
        violations = list(smoke_violations(results))
        probe_attack = (args.attack or ["reflective_dll_inject"])[0]
        # Harness columns are host-layer and deliberately nondeterministic
        # (worker pids, kill ticks); the byte-identity probe only applies
        # to plan-driven specs.
        plan_faults = [name for name in (args.fault or ["syscall-fault"])
                       if FAULT_SPECS[name].harness is None]
        if plan_faults:
            identical, detail = replay_determinism_probe(
                probe_attack, plan_faults[0])
        else:
            identical, detail = True, "skipped: only harness specs selected"
        print(f"replay determinism probe: {detail}")
        if not identical:
            violations.append(f"determinism probe failed: {detail}")
        payload["violations"] = violations
        payload["determinism_probe"] = {"ok": identical, "detail": detail}
        if violations:
            for v in violations:
                print(f"VIOLATION: {v}", file=sys.stderr)
            destination = getattr(args, "json", None)
            if isinstance(destination, str):
                _write_json(destination, payload)
            raise SystemExit(1)
        print("chaos smoke: degradation contract held across "
              f"{len(results)} cells")
    return payload


def _cmd_serve(args: argparse.Namespace) -> Optional[dict]:
    """The crash-safe triage service (or its end-to-end smoke).

    Plain ``repro serve --socket S --journal J`` blocks until a client
    sends the ``shutdown`` op; ``--smoke`` instead drives the full
    kill-and-restart scenario against a child service and exits 1 on
    any lost job, duplicated execution, or baseline mismatch.
    """
    from repro.serve.service import ServeConfig, run_service, run_smoke

    if args.smoke:
        import tempfile

        workdir = args.workdir or tempfile.mkdtemp(prefix="repro-serve-smoke-")
        try:
            summary = run_smoke(workdir, workers=args.jobs)
        except AssertionError as exc:
            print(f"serve smoke FAILED: {exc}", file=sys.stderr)
            raise SystemExit(1)
        print("serve smoke: mixed batch + injected crash + kill/restart "
              f"resume all held ({summary['phase1_jobs']} + "
              f"{summary['phase2_jobs']} jobs, exactly-once)")
        return {"command": "serve", "smoke": summary}
    if not args.socket or not args.journal:
        raise SystemExit("repro serve: --socket and --journal are required "
                         "(or use --smoke)")
    run_service(ServeConfig(
        socket_path=args.socket,
        journal_path=args.journal,
        workers=args.jobs,
        timeout=args.timeout,
        max_inflight=args.max_inflight,
        max_queued=args.max_queued,
        tenant_quota=args.quota,
    ))
    return None


def _cmd_all(args: argparse.Namespace) -> Optional[dict]:
    payloads = {}
    for name in ("detect", "table2", "table3", "table4", "table5", "compare",
                 "indirect", "evasion"):
        print(f"\n{'=' * 70}\n== {name}\n{'=' * 70}")
        payload = _COMMANDS[name](args)
        if payload is not None:
            payloads[name] = payload
    return {"command": "all", "results": payloads}


_COMMANDS: Dict[str, Callable[[argparse.Namespace], Optional[dict]]] = {
    "detect": _cmd_detect,
    "table2": _cmd_table2,
    "table3": _cmd_table3,
    "table4": _cmd_table4,
    "table5": _cmd_table5,
    "compare": _cmd_compare,
    "indirect": _cmd_indirect,
    "evasion": _cmd_evasion,
    "timeline": _cmd_timeline,
    "stats": _cmd_stats,
    "chaos": _cmd_chaos,
    "serve": _cmd_serve,
    "all": _cmd_all,
}


def _add_json_flag(sub: argparse.ArgumentParser) -> None:
    """The uniform ``--json [OUT]`` contract every subcommand shares:
    bare ``--json`` means stdout, ``--json PATH`` writes a file."""
    sub.add_argument(
        "--json", nargs="?", const="-", default=None, metavar="OUT",
        help="also write machine-readable results as JSON "
             "(to OUT, or stdout when no OUT is given)",
    )


def _add_metrics_flag(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--metrics", action="store_true",
        help="collect observability telemetry (counters, phase spans, "
             "hot blocks) into the results",
    )


def _add_triage_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="shard samples over N worker processes (1 = in-process serial)",
    )
    sub.add_argument(
        "--timeout", type=float, default=None, metavar="S",
        help="per-sample wall-clock timeout in seconds (needs --jobs >= 2)",
    )
    _add_metrics_flag(sub)
    _add_json_flag(sub)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="FAROS reproduction: regenerate the paper's evaluation artifacts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    detect = sub.add_parser("detect", help="run the six in-memory attacks under FAROS")
    _add_triage_flags(detect)
    table2 = sub.add_parser("table2", help="FAROS provenance output sample")
    _add_metrics_flag(table2)
    _add_json_flag(table2)
    table3 = sub.add_parser("table3", help="JIT false-positive study")
    _add_triage_flags(table3)
    table4 = sub.add_parser("table4", help="corpus false-positive study")
    table4.add_argument("--full", action="store_true", help="run all 104 samples")
    _add_triage_flags(table4)
    table5 = sub.add_parser("table5", help="FAROS overhead measurement")
    table5.add_argument("--repeat", type=int, default=5, help="timing rounds per application (5 at least)")
    _add_json_flag(table5)
    compare = sub.add_parser("compare", help="FAROS vs Cuckoo vs Cuckoo+malfind")
    _add_triage_flags(compare)
    indirect = sub.add_parser("indirect", help="Figs. 1-2 indirect-flow dilemma")
    _add_json_flag(indirect)
    evasion = sub.add_parser("evasion", help="§VI-D evasion studies")
    _add_json_flag(evasion)
    timeline = sub.add_parser("timeline", help="analysis timeline for one attack")
    timeline.add_argument(
        "attack",
        choices=sorted(_TIMELINE_ATTACKS),
        help="which attack scenario to analyse",
    )
    _add_metrics_flag(timeline)
    _add_json_flag(timeline)
    stats = sub.add_parser(
        "stats", help="instrumented analysis of one attack (metrics snapshot)"
    )
    stats.add_argument(
        "attack", choices=_STATS_ATTACKS, help="which attack to analyse"
    )
    stats.add_argument(
        "--top", type=int, default=10, metavar="N",
        help="how many hot blocks to rank (default 10)",
    )
    _add_json_flag(stats)
    chaos = sub.add_parser(
        "chaos",
        help="fault-injection matrix: attacks x deterministic fault specs",
    )
    chaos.add_argument(
        "--attack", action="append", choices=_STATS_ATTACKS, metavar="NAME",
        help="restrict to this attack (repeatable; default: all)",
    )
    chaos.add_argument(
        "--fault", action="append", metavar="SPEC",
        help="restrict to this fault spec (repeatable; default: all)",
    )
    chaos.add_argument(
        "--smoke", action="store_true",
        help="assert the degradation contract and replay determinism; "
             "exit 1 on any violation",
    )
    _add_triage_flags(chaos)
    serve = sub.add_parser(
        "serve",
        help="crash-safe triage service: journaled queue over a Unix socket",
    )
    serve.add_argument(
        "--socket", metavar="PATH", default=None,
        help="Unix socket path to listen on",
    )
    serve.add_argument(
        "--journal", metavar="PATH", default=None,
        help="job journal path (created on first run, replayed on restart)",
    )
    serve.add_argument(
        "--jobs", type=int, default=2, metavar="N",
        help="supervised worker processes (default 2)",
    )
    serve.add_argument(
        "--timeout", type=float, default=None, metavar="S",
        help="per-job wall-clock timeout in seconds",
    )
    serve.add_argument(
        "--max-inflight", type=int, default=None, metavar="N",
        help="concurrent dispatched jobs (default: worker count)",
    )
    serve.add_argument(
        "--max-queued", type=int, default=1024, metavar="N",
        help="queued jobs before submits are rejected (default 1024)",
    )
    serve.add_argument(
        "--quota", type=int, default=None, metavar="N",
        help="outstanding-job quota per tenant (default: none)",
    )
    serve.add_argument(
        "--smoke", action="store_true",
        help="run the end-to-end smoke (mixed batch, injected worker "
             "crash, kill-and-restart resume); exit 1 on any violation",
    )
    serve.add_argument(
        "--workdir", metavar="DIR", default=None,
        help="--smoke working directory (default: a fresh temp dir)",
    )
    _add_json_flag(serve)
    everything = sub.add_parser("all", help="regenerate every artifact")
    everything.add_argument("--full", action="store_true", help="full corpus")
    everything.add_argument("--repeat", type=int, default=5)
    _add_triage_flags(everything)
    return parser


def _write_json(destination: str, payload: dict) -> None:
    import json

    text = json.dumps(payload, indent=2, sort_keys=True)
    if destination == "-":
        print(text)
    else:
        with open(destination, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    payload = _COMMANDS[args.command](args)
    destination = getattr(args, "json", None)
    if payload is not None and isinstance(destination, str):
        _write_json(destination, payload)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
