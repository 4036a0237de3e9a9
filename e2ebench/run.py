"""End-to-end benchmark of the FAROS reproduction.

Run from the root of a checkout::

    python3 e2ebench/run.py --workload table5_replay --seed 1 --seconds 15 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the per-layer split.  The line before it holds the run's metadata, and
the full record (plus spans when traced) is written under
``.bench_out/``.  See ``e2ebench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import harness  # noqa: E402  (needs the path entry above)
import yardstick  # noqa: E402

WORKLOADS = ("table5_replay", "attack_reports", "corpus_batch", "serve_mixed")

END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("jobs_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
)

PER_LAYER = (
    ("attacks.build_ms", "ms"),
    ("workloads.build_ms", "ms"),
    ("guestos.boot_ms", "ms"),
    ("emulator.record_ms", "ms"),
    ("isa.record_kips", "kinsn/s"),
    ("taint.replay_ms", "ms"),
    ("taint.tracked_insns", "count"),
    ("taint.fused_share", "ratio"),
    ("taint.slow_share", "ratio"),
    ("taint.us_per_tracked_insn", "us"),
    ("taint.interner_hit_rate", "ratio"),
    ("taint.flag_cache_hit_rate", "ratio"),
    ("faros.flags", "count"),
    ("faros.tainted_bytes", "count"),
    ("faros.report_ms", "ms"),
    ("snapshot.capture_ms", "ms"),
    ("snapshot.fork_ms", "ms"),
    ("attack.warm_report_ms_p50", "ms"),
    ("attack.warm_report_ms_tail", "ms"),
    ("analysis.job_ms_p50", "ms"),
    ("analysis.job_ms_p90", "ms"),
    ("analysis.pool_busy_share", "ratio"),
    ("serve.startup_s", "s"),
    ("serve.ack_ms_p50", "ms"),
    ("serve.ack_ms_p90", "ms"),
    ("serve.queue_ms_p50", "ms"),
    ("serve.queue_ms_p90", "ms"),
    ("serve.exec_ms_p50", "ms"),
    ("serve.warm_share", "ratio"),
    ("serve.journal_bytes_per_job", "B"),
    ("serve.generator_lag_ms", "ms"),
    ("table5.overhead_x", "x"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_ms", "ms"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def workload_fn(name: str):
    if name in ("table5_replay", "attack_reports"):
        import inprocess as module
    else:
        import multiprocess as module
    return getattr(module, name)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(harness.SRC, "repro", "__init__.py")):
        print(f"e2ebench: no program sources under {harness.SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, harness.SRC)
    os.chdir(harness.ROOT)

    run = harness.Run(args.seed, args.seconds, bool(args.trace))
    wall_start = harness.now()
    try:
        outcome = workload_fn(args.workload)(run)
    except Exception:  # a crashed workload is a failed run, not a result
        traceback.print_exc()
        return 1
    wall = harness.now() - wall_start

    run.counts.compare_expected(harness.load_expected_counts())

    measured = {
        "setup_s": run.setup_s,
        "peak_rss_mb": harness.peak_rss_mb(outcome.get("children_peak_kb", 0)),
        "jobs_per_s": outcome["jobs_per_s"],
        "latency_p50_ms": outcome["latency_p50_ms"],
        "latency_tail_ms": outcome["latency_tail_ms"],
    }
    # Timings at the yardstick's nominal host speed (yardstick.py); the
    # metadata keeps them as measured.  Traced runs take no samples.
    factor = (yardstick.factor(run.speed_samples) if run.speed_samples
              else None)
    values = dict(measured)
    if factor is not None:
        for name in ("setup_s", "latency_p50_ms", "latency_tail_ms"):
            values[name] = measured[name] * factor
        values["jobs_per_s"] = measured["jobs_per_s"] / factor
    layers = {}
    if run.trace:
        layers.update(run.trace_summary())
        layers.update(outcome["layers"])
        coverage = layers["trace.coverage"]
        if coverage < 0.9:
            run.checks.fail(f"trace: layer spans cover {coverage:.1%} of "
                            f"the timed wall clock, below 90%")
        # A layer this workload does not exercise reads 0.
        metrics = {name: harness.metric(layers.get(name, 0.0), unit)
                   for name, unit in PER_LAYER}
    else:
        metrics = {name: harness.metric(values[name], unit)
                   for name, unit in END_TO_END}

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "commit": harness.git_commit(),
        "host": harness.host_fingerprint(),
        "run_wall_s": wall,
        "setup_s_samples": run.setup_times,
        "pass_walls_s": run.pass_walls,
        "host_speed_factor": factor,
        "yardstick_samples": len(run.speed_samples),
        "measured": measured,
        "failures": run.checks.failures[:20],
        **run.meta,
    }
    record = {"meta": meta, "metrics": metrics,
              "end_to_end": values, "layers": layers,
              "work_counts": run.counts.by_job}
    if run.trace:
        record["self_times"] = run.tracer.self_times()
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    harness.write_record(name, record, run.tracer if run.trace else None)
    for failure in run.checks.failures[:20]:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps({"meta": meta}))
    print(harness.result_line(run.checks, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
