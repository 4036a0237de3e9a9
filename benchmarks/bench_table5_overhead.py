"""E9 (Table V): FAROS' replay-time overhead on six applications.

The paper reports 7x-19.7x slowdown vs PANDA replay (mean 14x, i.e.
~56x vs raw QEMU), with overhead growing with workload complexity.
Absolute numbers are host-dependent; the asserted shape is (a) every
workload slows down by a meaningful factor and (b) the heavier RAT
workloads do not come out cheaper than the idle-ish ones in analysed
instructions.
"""

from repro.analysis.experiments import overhead_experiment
from repro.analysis.tables import render_table5


def test_table5_faros_overhead(benchmark, emit):
    rows = benchmark.pedantic(overhead_experiment, rounds=1, iterations=1)

    assert len(rows) == 6
    for row in rows:
        assert row.slowdown > 1.5, f"{row.application}: expected real overhead"

    by_name = {r.application: r for r in rows}
    # Complexity shape: the 6-7 behaviour RATs execute more analysed
    # instructions than the 3-behaviour apps.
    assert by_name["Pandora"].instructions > by_name["Skype"].instructions
    assert by_name["Spygate"].instructions > by_name["Team Viewer"].instructions

    emit("table5_overhead", render_table5(rows))
