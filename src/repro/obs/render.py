"""Human-readable rendering of an observability snapshot.

``repro stats`` (and anything else holding a snapshot dict produced by
:meth:`~repro.obs.session.ObsSession.snapshot`) renders it through
:func:`render_snapshot`: counters, sampled gauges, phase spans, and the
hot-block top-N as aligned ASCII sections, in the same table idiom as
:mod:`repro.analysis.tables`.
"""

from __future__ import annotations

from typing import Optional

__all__ = ["render_snapshot"]


def _fmt_value(value) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return f"{value:.4f}" if abs(value) < 1000 else f"{value:,.1f}"
    if isinstance(value, int):
        return f"{value:,}"
    return str(value)


def render_snapshot(snapshot: Optional[dict], title: str = "observability snapshot") -> str:
    """ASCII rendering of one metrics snapshot (None -> a stub line)."""
    if not snapshot:
        return "(no metrics captured -- run with --metrics)"
    lines = [f"=== {title} ==="]

    counters = snapshot.get("counters") or {}
    gauges = snapshot.get("gauges") or {}
    if counters or gauges:
        lines.append("-- metrics")
        width = max(len(name) for name in list(counters) + list(gauges))
        for name, value in sorted(counters.items()):
            lines.append(f"  {name:<{width}}  {_fmt_value(value):>14}")
        for name, value in sorted(gauges.items()):
            lines.append(f"  {name:<{width}}  {_fmt_value(value):>14}")

    histograms = snapshot.get("histograms") or {}
    for name, hist in sorted(histograms.items()):
        lines.append(f"-- histogram {name} (n={hist['total']}, sum={hist['sum']:g})")
        for bound, count in zip(hist["bounds"] + ["+inf"], hist["counts"]):
            if count:
                lines.append(f"  <= {bound!s:>10}  {count:>10,}")

    spans = snapshot.get("spans") or []
    if spans:
        lines.append("-- spans")
        for span in spans:
            indent = "  " * (span["depth"] + 1)
            ticks = ""
            if span.get("start_tick") is not None and span.get("end_tick") is not None:
                ticks = f"  ({span['end_tick'] - span['start_tick']:,} guest insns)"
            lines.append(
                f"{indent}{span['name']:<12} {span['duration_s'] * 1000:10.2f} ms{ticks}"
            )

    hot = snapshot.get("hot_blocks")
    if hot:
        lines.append(f"-- hot blocks (top {len(hot['top'])} of {hot['blocks_seen']})")
        lines.append(
            f"  {'start_pc':<12} {'retired':>12} {'taint_slow':>12}  processes"
        )
        for block in hot["top"]:
            lines.append(
                f"  {block['start_pc']:#010x}   {block['retired']:>12,} "
                f"{block['taint_slow']:>12,}  {', '.join(block['processes'])}"
            )
    return "\n".join(lines)
