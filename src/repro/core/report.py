"""Text rendering of study results: tables, figures, report sections.

Renderers only — what the report *consists of* (which artifacts, which
studies, in what order) is :func:`repro.core.study.report_sections`.
"""

from __future__ import annotations

import dataclasses
import typing as t

from repro.core.observations import ObservationCheck
from repro.obs import RunTelemetry
from repro.trace.analysis import (cold_warm_split, per_query_io_histogram,
                                  stage_latency_breakdown)

if t.TYPE_CHECKING:
    from repro.core.study import StudyResults


def format_table(headers: t.Sequence[str],
                 rows: t.Sequence[t.Sequence[t.Any]]) -> str:
    """Monospace table with per-column width alignment."""
    cells = [[str(h) for h in headers]] + [[str(c) for c in row]
                                           for row in rows]
    widths = [max(len(row[col]) for row in cells)
              for col in range(len(headers))]
    lines = []
    for i, row in enumerate(cells):
        lines.append("  ".join(cell.ljust(width)
                               for cell, width in zip(row, widths)).rstrip())
        if i == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)


def fmt(value: t.Any, digits: int = 1) -> str:
    if value is None:
        return "OOM"
    if isinstance(value, float):
        return f"{value:.{digits}f}"
    return str(value)


def render_series_figure(data: dict, value_name: str,
                         digits: int = 1) -> str:
    """Render fig2/3/4-shaped data: one table per dataset."""
    blocks = []
    threads = data["threads"]
    for dataset, per_setup in data["datasets"].items():
        headers = [f"{value_name} @threads"] + [str(x) for x in threads]
        rows = [[setup] + [fmt(v, digits) for v in values]
                for setup, values in per_setup.items()]
        blocks.append(f"[{dataset}]\n" + format_table(headers, rows))
    return "\n\n".join(blocks)


def render_table2(table2: dict) -> str:
    rows = []
    for dataset, per_setup in table2.items():
        for setup, entry in per_setup.items():
            params = {key: value for key, value in entry.items()
                      if key != "recall"}
            rows.append([dataset, setup, params, f"{entry['recall']:.3f}"])
    return format_table(["dataset", "setup", "params", "recall@10"], rows)


def _holds(holds: bool) -> str:
    return "HOLDS" if holds else "DIFFERS"


def verdict_table(verdicts: dict[str, bool]) -> str:
    """The one shared rendering of a ``{verdict name: holds}`` dict."""
    return format_table(["verdict", "holds"],
                        [[name, _holds(holds)]
                         for name, holds in verdicts.items()])


def render_ssd_baseline(data: dict) -> str:
    """Section III-A: the fio numbers, paper vs the simulated device."""
    return format_table(
        ["metric", "paper", "measured"],
        [["4 KiB randread, 1 core (KIOPS)", "324.3",
          f"{data['single_core_4k_kiops']:.1f}"],
         ["4 KiB randread, QD64 (MIOPS)", "1.3",
          f"{data['deep_queue_4k_miops']:.2f}"],
         ["128 KiB seqread (GiB/s)", "7.2",
          f"{data['seq_128k_gib_s']:.1f}"],
         ["QD1 mean latency (us)", "<100",
          f"{data['qd1_mean_latency_us']:.1f}"]])


def render_observations(checks: t.Sequence[ObservationCheck],
                        key_findings: dict[str, bool]) -> str:
    rows = [[c.obs_id, _holds(c.holds), c.claim, c.measured]
            for c in checks]
    out = [format_table(["obs", "verdict", "paper claim", "measured"],
                        rows), ""]
    for finding, holds in key_findings.items():
        out.append(f"{_holds(holds):7}  {finding}")
    return "\n".join(out)


def render_searchlist_sweep(fig7_11: dict) -> str:
    blocks = []
    for dataset, sweep in fig7_11.items():
        headers = ["search_list", "qps@1", "qps@256", "p99us@1", "recall",
                   "MiB/s@1", "KiB/query@1"]
        rows = []
        for L, per_conc in sweep.items():
            rows.append([
                L, fmt(per_conc[1]["qps"], 0),
                fmt(per_conc[256]["qps"], 0),
                fmt(per_conc[1]["p99_us"], 0),
                fmt(per_conc[1]["recall"], 3),
                fmt(per_conc[1]["read_mib_s"], 1),
                fmt(per_conc[1]["per_query_kib"], 1)])
        blocks.append(f"[{dataset}]\n" + format_table(headers, rows))
    return "\n\n".join(blocks)


def render_beamwidth_sweep(fig12_15: dict) -> str:
    blocks = []
    for dataset, per_width in fig12_15.items():
        headers = ["beam_width", "qps@1", "p99us@1", "MiB/s", "KiB/query"]
        rows = [[width, fmt(e["qps"], 0), fmt(e["p99_us"], 0),
                 fmt(e["read_mib_s"], 1), fmt(e["per_query_kib"], 1)]
                for width, e in per_width.items()]
        blocks.append(f"[{dataset}]\n" + format_table(headers, rows))
    return "\n\n".join(blocks)


def render_fig5(fig5: dict) -> str:
    blocks = []
    for dataset, entry in fig5["datasets"].items():
        headers = ["concurrency", "mean MiB/s", "per-interval MiB/s"]
        rows = []
        for concurrency, line in entry["lines"].items():
            sparkline = " ".join(f"{v:.0f}" for v in line["read_mib_s"])
            rows.append([concurrency, fmt(line["mean_mib_s"], 1),
                         sparkline])
        blocks.append(f"[{dataset}] (plateau={entry['plateau']})\n"
                      + format_table(headers, rows))
    return "\n\n".join(blocks)


def render_fig6(fig6: dict) -> str:
    headers = ["dataset", "KiB/query@1", "KiB/query@256", "4KiB fraction"]
    rows = []
    for dataset, per_conc in fig6.items():
        rows.append([dataset, fmt(per_conc[1]["per_query_kib"], 1),
                     fmt(per_conc[256]["per_query_kib"], 1),
                     f"{per_conc[1]['fraction_4k']:.4f}"])
    return format_table(headers, rows)


def _human_bytes(n: float) -> str:
    for unit in ("B", "KiB", "MiB", "GiB"):
        if n < 1024 or unit == "GiB":
            return f"{n:.1f}{unit}"
        n /= 1024
    return f"{n:.1f}GiB"


def render_telemetry(telemetry: RunTelemetry) -> str:
    """Human-readable roll-up of one run's query-level telemetry.

    Four blocks: per-stage latency decomposition, per-query I/O volume
    distribution (the span-level Figure 6), cache counters, and
    resource queue depths.
    """
    sections = []
    spans = telemetry.spans
    if spans:
        stages = stage_latency_breakdown(spans)
        rows = [[stage, f"{s['mean_s'] * 1e6:.1f}",
                 f"{100 * s['share']:.1f}%"]
                for stage, s in stages.items()]
        sections.append("== Stage latency (per query)\n" + format_table(
            ["stage", "mean us", "share"], rows))

        hist = per_query_io_histogram(spans)
        rows = []
        running = 0
        for edge, count in zip(hist.buckets, hist.counts):
            running += count
            if count:
                rows.append([f"<= {_human_bytes(edge)}", count,
                             f"{100 * running / hist.count:.1f}%"])
        if hist.counts[-1]:
            rows.append([f"> {_human_bytes(hist.buckets[-1])}",
                         hist.counts[-1], "100.0%"])
        sections.append(
            "== Per-query device read volume (Figure 6, from spans)\n"
            + format_table(["bucket", "queries", "cum"], rows)
            + f"\nmean {_human_bytes(hist.mean)}/query over "
            f"{hist.count} queries")

        split = cold_warm_split(spans)
        rows = [[label, int(entry["queries"]),
                 f"{entry['mean_latency_s'] * 1e6:.1f}",
                 _human_bytes(entry["mean_read_bytes"])]
                for label, entry in split.items()]
        sections.append("== Cold vs warm replays\n" + format_table(
            ["replay", "queries", "mean us", "read/query"], rows))
    if telemetry.counters:
        rows = [[name, counter.value]
                for name, counter in sorted(telemetry.counters.items())]
        sections.append("== Counters\n" + format_table(
            ["counter", "value"], rows))
    if spans or telemetry.counters:
        issued = telemetry.counters.get("prefetch_issued")
        sections.append("== Prefetch\n" + format_table(
            ["metric", "value"],
            [["speculative reads issued", issued.value if issued else 0],
             ["prefetch hit rate", f"{telemetry.prefetch_hit_rate:.3f}"],
             ["wasted read ratio", f"{telemetry.wasted_read_ratio:.4f}"]]))
    if telemetry.queue_depth:
        rows = [[resource, hist.count, f"{hist.mean:.2f}",
                 f"{hist.quantile(0.99):.0f}"]
                for resource, hist in sorted(telemetry.queue_depth.items())]
        sections.append("== Queue depth at request arrival\n" + format_table(
            ["resource", "samples", "mean", "p99"], rows))
    return "\n\n".join(sections)


# -- one report section, two formatters ------------------------------------

@dataclasses.dataclass(frozen=True)
class Section:
    """One report section; ``body``/``verdicts`` read the results."""

    title: str
    blurb: str = ""
    body: t.Callable[[StudyResults], str] | None = None
    verdicts: t.Callable[[StudyResults], dict[str, bool]] | None = None


def markdown_section(section: Section, results: StudyResults) -> str:
    """``## title``, the blurb, the fenced body, one bullet per verdict."""
    parts = [f"## {section.title}"]
    if section.blurb:
        parts.append(section.blurb)
    if section.body is not None:
        parts.append(f"```\n{section.body(results)}\n```")
    if section.verdicts is not None:
        parts.append("\n".join(
            f"- **{_holds(holds)}** — {name.replace('_', ' ')}"
            for name, holds in section.verdicts(results).items()))
    return "\n\n".join(parts)


def text_section(section: Section, results: StudyResults) -> str:
    """``== title``, the blurb, the body, the shared verdict table."""
    parts = [f"== {section.title}"]
    if section.blurb:
        parts.append(section.blurb)
    if section.body is not None:
        parts.append(section.body(results))
    if section.verdicts is not None:
        parts.append(verdict_table(section.verdicts(results)))
    return "\n\n".join(parts)
