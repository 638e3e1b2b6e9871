"""The prefetch study: cache policy + look-ahead (``repro prefetch``)."""

from __future__ import annotations

import typing as t

from repro.core.figures import get_runner
from repro.core.report import fmt, format_table
from repro.core.study import Study, silent

#: The beam_width axis of the prefetch study (direct beam sizes, not
#: Milvus BeamWidthRatio units — small beams are where look-ahead can
#: overlap device time with CPU).
PREFETCH_BEAMS = (1, 2, 4, 8)


def prefetch_comparison(dataset: str,
                        beam_widths: t.Sequence[int] = PREFETCH_BEAMS,
                        search_list: int = 50,
                        concurrency: int = 4, *, quick: bool = False,
                        seed: int = 0,
                        progress: t.Callable[[str], None] = silent,
                        ) -> dict:
    """LRU vs hotness vs hotness + look-ahead prefetch on Milvus-DiskANN.

    Runs the Figure-7 setup (milvus-diskann) across ``beam_widths`` at a
    fixed ``search_list`` under three cache/prefetch configurations:

    - ``lru``        — LRU node cache, no prefetching (the baseline);
    - ``hotness``    — frequency-weighted node cache with pinned
      entry-point/hub nodes, no prefetching;
    - ``hotness+pf`` — hotness cache plus look-ahead prefetching with
      ``prefetch_depth = max(1, beam_width // 2)``: speculating half a
      beam ahead keeps the hit rate high; deeper speculation trades
      read-byte waste for no extra overlap.

    Prefetching and the cache policy are speculative-I/O-only knobs:
    returned ids/distances — and therefore recall@10 — are identical in
    every configuration (the table shows it, the verdicts assert it).
    What changes is the I/O schedule: per-query device reads, tail
    latency, and the prefetcher's hit/waste rates.  ``quick`` keeps the
    two smallest beams at search_list 20 under two clients; the runs
    are closed-loop and draw nothing, so ``seed`` changes nothing.
    """
    if quick:
        beam_widths = tuple(beam_widths)[:2]
        search_list = min(search_list, 20)
        concurrency = min(concurrency, 2)
    runner = get_runner("milvus-diskann", dataset)
    data: dict[str, t.Any] = {
        "dataset": dataset,
        "search_list": search_list,
        "configs": ["lru", "hotness", "hotness+pf"],
        "rows": {},
    }
    for width in beam_widths:
        progress(f"beam_width {width}")
        per_config: dict[str, dict] = {}
        for label in data["configs"]:
            policy = "lru" if label == "lru" else "hotness"
            depth = max(1, width // 2) if label == "hotness+pf" else 0
            result = runner.run(concurrency, {
                "search_list": search_list, "beam_width": width,
                "cache_policy": policy, "prefetch_depth": depth},
                telemetry=True)
            telemetry = result.telemetry
            assert telemetry is not None
            per_config[label] = {
                "qps": result.qps,
                "p99_us": result.p99_latency_s * 1e6,
                "recall": result.recall,
                "per_query_kib": result.per_query_read_bytes / 1024,
                "prefetch_hit_rate": telemetry.prefetch_hit_rate,
                "wasted_read_ratio": telemetry.wasted_read_ratio,
            }
        data["rows"][width] = per_config
    data["verdicts"] = {
        "recall_identical_across_configs": all(
            len({entry["recall"] for entry in per_config.values()}) == 1
            for per_config in data["rows"].values()),
        "prefetch_lowers_p99_vs_lru": all(
            per_config["hotness+pf"]["p99_us"] < per_config["lru"]["p99_us"]
            for per_config in data["rows"].values()),
    }
    return data


def render_prefetch_comparison(data: dict) -> str:
    """Table for the cache-policy/prefetch study."""
    headers = ["beam", "config", "qps", "p99 us", "KiB/query",
               "recall@10", "pf hit", "wasted"]
    rows = []
    for width, per_config in data["rows"].items():
        for label in data["configs"]:
            entry = per_config[label]
            rows.append([
                width, label, fmt(entry["qps"], 0),
                fmt(entry["p99_us"], 0),
                fmt(entry["per_query_kib"], 1),
                fmt(entry["recall"], 3),
                f"{entry['prefetch_hit_rate']:.2f}",
                f"{entry['wasted_read_ratio']:.3f}"])
    return (f"[{data['dataset']}] milvus-diskann, "
            f"search_list={data['search_list']}\n"
            + format_table(headers, rows))


STUDY = Study(
    name="prefetch",
    title="Cache policy & look-ahead prefetch (beyond the paper)",
    blurb="LRU vs hotness-aware node caching vs hotness + look-ahead "
          "prefetching on Milvus-DiskANN across small beam widths (see "
          "docs/ARCHITECTURE.md).  Speculative reads never change the "
          "traversal, so recall@10 is identical in every configuration; "
          "what moves is the I/O schedule — look-ahead overlaps device "
          "time with distance work and lowers P99 against the LRU "
          "baseline at the price of some wasted read bytes.",
    run=prefetch_comparison,
    render=render_prefetch_comparison,
)
