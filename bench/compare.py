"""Compare two sets of benchmark records: parent (A) against change (B).

    python3 bench/compare.py A B

``A`` and ``B`` are each a record written by ``run.py --out`` or a
directory of such records (any workloads, seeds and trace modes mixed).
Also the A/A tool: two sets from one commit must read ``equal`` on every
sim row and ``within-bound`` on every host row.

Per workload, one row per end-to-end metric:

* host metrics compare side medians against the metric's bound in
  ``BENCHMARK.json``: ``worse`` beyond the bound, ``better`` when every
  B run beats every A run, ``unresolved`` when a side's own quartile
  spread exceeds the bound, else ``within-bound``;
* sim metrics and ``sim_digest`` compare *per seed* and exactly (1e-6
  relative, only to forgive float re-association): ``equal``,
  ``better`` or ``worse`` (``equal`` / ``changed`` for the digest).
  Without a common seed they fall back to the median rule.

Traced records add the per-layer ``self_s`` table, so a saving can be
followed along the path a change claims.  Exit status is 1 when any row
reads ``worse``.
"""

from __future__ import annotations

import collections
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIM_TOLERANCE = 1e-6


def load(side: str) -> list[dict]:
    path = Path(side)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    records = [json.loads(file.read_text()) for file in files]
    return [r for r in records if isinstance(r, dict) and "workload" in r]


def quartile_spread(values: list[float]) -> float:
    if len(values) < 2 or not statistics.median(values):
        return 0.0
    low, _mid, high = statistics.quantiles(values, n=4)
    return (high - low) / abs(statistics.median(values))


def worsening(a: float, b: float, better: str) -> float:
    """Relative change from *a* to *b*, positive when *b* is worse."""
    if a == b:
        return 0.0
    change = (b - a) / abs(a) if a else float("inf")
    return change if better == "lower" else -change


def host_verdict(a: list[float], b: list[float], better: str,
                 bound: float) -> tuple[str, float]:
    delta = worsening(statistics.median(a), statistics.median(b), better)
    wins = (max(b) < min(a)) if better == "lower" else (min(b) > max(a))
    if wins:
        return "better", delta
    if delta > bound:
        return "worse", delta
    if max(quartile_spread(a), quartile_spread(b)) > bound:
        return "unresolved", delta
    return "within-bound", delta


def sim_verdict(pairs: list[tuple[float, float]], better: str,
                ) -> tuple[str, float]:
    deltas = [worsening(a, b, better) for a, b in pairs]
    worst = max(deltas, key=abs)
    if all(abs(d) <= SIM_TOLERANCE for d in deltas):
        return "equal", worst
    if all(d <= SIM_TOLERANCE for d in deltas):
        return "better", worst
    return "worse", max(deltas)


def compare(a_records: list[dict], b_records: list[dict],
            out=sys.stdout) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m for m in spec["end_to_end"]}
    regressions = 0

    def group(records, trace):
        by = collections.defaultdict(list)
        for record in records:
            if record["trace"] == trace:
                by[record["workload"]].append(record)
        return by

    a_plain, b_plain = group(a_records, 0), group(b_records, 0)
    for workload in sorted(set(a_plain) & set(b_plain)):
        a_runs, b_runs = a_plain[workload], b_plain[workload]
        a_seed = {r["seed"]: r for r in a_runs}
        b_seed = {r["seed"]: r for r in b_runs}
        common = sorted(set(a_seed) & set(b_seed))
        noisy = sum(r["noisy"] for r in a_runs + b_runs)
        print(f"{workload}: {len(a_runs)} vs {len(b_runs)} runs, "
              f"common seeds {common}, noisy runs {noisy}", file=out)
        for name, metric in end_to_end.items():
            a = [r["metrics"][name]["value"] for r in a_runs]
            b = [r["metrics"][name]["value"] for r in b_runs]
            clock = a_runs[0]["metrics"][name]["clock"]
            if clock == "sim" and common:
                verdict, delta = sim_verdict(
                    [(a_seed[s]["metrics"][name]["value"],
                      b_seed[s]["metrics"][name]["value"])
                     for s in common], metric["better"])
            else:
                verdict, delta = host_verdict(a, b, metric["better"],
                                              metric["bound"])
            regressions += verdict == "worse"
            print(f"  {name:<20} {clock:<4} "
                  f"{statistics.median(a):>12.6g} -> "
                  f"{statistics.median(b):>12.6g} {metric['unit']:<6} "
                  f"{delta:+8.2%} worse  bound {metric['bound']:.0%}  "
                  f"{verdict}", file=out)
        if common:
            same = all(a_seed[s]["sim_digest"] == b_seed[s]["sim_digest"]
                       for s in common)
            print(f"  {'sim_digest':<20} sim  "
                  f"{'equal' if same else 'changed'}", file=out)

    a_traced, b_traced = group(a_records, 1), group(b_records, 1)
    for workload in sorted(set(a_traced) & set(b_traced)):
        print(f"{workload}: per-layer self_s (one set-up + one pass), "
              f"traced runs", file=out)

        def median_of(runs, name):
            return statistics.median(r["metrics"][name]["value"]
                                     for r in runs)

        names = [n for n in a_traced[workload][0]["metrics"]
                 if n.endswith(".self_s")]
        for name in names:
            a = median_of(a_traced[workload], name)
            b = median_of(b_traced[workload], name)
            if a or b:
                print(f"  {name:<28} {a:>10.4f} -> {b:>10.4f} s  "
                      f"{b - a:+.4f}", file=out)
    return 1 if regressions else 0


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    return compare(load(argv[0]), load(argv[1]))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
