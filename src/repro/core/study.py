"""The full characterization study: every experiment, one call.

``run_study()`` executes the reproduction of every table and figure in
the paper's evaluation, checks all shape observations, and runs every
registered beyond-the-paper study; the result bundle feeds the CLI and
the EXPERIMENTS.md generator.  The CLI subcommands, ``repro study`` and
EXPERIMENTS.md are loops over :func:`studies`, so adding a study is one
``study.py`` exposing ``STUDY`` plus one line in :data:`STUDY_MODULES`.
"""

from __future__ import annotations

import dataclasses
import importlib
import typing as t

from repro.core import figures, observations
from repro.core.figures import (BEAM_WIDTHS, SEARCH_LISTS, THREADS)
from repro.core.observations import ObservationCheck
from repro.data.spec import DATASET_NAMES
from repro.storage.spec import samsung_990pro_4tb


def silent(message: str) -> None:
    """The default ``progress`` callback: report nothing."""


@dataclasses.dataclass(frozen=True)
class Study:
    """One beyond-the-paper study, declared next to the code that runs it.

    ``name`` is the CLI subcommand and the key in
    :attr:`StudyResults.studies`; ``title``/``blurb`` are the
    EXPERIMENTS.md heading and paragraph.  ``run(dataset, *, quick,
    seed, progress)`` returns the data dict with a ``"verdicts": {name:
    bool}`` entry and owns what ``quick`` means; ``render(data)`` is the
    table body *without* the verdict block.  A study that builds its own
    engine sets ``takes_dataset=False`` and is not offered ``-d``.
    """

    name: str
    title: str
    blurb: str
    run: t.Callable[..., dict]
    render: t.Callable[[dict], str]
    takes_dataset: bool = True


#: The registered studies, in report order.  Modules, not records: study
#: modules import :class:`Study` from here, so they load on first use.
STUDY_MODULES = (
    "repro.faults.study",
    "repro.serve.study",
    "repro.cluster.study",
    "repro.chaos.study",
    "repro.tenancy.study",
    "repro.mutate.study",
    "repro.durability.study",
    "repro.prefetch.study",
)


def studies() -> tuple[Study, ...]:
    """Every registered :class:`Study`, in report order."""
    return tuple(importlib.import_module(module).STUDY
                 for module in STUDY_MODULES)


@dataclasses.dataclass
class StudyResults:
    """Everything the paper's evaluation section reports, reproduced."""

    ssd_baseline: dict
    table2: dict
    fig2: dict
    fig3: dict
    fig4: dict
    fig5: dict
    fig6: dict
    fig7_11: dict
    fig12_15: dict
    checks: list[ObservationCheck]
    key_findings: dict[str, bool]
    #: Data dict of every registered beyond-the-paper study, keyed by
    #: :attr:`Study.name`, run on the first dataset.
    studies: dict[str, dict]


def run_observation_checks(fig2: dict, fig3: dict, fig5: dict, fig6: dict,
                           fig7_11: dict, fig12_15: dict,
                           ) -> list[ObservationCheck]:
    """All observation checkers against reproduced figure data."""
    device_max_mib_s = samsung_990pro_4tb().max_read_bandwidth() / (1 << 20)
    return [
        observations.check_o1_index_matters(fig2),
        observations.check_o2_database_matters(fig2),
        observations.check_o3_lancedb_slowest_single_thread(fig2),
        observations.check_o4_superlinear_scaling(fig2),
        observations.check_o5_milvus_plateaus_early(fig2),
        observations.check_o6_dataset_scaling(fig2),
        observations.check_o7_latency_ordering(fig3),
        observations.check_o8_latency_spread(fig3),
        observations.check_o10_no_saturation(fig5, device_max_mib_s),
        observations.check_o12_concurrency_bandwidth_scaling(fig5),
        observations.check_o13_per_query_volume_drops_with_concurrency(
            fig6),
        observations.check_o14_per_query_volume_grows_with_data(fig6),
        observations.check_o15_4k_dominance(fig6),
        observations.check_o16_diminishing_recall(fig7_11),
        observations.check_o17_o18_throughput_cost(fig7_11),
        observations.check_o19_latency_cost(fig7_11),
        observations.check_o20_o21_bandwidth_cost(fig7_11,
                                                  device_max_mib_s),
        observations.check_o22_beamwidth_no_trend(fig12_15),
    ]


def run_study(datasets: t.Sequence[str] = DATASET_NAMES,
              threads: t.Sequence[int] = THREADS,
              search_lists: t.Sequence[int] = SEARCH_LISTS,
              beam_widths: t.Sequence[int] = BEAM_WIDTHS,
              progress: t.Callable[[str], None] = silent,
              ) -> StudyResults:
    """Run every experiment of the paper's evaluation section."""
    progress("fio baseline (Section III-A)")
    ssd = figures.ssd_baseline_data()
    progress("Table II: tuning search parameters")
    table2 = figures.table2_data(datasets)
    progress("Figures 2-4: throughput/latency/CPU sweeps")
    fig2 = figures.fig2_throughput(datasets, threads=threads)
    fig3 = figures.fig3_latency(datasets, threads=threads)
    fig4 = figures.fig4_cpu(datasets, threads=threads)
    progress("Figure 5: bandwidth timelines")
    fig5 = figures.fig5_bandwidth_timeline(datasets)
    progress("Figure 6: per-query I/O")
    fig6 = figures.fig6_per_query_io(datasets)
    progress("Figures 7-11: search_list sweeps")
    fig7_11 = figures.fig7_to_11_data(datasets, search_lists)
    progress("Figures 12-15: beam_width sweeps")
    fig12_15 = figures.fig12_to_15_data(datasets, beam_widths)
    beyond: dict[str, dict] = {}
    for study in studies():
        progress(f"{study.name} study")
        beyond[study.name] = study.run(datasets[0], progress=progress)
    progress("checking observations")
    checks = run_observation_checks(fig2, fig3, fig5, fig6, fig7_11,
                                    fig12_15)
    return StudyResults(
        ssd_baseline=ssd, table2=table2, fig2=fig2, fig3=fig3, fig4=fig4,
        fig5=fig5, fig6=fig6, fig7_11=fig7_11, fig12_15=fig12_15,
        checks=checks,
        key_findings=observations.key_findings(checks),
        studies=beyond)
