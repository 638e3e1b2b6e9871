"""The full characterization study: every experiment, declared once.

Two literal registries say what the evaluation consists of:
:data:`ARTIFACTS`, the paper's own tables and figures, and
:data:`STUDY_MODULES`, the beyond-the-paper studies.  The CLI
subcommands, ``repro study``, the observation checks, EXPERIMENTS.md and
``benchmarks/test_bench_paper.py`` are loops over them, so adding an
artifact is one record here, and adding a study is one ``study.py``
exposing ``STUDY`` plus one line in :data:`STUDY_MODULES`.  Both live
here because this is the one module above the builders, checkers and
renderers a record binds; none of those imports it back.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import typing as t

from repro.core import figures, observations as obs, report
from repro.core.observations import ObservationCheck
from repro.data.spec import DATASET_NAMES


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


@dataclasses.dataclass(frozen=True)
class Artifact:
    """One table or figure (group) of the paper's own evaluation.

    ``key`` names it in :attr:`StudyResults.artifacts`; ``figures`` are
    the numbers ``repro figure N`` answers to.  ``build(datasets)`` runs
    its experiments on the paper's axes, ``render(data)`` is the table
    body under ``title``/``blurb``, and ``checks`` are the observation
    checkers that read the data, in O-number order.
    """

    key: str
    title: str
    figures: tuple[int, ...]
    build: t.Callable[[t.Sequence[str]], dict]
    render: t.Callable[[dict], str]
    checks: tuple[t.Callable[[dict], ObservationCheck], ...] = ()
    blurb: str = ""


def _series(value_name: str) -> t.Callable[[dict], str]:
    return functools.partial(report.render_series_figure,
                             value_name=value_name, digits=0)


#: The paper's evaluation, in report order.
ARTIFACTS = (
    Artifact("fio", "Section III-A — raw SSD baseline (fio)", (),
             lambda datasets: figures.ssd_baseline_data(),
             report.render_ssd_baseline),
    Artifact("table2", "Table II — tuned parameters and recall@10", (),
             figures.table2_data, report.render_table2,
             blurb="Paper comparison: all Milvus setups reach >= 0.9; "
             "DiskANN passes at the minimum search_list on the small "
             "proxies (paper: on all datasets); LanceDB-HNSW needs ef >= "
             "Milvus's; LanceDB-IVF-PQ misses the target at Milvus's "
             "nprobe (paper: 0.64-0.73; the parenthesized accuracies)."),
    Artifact("fig2", "Figure 2 — throughput vs client threads", (2,),
             figures.fig2_throughput, _series("QPS"),
             (obs.check_o1_index_matters, obs.check_o2_database_matters,
              obs.check_o3_lancedb_slowest_single_thread,
              obs.check_o4_superlinear_scaling,
              obs.check_o5_milvus_plateaus_early,
              obs.check_o6_dataset_scaling)),
    Artifact("fig3", "Figure 3 — P99 latency (us) vs client threads", (3,),
             figures.fig3_latency, _series("P99us"),
             (obs.check_o7_latency_ordering, obs.check_o8_latency_spread)),
    Artifact("fig4", "Figure 4 — global CPU usage (%) on the large datasets",
             (4,), figures.fig4_cpu, _series("CPU%")),
    Artifact("fig5", "Figure 5 — Milvus-DiskANN read-bandwidth timeline",
             (5,), figures.fig5_bandwidth_timeline, report.render_fig5,
             (obs.check_o10_no_saturation,
              obs.check_o12_concurrency_bandwidth_scaling)),
    Artifact("fig6",
             "Figure 6 — per-query read volume (+ request sizes, O-15)",
             (6,), figures.fig6_per_query_io, report.render_fig6,
             (obs.check_o13_per_query_volume_drops_with_concurrency,
              obs.check_o14_per_query_volume_grows_with_data,
              obs.check_o15_4k_dominance)),
    Artifact("fig7_11", "Figures 7-11 — the effect of search_list",
             (7, 8, 9, 10, 11), figures.fig7_to_11_data,
             report.render_searchlist_sweep,
             (obs.check_o16_diminishing_recall,
              obs.check_o17_o18_throughput_cost, obs.check_o19_latency_cost,
              obs.check_o20_o21_bandwidth_cost)),
    Artifact("fig12_15", "Figures 12-15 — the effect of beam_width",
             (12, 13, 14, 15), figures.fig12_to_15_data,
             report.render_beamwidth_sweep,
             (obs.check_o22_beamwidth_no_trend,)),
)


def artifact(key: str) -> Artifact:
    """The registered :class:`Artifact` named *key*."""
    return next(a for a in ARTIFACTS if a.key == key)


def figure_artifact(number: int) -> Artifact | None:
    """The artifact that draws paper Figure *number*, if there is one."""
    return next((a for a in ARTIFACTS if number in a.figures), None)


@dataclasses.dataclass
class StudyResults:
    """Everything the paper's evaluation section reports, reproduced."""

    #: Data dict of every paper artifact, keyed by :attr:`Artifact.key`.
    artifacts: dict[str, dict]
    checks: list[ObservationCheck]
    key_findings: dict[str, bool]
    #: Data dict of every registered beyond-the-paper study, keyed by
    #: :attr:`Study.name`, run on the first dataset.
    studies: dict[str, dict]


def run_observation_checks(artifacts: dict[str, dict],
                           ) -> list[ObservationCheck]:
    """Every attached checker against its artifact's reproduced data."""
    return [check(artifacts[a.key]) for a in ARTIFACTS for check in a.checks]


def run_study(datasets: t.Sequence[str] = DATASET_NAMES,
              progress: t.Callable[[str], None] = silent,
              ) -> StudyResults:
    """Run every experiment of the paper's evaluation section."""
    artifacts: dict[str, dict] = {}
    for a in ARTIFACTS:
        progress(a.title)
        artifacts[a.key] = a.build(datasets)
    beyond: dict[str, dict] = {}
    for study in studies():
        progress(f"{study.name} study")
        beyond[study.name] = study.run(datasets[0], progress=progress)
    progress("checking observations")
    checks = run_observation_checks(artifacts)
    return StudyResults(artifacts, checks, obs.key_findings(checks), beyond)


# -- the whole report: one section list, two writers ---------------------

def report_sections() -> list[report.Section]:
    """The report in order: paper artifacts, studies, observations
    (the key findings close the observation table).

    Both whole-report writers walk this list, so every registered
    artifact and study appears in the text report and in EXPERIMENTS.md
    by construction.
    """
    sections = [report.Section(a.title, a.blurb,
                               lambda r, a=a: a.render(r.artifacts[a.key]))
                for a in ARTIFACTS]
    for study in studies():
        sections.append(report.Section(
            study.title, study.blurb,
            lambda r, s=study: s.render(r.studies[s.name]),
            lambda r, s=study: r.studies[s.name]["verdicts"]))
    sections += [
        report.Section("Observation verdicts",
                       body=lambda r: report.render_observations(
                           r.checks, r.key_findings)),
        report.Section(
            "Known proxy-scale divergences",
            "- DiskANN needs search_list 15-21 (not 10) for recall 0.9 "
            "on the 10x proxies; Figure 9's large-dataset lines start "
            "at ~0.82-0.85 instead of >= 0.90 (PQ-steered beams miss "
            "more of the true top-10 at 20k-40k points than at "
            "millions).\n"
            "- Absolute throughput is higher than the paper's because "
            "proxy graphs are shallower; the work-extrapolation factor "
            "restores cross-family CPU ratios, not absolute "
            "magnitudes.\n"
            "- DiskANN-vs-IVF throughput gaps overshoot the paper's "
            "1.2-3.2x band (the sqrt-vs-log work gap is larger at "
            "paper scale than the band the paper measured)."),
    ]
    return sections


def write_experiments_md(results: StudyResults, path: str) -> None:
    """Write EXPERIMENTS.md: paper-vs-measured for every table/figure."""
    parts = [
        "# EXPERIMENTS — paper vs. measured",
        "Generated by `repro study` on the scaled proxy datasets "
        "(`REPRO_SCALE` governs sizes; see DESIGN.md section 6).  "
        "Absolute numbers are simulator outputs and differ from the "
        "paper's testbed; every *shape* claim (orderings, crossovers, "
        "scaling bands) is checked programmatically below.",
    ] + [report.markdown_section(section, results)
         for section in report_sections()]
    with open(path, "w") as handle:
        handle.write("\n\n".join(parts) + "\n")


def render_study(results: StudyResults) -> str:
    """The full study as one readable report."""
    return "\n\n".join(report.text_section(section, results)
                       for section in report_sections())
