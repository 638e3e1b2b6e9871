"""The paper's core contribution: the characterization study itself."""

from repro.core.figures import (BEAM_WIDTHS, SEARCH_LISTS, THREADS,
                                fig2_throughput, fig3_latency, fig4_cpu,
                                fig5_bandwidth_timeline, fig6_per_query_io,
                                fig7_to_11_data, fig12_to_15_data,
                                plateau_concurrency, ssd_baseline_data,
                                table2_data)
from repro.core.observations import ObservationCheck, key_findings
from repro.core.report import (format_table, render_observations,
                               render_table2)
from repro.core.study import (StudyResults, render_study,
                              run_observation_checks, run_study)
from repro.core.tuning import (RECALL_TARGET, TunedSetup, measure_recall,
                               smallest_passing, tune_setup)

__all__ = [
    "BEAM_WIDTHS",
    "ObservationCheck",
    "RECALL_TARGET",
    "SEARCH_LISTS",
    "StudyResults",
    "THREADS",
    "TunedSetup",
    "fig2_throughput",
    "fig3_latency",
    "fig4_cpu",
    "fig5_bandwidth_timeline",
    "fig6_per_query_io",
    "fig7_to_11_data",
    "fig12_to_15_data",
    "format_table",
    "key_findings",
    "measure_recall",
    "plateau_concurrency",
    "render_observations",
    "render_study",
    "render_table2",
    "run_observation_checks",
    "run_study",
    "smallest_passing",
    "ssd_baseline_data",
    "table2_data",
    "tune_setup",
]
