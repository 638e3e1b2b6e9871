"""The study registry is the contract: every consumer loops over it."""

import argparse
import dataclasses
import pathlib
import re

import pytest

from repro import cli
from repro.core import figures
from repro.core.report import report_sections
from repro.core.study import STUDY_MODULES, studies

REPO = pathlib.Path(__file__).resolve().parents[2]


def test_every_study_module_is_registered_once():
    on_disk = {f"repro.{path.parent.name}.study"
               for path in (REPO / "src/repro").glob("*/study.py")}
    on_disk.discard("repro.core.study")     # the registry itself
    assert set(STUDY_MODULES) == on_disk
    names = [study.name for study in studies()]
    assert len(set(names)) == len(names) == len(STUDY_MODULES)


def test_parser_offers_every_study_with_the_uniform_flags():
    subcommands = next(
        action for action in cli.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)).choices
    for study in studies():
        flags = {flag for action in subcommands[study.name]._actions
                 for flag in action.option_strings}
        expected = {"-h", "--help", "--quick", "--seed"}
        if study.takes_dataset:
            expected |= {"-d", "--dataset"}
        assert flags == expected, study.name


@pytest.mark.parametrize("name", ["recover", "mutate", "faults"])
def test_quick_study_verdicts_hold_end_to_end(name, capsys):
    study = next(s for s in studies() if s.name == name)
    data = study.run("cohere-1m", quick=True)
    assert data["verdicts"] and all(data["verdicts"].values())
    assert study.render(data).strip()

    def run_cli(data):
        stub = dataclasses.replace(study, run=lambda *a, **k: data)
        return cli.cmd_run_study(argparse.Namespace(
            study=stub, dataset="cohere-1m", quick=True, seed=None))

    assert run_cli(data) == 0
    out = capsys.readouterr().out
    assert out.startswith(study.render(data))
    assert all(re.search(rf"^{verdict} +HOLDS$", out, re.M)
               for verdict in data["verdicts"])
    broken = dict(data, verdicts=dict(data["verdicts"], made_up=False))
    assert run_cli(broken) == 1
    assert re.search(r"^made_up +DIFFERS$", capsys.readouterr().out, re.M)


def test_committed_experiments_headings_are_generated():
    """Regenerating EXPERIMENTS.md must not drop a committed section."""
    committed = re.findall(r"^## (.+)$",
                           (REPO / "EXPERIMENTS.md").read_text(), re.M)
    generated = [section.title for section in report_sections()]
    assert committed and set(committed) <= set(generated)
    assert {study.title for study in studies()} <= set(committed)


def test_figure_4_honours_datasets(monkeypatch, capsys):
    swept = []

    def perf_sweep(setup, dataset, threads=figures.THREADS, **_):
        swept.append(dataset)
        return [None] * len(threads)

    monkeypatch.setattr(figures, "perf_sweep", perf_sweep)
    assert cli.main(["figure", "4", "--datasets", "openai-500k"]) == 0
    assert set(swept) == {"openai-500k"}
    assert "[openai-500k]" in capsys.readouterr().out
    swept.clear()
    # A selection holding large datasets draws only those (the paper's
    # Figure 4), the same rule ``repro study`` applies.
    assert cli.main(["figure", "4", "--datasets", "cohere-1m",
                     "cohere-10m"]) == 0
    assert set(swept) == {"cohere-10m"}


def test_render_prefetch_comparison():
    from repro.prefetch.study import render_prefetch_comparison

    entry = {"qps": 1000.0, "p99_us": 2500.0, "recall": 0.99,
             "per_query_kib": 40.0, "prefetch_hit_rate": 0.8,
             "wasted_read_ratio": 0.05}
    data = {"dataset": "cohere-1m", "search_list": 50,
            "configs": ["lru", "hotness", "hotness+pf"],
            "rows": {2: {"lru": entry, "hotness": entry,
                         "hotness+pf": entry}}}
    text = render_prefetch_comparison(data)
    assert "cohere-1m" in text and "search_list=50" in text
    assert "hotness+pf" in text
    assert "0.80" in text and "0.990" in text


def test_section_formatters_differ_only_in_markup():
    from repro.core.report import Section, markdown_section, text_section

    section = Section("Title", "A blurb.", body=lambda _: "BODY",
                      verdicts=lambda _: {"it_holds": True, "no": False})
    assert markdown_section(section, None) == (
        "## Title\n\nA blurb.\n\n```\nBODY\n```\n\n"
        "- **HOLDS** — it holds\n- **DIFFERS** — no")
    assert text_section(section, None) == (
        "== Title\n\nA blurb.\n\nBODY\n\n"
        "verdict   holds\n--------  -------\n"
        "it_holds  HOLDS\nno        DIFFERS")
