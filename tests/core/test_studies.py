"""The two registries are the contract: every consumer loops over them."""

import argparse
import dataclasses
import importlib
import pathlib
import re

import pytest

from repro import cli
from repro.core import figures, observations, study as core_study
from repro.core.study import (ARTIFACTS, STUDY_MODULES, figure_artifact,
                              render_study, report_sections, run_study,
                              studies, write_experiments_md)

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


def test_artifact_keys_and_figure_numbers_resolve_once():
    keys = [a.key for a in ARTIFACTS]
    assert len(set(keys)) == len(keys) == 9
    for number in range(2, 16):
        assert [a for a in ARTIFACTS if number in a.figures] == [
            figure_artifact(number)]
    assert [figure_artifact(n) for n in (1, 16, 99)] == [None] * 3


def test_every_observation_check_is_attached_once_in_o_order():
    defined = {fn for name, fn in vars(observations).items()
               if name.startswith("check_o")}
    attached = [check for a in ARTIFACTS for check in a.checks]
    assert len(attached) == len(set(attached)) == 18
    assert set(attached) == defined
    numbers = [int(re.match(r"check_o(\d+)", check.__name__).group(1))
               for check in attached]
    assert numbers == sorted(numbers) and numbers[0] == 1 \
        and numbers[-1] == 22


@pytest.fixture
def stubbed(monkeypatch):
    """The registry with every build/render/check replaced by a recorder:
    ``built`` lists (key, datasets) per build call."""
    built = []

    def stub(a):
        def build(datasets):
            built.append((a.key, tuple(datasets)))
            return {"artifact": a.key}

        def check(data, number):
            assert data == {"artifact": a.key}
            return observations.ObservationCheck(
                f"{a.key}#{number}", "claim", "measured", True)

        return dataclasses.replace(
            a, build=build, render=lambda data: f"<{data['artifact']}>",
            checks=tuple(lambda data, n=n: check(data, n)
                         for n in range(len(a.checks))))

    monkeypatch.setattr(core_study, "ARTIFACTS",
                        tuple(stub(a) for a in ARTIFACTS))
    return built


@pytest.mark.parametrize("argv, key, datasets", [
    (["fio"], "fio", None),
    (["table2", "--datasets", "openai-500k"], "table2", ("openai-500k",)),
    *((["figure", str(n), "--datasets", "cohere-1m", "openai-5m"],
       figure_artifact(n).key, ("cohere-1m", "openai-5m"))
      for n in range(2, 16))])
def test_artifact_commands_print_the_looked_up_record(
        argv, key, datasets, stubbed, capsys):
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == f"<{key}>\n"
    (built_key, built_datasets), = stubbed
    assert built_key == key
    assert datasets is None or built_datasets == datasets


def test_run_study_is_a_loop_over_the_registry(stubbed, monkeypatch,
                                               tmp_path):
    monkeypatch.setattr(core_study, "STUDY_MODULES", ())
    lines = []
    results = run_study(datasets=("openai-500k",), progress=lines.append)
    keys = [a.key for a in ARTIFACTS]
    assert stubbed == [(key, ("openai-500k",)) for key in keys]
    assert list(results.artifacts) == keys and results.studies == {}
    assert [c.obs_id for c in results.checks] == [
        f"{a.key}#{n}" for a in ARTIFACTS for n in range(len(a.checks))]
    assert len(results.checks) == 18
    assert lines[:9] == [a.title for a in ARTIFACTS]

    path = tmp_path / "EXPERIMENTS.md"
    write_experiments_md(results, str(path))
    for text, mark in ((render_study(results), "== "),
                       (path.read_text(), "## ")):
        offsets = [text.index(f"{mark}{a.title}\n\n") for a in ARTIFACTS]
        assert offsets == sorted(offsets)
        assert all(f"<{key}>" in text for key in keys)


def test_design_experiment_index_names_things_that_exist():
    """DESIGN.md section 4 is written from the registry; every backticked
    ``core.<module>.<name>`` and ``benchmarks/<file>`` in it resolves."""
    text = (REPO / "DESIGN.md").read_text()
    section = text[text.index("## 4. Experiment index"):
                   text.index("## 5. ")]
    names = re.findall(r"`core\.(\w+)\.(\w+)`", section)
    files = re.findall(r"`(benchmarks/[\w.]+)`", section)
    assert names and files
    for module, name in names:
        assert hasattr(importlib.import_module(f"repro.core.{module}"),
                       name), f"core.{module}.{name}"
    for file in files:
        assert (REPO / file).is_file(), file
    for a in ARTIFACTS:
        assert f"`{a.key}`" in section, a.key


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
