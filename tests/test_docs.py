"""Documentation is executable and links resolve.

Two contracts:

* every ``>>>`` example — in the public modules' docstrings and in the
  fenced code blocks of the repo's markdown documents — runs and
  produces exactly the shown output, so the docs never rot;
* every intra-repo markdown link points at a file that exists.
"""

import doctest
import pathlib
import re

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent

#: Public modules whose docstrings carry doctested examples.
DOCTESTED_MODULES = (
    "repro.api",
    "repro.errors",
    "repro.engines.engine",
    "repro.engines.params",
    "repro.ann.workprofile",
    "repro.faults.plan",
    "repro.faults.injector",
    "repro.faults.resilience",
    "repro.faults.crash",
    "repro.durability.record",
    "repro.serve.arrivals",
    "repro.serve.queueing",
    "repro.serve.controller",
    "repro.cluster.topology",
    "repro.cluster.merge",
    "repro.simkernel.network",
    "repro.ann.scoring",
    "repro.mutate.tombstones",
    "repro.mutate.policy",
    "repro.mutate.delta",
    "repro.mutate.compactor",
    "repro.mutate.simproc",
    "repro.faults.schedule",
    "repro.chaos.shrink",
    "repro.chaos.oracles",
    "repro.tenancy.registry",
    "repro.tenancy.controller",
    "repro.tenancy.costmodel",
    "repro.tenancy.placement",
)

#: Markdown documents whose code blocks are executed.
DOCUMENTS = ("README.md", "DESIGN.md", "docs/ARCHITECTURE.md",
             "docs/FAULT_MODEL.md", "docs/DURABILITY.md",
             "docs/SERVING.md", "docs/BENCHMARKS.md",
             "docs/CLUSTER.md", "docs/MUTABILITY.md",
             "docs/CHAOS.md", "docs/TENANCY.md")

#: Markdown files whose intra-repo links are checked.
LINKED = sorted(str(p.relative_to(REPO)) for p in
                list(REPO.glob("*.md")) + list((REPO / "docs").glob("*.md")))

FENCE = re.compile(r"^```[a-z]*\n(.*?)^```", re.MULTILINE | re.DOTALL)
LINK = re.compile(r"\[[^]]*\]\(([^)\s]+)\)")


@pytest.mark.parametrize("module_name", DOCTESTED_MODULES)
def test_module_doctests(module_name):
    module = __import__(module_name, fromlist=["_"])
    results = doctest.testmod(module, verbose=False)
    assert results.attempted > 0, f"{module_name} lost its examples"
    assert results.failed == 0


@pytest.mark.parametrize("document", DOCUMENTS)
def test_markdown_examples_run(document):
    text = (REPO / document).read_text()
    blocks = [block for block in FENCE.findall(text) if ">>>" in block]
    if not blocks:
        pytest.skip(f"{document} has no doctest blocks")
    # Fences are stripped and blocks separated by blank lines so the
    # closing ``` never bleeds into an example's expected output.
    runner = doctest.DocTestRunner(
        optionflags=doctest.ELLIPSIS, verbose=False)
    parser = doctest.DocTestParser()
    globs = {}
    for number, block in enumerate(blocks):
        test = parser.get_doctest(block, globs, f"{document}[{number}]",
                                  document, 0)
        runner.run(test)
    results = runner.summarize(verbose=False)
    assert results.attempted > 0
    assert results.failed == 0


@pytest.mark.parametrize("document", LINKED)
def test_intra_repo_links_resolve(document):
    path = REPO / document
    broken = []
    for target in LINK.findall(path.read_text()):
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        resolved = (path.parent / target.split("#", 1)[0]).resolve()
        if not resolved.exists():
            broken.append(target)
    assert not broken, f"{document} links to missing files: {broken}"


def test_architecture_documents_every_package():
    """The layer walkthrough must not drift from the package list."""
    text = (REPO / "docs/ARCHITECTURE.md").read_text()
    packages = sorted(
        p.name for p in (REPO / "src/repro").iterdir()
        if p.is_dir() and (p / "__init__.py").exists())
    missing = [p for p in packages if f"repro.{p}" not in text]
    assert not missing, f"ARCHITECTURE.md omits: {missing}"


def test_readme_study_table_matches_registry():
    """The README's study table is the registry, in registry order."""
    from repro.core.study import studies
    rows = re.findall(r"^\| `repro (\w+)` \| (.+) \|$",
                      (REPO / "README.md").read_text(), re.MULTILINE)
    assert rows == [(study.name, study.title) for study in studies()]


def test_version_is_single_sourced():
    """pyproject.toml takes its version from ``repro.__version__``."""
    import repro
    tomllib = pytest.importorskip("tomllib")     # stdlib from 3.11
    project = tomllib.loads((REPO / "pyproject.toml").read_text())
    assert "version" not in project["project"]
    assert "version" in project["project"]["dynamic"]
    attr = project["tool"]["setuptools"]["dynamic"]["version"]["attr"]
    module, _, name = attr.rpartition(".")
    assert getattr(__import__(module), name) == repro.__version__
