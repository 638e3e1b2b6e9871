"""Snapshot test of the public API surface.

Renames and removals in the public surface are breaking changes and
must be deliberate: this test renders the surface as text and compares
it to the committed snapshot ``tests/api_surface.txt``.  When a change
is intentional, regenerate the snapshot with::

    PYTHONPATH=src python tests/test_api_surface.py --update

and commit the diff alongside a migration note.
"""

import inspect
import pathlib
import sys

SNAPSHOT = pathlib.Path(__file__).with_name("api_surface.txt")


def render_surface() -> str:
    import repro
    import repro.api
    import repro.cluster
    import repro.engines
    import repro.prefetch
    import repro.serve
    import repro.tenancy
    from repro.api import ClusterSession, Deployment, Session
    from repro.engines.engine import IndexSpec, SearchRequest
    from repro.ann.workprofile import SearchResult

    lines = []
    for module in (repro, repro.cluster, repro.engines, repro.prefetch,
                   repro.serve, repro.tenancy):
        for name in sorted(module.__all__):
            lines.append(f"{module.__name__}: {name}")
    for name in sorted(vars(repro.api)):
        member = getattr(repro.api, name)
        if not name.startswith("_") and inspect.isfunction(member):
            lines.append(f"repro.api: {name}"
                         f"{inspect.signature(member)}")
    for cls in (Session, ClusterSession, Deployment):
        for name, member in sorted(vars(cls).items()):
            if not name.startswith("_") and callable(member):
                lines.append(f"repro.api.{cls.__name__}.{name}"
                             f"{inspect.signature(member)}")
    for cls in (IndexSpec, SearchRequest, SearchResult):
        fields = sorted(getattr(cls, "__dataclass_fields__", {}))
        lines.append(f"{cls.__module__}.{cls.__name__}: "
                     f"fields={', '.join(fields)}")
    return "\n".join(lines) + "\n"


def test_public_surface_matches_snapshot():
    assert SNAPSHOT.exists(), (
        f"missing snapshot {SNAPSHOT}; generate it with "
        f"`python {__file__} --update`")
    expected = SNAPSHOT.read_text()
    actual = render_surface()
    assert actual == expected, (
        "public API surface changed; if intentional, regenerate with "
        f"`python {__file__} --update` and document the migration")


if __name__ == "__main__":
    if "--update" in sys.argv:
        SNAPSHOT.write_text(render_surface())
        print(f"wrote {SNAPSHOT}")
    else:
        print(render_surface(), end="")
