"""Disk cache of built indexes.

The paper's artifact builds every index once before running experiments
(Appendix A.5); graph construction dominates wall-clock time there and
here.  :class:`IndexStore` pickles built indexes keyed by a canonical
string of (dataset, index kind, build parameters) so sweeps and repeated
benchmark invocations reuse them.

The cache directory defaults to ``.repro-cache/`` in the working
directory and can be moved with ``REPRO_CACHE_DIR``; delete it to force
rebuilds.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import pickle
import typing as t
from pathlib import Path

from repro.errors import ReproError

CACHE_ENV = "REPRO_CACHE_DIR"
DEFAULT_DIR = ".repro-cache"

#: Pickle-shape version of cached objects, folded into every key.  Bump
#: it when a cached class gains or loses an attribute: entries written
#: by older code then miss and are rebuilt instead of being migrated.
CACHE_FORMAT = 2

#: Per-process serial for temp-file names; combined with the pid it
#: keeps concurrent builders (and re-entrant builds of the same key in
#: one process) from ever sharing a temp file.
_tmp_counter = itertools.count()


def cache_dir() -> Path:
    """The active cache directory (created on demand)."""
    return Path(os.environ.get(CACHE_ENV, DEFAULT_DIR))


def cache_key(**parts: t.Any) -> str:
    """Canonical, filesystem-safe key from keyword parts."""
    if not parts:
        raise ReproError("cache_key needs at least one part")
    text = f"format={CACHE_FORMAT};" + ";".join(
        f"{key}={parts[key]!r}" for key in sorted(parts))
    digest = hashlib.sha256(text.encode()).hexdigest()[:16]
    head = "-".join(
        str(parts[key]) for key in sorted(parts)
        if isinstance(parts[key], (str, int)))[:80]
    safe = "".join(ch if ch.isalnum() or ch in "-._" else "_"
                   for ch in head)
    return f"{safe}-{digest}"


class IndexStore:
    """get-or-build cache of picklable built objects."""

    def __init__(self, root: Path | str | None = None) -> None:
        self.root = Path(root) if root is not None else cache_dir()
        self.hits = 0
        self.builds = 0

    def path_for(self, key: str) -> Path:
        return self.root / f"{key}.pkl"

    def get_or_build(self, key: str, factory: t.Callable[[], t.Any],
                     refresh: bool = False) -> t.Any:
        """Load the cached object for *key*, or build and cache it."""
        path = self.path_for(key)
        if not refresh and path.exists():
            try:
                with open(path, "rb") as handle:
                    obj = pickle.load(handle)
                self.hits += 1
                return obj
            except (pickle.UnpicklingError, EOFError, AttributeError,
                    ImportError):
                # Stale or corrupt entry — including pickles referencing
                # classes that have since been renamed or moved
                # (ImportError covers ModuleNotFoundError): rebuild.
                path.unlink(missing_ok=True)
        obj = factory()
        self.builds += 1
        self.root.mkdir(parents=True, exist_ok=True)
        # Unique per process *and* per call: concurrent builders of the
        # same key each write their own temp file, and the atomic
        # replace makes the last finisher win with an intact pickle.
        tmp = path.with_name(
            f"{path.name}.{os.getpid()}.{next(_tmp_counter)}.tmp")
        try:
            with open(tmp, "wb") as handle:
                pickle.dump(obj, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)
        return obj

    def clear(self) -> int:
        """Remove all cached entries; returns how many were deleted."""
        removed = 0
        if self.root.exists():
            for path in self.root.glob("*.pkl"):
                path.unlink()
                removed += 1
        return removed


_default_store: IndexStore | None = None


def default_store() -> IndexStore:
    """Process-wide store rooted at :func:`cache_dir`."""
    global _default_store
    if _default_store is None or _default_store.root != cache_dir():
        _default_store = IndexStore()
    return _default_store
