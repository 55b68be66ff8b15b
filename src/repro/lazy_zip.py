"""Lazy zip-import cache invalidation for Spark's Python workers.

PySpark's Python worker calls ``importlib.invalidate_caches()`` at the
start of every task. With the eager ``zipimporter`` of Python 3.11/3.12
that re-reads the central directory of every archive finder
(``pyspark.zip``, py4j, the Spark jar): 145–320 ms per task on a 4-core
box with Python 3.11.7. :func:`install` gives the finders 3.13's lazy
semantics.

Stdlib only: ``sitecustomize`` imports this module in Spark's Python
daemon, which forks every worker, so it must not pull numpy, pandas or
pyspark into that process.
"""
from __future__ import annotations

import sys
import zipimport


class _LazyZipImporter(zipimport.zipimporter):
    """A ``zipimporter`` with Python 3.13's lazy ``invalidate_caches``: it
    only drops the archive's directory, which the next access by any method
    re-reads. Before 3.13 every method reads the directory as ``self._files``,
    and ``invalidate_caches`` re-reads it at once."""

    @property
    def _files(self) -> dict:
        try:
            return zipimport._zip_directory_cache[self.archive]
        except KeyError:
            try:
                files = zipimport._read_directory(self.archive)
            except zipimport.ZipImportError:
                return {}
            zipimport._zip_directory_cache[self.archive] = files
            return files

    @_files.setter
    def _files(self, files: dict) -> None:
        # ``zipimporter.__init__`` assigns the directory it has just stored
        # in ``_zip_directory_cache``, which the getter reads.
        pass

    def invalidate_caches(self) -> None:
        zipimport._zip_directory_cache.pop(self.archive, None)


def install() -> None:
    """Make zip-import cache invalidation lazy in this process (idempotent).

    Replaces the ``zipimporter`` path hook and re-classes the finders it has
    already cached. A no-op where ``zipimporter`` is already lazy."""
    if hasattr(zipimport.zipimporter, "_get_files"):
        return
    sys.path_hooks[:] = [
        _LazyZipImporter if hook is zipimport.zipimporter else hook for hook in sys.path_hooks
    ]
    for finder in sys.path_importer_cache.values():
        if type(finder) is zipimport.zipimporter:
            # In place, so the modules it loaded (their ``__loader__``) read
            # the shared directory too and are never served a stale one.
            finder.__class__ = _LazyZipImporter
