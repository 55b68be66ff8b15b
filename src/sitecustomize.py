"""Start-up hook that makes zip-import invalidation lazy in Spark's Python
daemon and workers (:mod:`repro.lazy_zip`).

Python's ``site`` imports ``sitecustomize`` from the first ``sys.path``
entry that has one; under ``PYTHONPATH=src`` that is this file. Spark sets
``PYTHON_WORKER_FACTORY_SECRET`` for its Python daemon and workers, and the
driver has no such variable, so only Spark's processes install the importer.
The daemon forks every RDD, UDF and ``mapInPandas`` worker, so each inherits
it, from its first task on. Where an earlier path entry has its own
``sitecustomize`` (a distribution's, in the stdlib directory, comes before a
``.pth`` entry) this hook is shadowed and the workers keep the eager
``zipimporter``.

The hook then runs the ``sitecustomize`` it shadows, if a path entry after
its own has one (Debian and Ubuntu ship one). Only the entries after the
last one that holds this file are searched, so two copies of the hook on
the path run once each instead of importing each other in turn.
"""
import os
import sys
from importlib.machinery import PathFinder
from importlib.util import module_from_spec


def _main() -> None:
    if "PYTHON_WORKER_FACTORY_SECRET" in os.environ:
        from repro.lazy_zip import install

        install()
    here = os.path.realpath(os.path.dirname(__file__))
    own = [i for i, p in enumerate(sys.path) if os.path.realpath(p or os.curdir) == here]
    spec = PathFinder.find_spec(__name__, sys.path[own[-1] + 1:] if own else [])
    if spec is not None:
        spec.loader.exec_module(module_from_spec(spec))


_main()
