"""Tracer-only shim: ``get_kernel("edit-distance").make_backend(tau)``.

Nothing in the library imports it; ``benchmarks/e2e/tracing.py::_core``
builds its replay index through this call, and the shim goes with that
call (ROADMAP 1(d)).  Any other name is refused.
"""

from ..exceptions import UnknownMethodError
from ..search.searcher import Searcher


class _EditDistance:
    name = "edit-distance"

    @staticmethod
    def make_backend(max_tau: int) -> Searcher:
        """An empty searcher answering thresholds up to ``max_tau``."""
        return Searcher((), max_tau)


def get_kernel(name: str) -> type[_EditDistance]:
    """The one kernel, ``"edit-distance"``; any other name is refused."""
    if name != _EditDistance.name:
        raise UnknownMethodError("similarity kernel", str(name),
                                 (_EditDistance.name,))
    return _EditDistance
