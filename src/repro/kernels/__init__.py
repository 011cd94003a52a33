"""Array-backed sparse kernels for the blocking-graph hot path.

Algorithm 1's cost is dominated by three passes -- ``beta``
accumulation over purged token blocks, the transpose + top-K pruning of
the value evidence, and ``gamma`` propagation over retained edges.
:mod:`repro.kernels.numpy_backend` runs them over integer-interned flat
arrays (CSR-style) with vectorised expansion + ``unique``/``bincount``
collapse.

The kernels are **bit-identical** to the dict-of-dicts reference of
the same passes (same float accumulation order per pair), which lives
in ``tests/graph/dict_reference.py`` as the tests' equivalence oracle --
a reference implementation, not a second runtime.

:mod:`repro.kernels.partition` runs the same fused kernels one node
range at a time for the stage-parallel pipeline.
"""

from __future__ import annotations

from types import ModuleType

from repro.kernels import numpy_backend
from repro.kernels.interning import (
    BatchEvidence,
    CSRAdjacency,
    InternedBlocks,
    RankedLists,
    block_weight,
)
from repro.kernels.numpy_backend import accumulate_row, select_row

__all__ = [
    "BatchEvidence",
    "CSRAdjacency",
    "InternedBlocks",
    "RankedLists",
    "accumulate_row",
    "block_weight",
    "get_backend",
    "numpy_backend",
    "select_row",
]


def get_backend() -> ModuleType:
    """The kernel module, :mod:`repro.kernels.numpy_backend`.

    Every call increments the ``kernels.dispatch.numpy`` counter on the
    ambient :func:`repro.obs.current_recorder`, so traces show where
    the offline pipeline dispatched kernels, and is a ``kernel:numpy``
    injection site for chaos plans (the serving engine injects per
    kernel *call* instead; see ``MatchEngine._run_kernel``).  Callers
    look kernels up on the returned module at call time, so a wrapper
    installed on a module attribute sees every call.
    """
    from repro.obs import current_recorder
    from repro.resilience.faults import inject

    current_recorder().count("kernels.dispatch.numpy")
    inject("kernel:numpy")
    return numpy_backend
