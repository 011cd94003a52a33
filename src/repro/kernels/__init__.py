"""Array-backed sparse kernels for the blocking-graph hot path.

Algorithm 1's cost is dominated by three passes -- ``beta``
accumulation over purged token blocks, the transpose + top-K pruning of
the value evidence, and ``gamma`` propagation over retained edges.  The
reference implementation (:mod:`repro.graph.construction`) runs them
over dicts of dicts; this package re-implements them over integer-
interned flat arrays (CSR-style), with two interchangeable backends:

* :mod:`repro.kernels.python_backend` -- dependency-free dense
  scratch-row + touched-list accumulators;
* :mod:`repro.kernels.numpy_backend` -- vectorised expansion +
  ``unique``/``bincount`` collapse (used when numpy is importable).

Both are **bit-identical** to the dict reference (same float
accumulation order per pair), so backend selection
(``MinoanERConfig.kernel_backend``) is purely a performance knob
between the two, and the dict reference stays in
:mod:`repro.graph.construction` as the equivalence oracle for tests --
a reference implementation, not a third backend.

:mod:`repro.kernels.partition` runs the same fused kernels one node
range at a time for the stage-parallel pipeline.
"""

from repro.kernels.dispatch import (
    KERNEL_API,
    KERNEL_BACKENDS,
    available_backends,
    get_backend,
    missing_api,
    numpy_available,
    resolve_backend_name,
)
from repro.kernels.interning import (
    BatchEvidence,
    CSRAdjacency,
    InternedBlocks,
    RankedLists,
    block_weight,
)
from repro.kernels.python_backend import accumulate_row, select_row

__all__ = [
    "KERNEL_API",
    "KERNEL_BACKENDS",
    "BatchEvidence",
    "CSRAdjacency",
    "InternedBlocks",
    "RankedLists",
    "accumulate_row",
    "available_backends",
    "block_weight",
    "get_backend",
    "missing_api",
    "numpy_available",
    "resolve_backend_name",
    "select_row",
]
