"""Kernel backend registry and selection.

Two interchangeable implementations of the blocking-graph hot path:

* ``"python"`` -- the dependency-free array kernels
  (:mod:`repro.kernels.python_backend`);
* ``"numpy"`` -- the vectorised kernels
  (:mod:`repro.kernels.numpy_backend`), available when numpy imports;
* ``"auto"`` -- ``numpy`` when available, else ``python``.

Both produce ``DisjunctiveBlockingGraph``s bit-identical to each other
and to the dict-of-dicts reference in :mod:`repro.graph.construction`
(the tests' oracle, not a backend); selection is a pure performance
knob (``MinoanERConfig.kernel_backend``).
"""

from __future__ import annotations

from types import ModuleType

KERNEL_BACKENDS = ("auto", "python", "numpy")
"""Accepted values of ``MinoanERConfig.kernel_backend``."""

KERNEL_API = (
    "accumulate_beta",
    "accumulate_gamma",
    "accumulate_row",
    "batch_evidence",
    "beta_sparse",
    "gamma_topk",
    "is_available",
    "merge_batch_evidence",
    "retained_edges",
    "row_evidence",
    "select_row",
    "value_topk",
)
"""Entry points every array backend module exposes.

The batch kernels (``value_topk``/``gamma_topk``, the
``retained_edges`` union between them, and their oracle-comparable dict
views), the single-row serving surface (``accumulate_row``/
``select_row`` and the fused ``row_evidence``), and the per-source
batch evidence a shard ships and the router merges
(``batch_evidence``/``merge_batch_evidence``).
The serving engine's breaker fallback swaps backends mid-call, so the
python and numpy modules must stay signature-compatible across this
whole surface; the conformance test walks this tuple."""


def missing_api(module: ModuleType) -> tuple[str, ...]:
    """:data:`KERNEL_API` names ``module`` lacks (empty = conformant)."""
    return tuple(name for name in KERNEL_API if not callable(getattr(module, name, None)))

_NUMPY_AVAILABLE: bool | None = None


def numpy_available() -> bool:
    """True iff the numpy backend can be imported (checked once)."""
    global _NUMPY_AVAILABLE
    if _NUMPY_AVAILABLE is None:
        try:
            import repro.kernels.numpy_backend  # noqa: F401
        except ImportError:
            _NUMPY_AVAILABLE = False
        else:
            _NUMPY_AVAILABLE = True
    return _NUMPY_AVAILABLE


def available_backends() -> tuple[str, ...]:
    """The concrete backends importable in this environment."""
    names = ["python"]
    if numpy_available():
        names.append("numpy")
    return tuple(names)


def resolve_backend_name(backend: str) -> str:
    """Map a configured backend name to a concrete one.

    ``"auto"`` resolves to ``"numpy"`` when importable and ``"python"``
    otherwise; explicit names are validated.
    """
    if backend not in KERNEL_BACKENDS:
        raise ValueError(
            f"unknown kernel backend {backend!r}; expected one of {KERNEL_BACKENDS}"
        )
    if backend == "auto":
        return "numpy" if numpy_available() else "python"
    if backend == "numpy" and not numpy_available():
        raise ValueError("kernel backend 'numpy' requested but numpy is not importable")
    return backend


def get_backend(backend: str) -> ModuleType:
    """The kernel module for ``backend``.

    Every resolution increments the ``kernels.dispatch.<resolved>``
    counter on the ambient :func:`repro.obs.current_recorder`, so
    traces show which backend actually served each run.  Each dispatch
    is also a ``kernel:<resolved>`` injection site for chaos plans (the
    serving engine additionally injects per guarded kernel *call*; see
    ``MatchEngine._run_kernel``).
    """
    from repro.obs import current_recorder
    from repro.resilience.faults import inject

    resolved = resolve_backend_name(backend)
    current_recorder().count(f"kernels.dispatch.{resolved}")
    inject(f"kernel:{resolved}")
    if resolved == "numpy":
        import repro.kernels.numpy_backend as module
    else:
        import repro.kernels.python_backend as module
    return module
