"""Re-export of :func:`~repro.core.fast_index.batch_knn`.

The tick benchmark's trace (``benchmarks/tick/layers.py``) wraps
``batch_knn`` as a global of each module in its ``KERNEL_MODULES``, and
this module is one of them; it can go once that list drops it.
"""

from .fast_index import batch_knn

__all__ = ["batch_knn"]
