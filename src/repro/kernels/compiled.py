"""numba availability probe.

The numba kernel backend is gone; only this flag remains, because the
frozen wall-clock benchmark (``benchmarks/e2e/harness.py``) stamps it
into its host provenance record.  ROADMAP item 1, which re-aims that
benchmark, deletes this module.
"""

from __future__ import annotations

__all__ = ["HAVE_NUMBA"]

try:  # pragma: no cover - numba is not a dependency
    import numba  # noqa: F401

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover
    HAVE_NUMBA = False
