"""Compatibility shim: the query-history optimisation is now a backend layer.

The paper's Section 3.2 query-history cache used to live here, private to
the sampler core.  The backend-stack refactor lifted it into
:mod:`repro.backends.history` as :class:`~repro.backends.history.HistoryLayer`
so *both* access paths (direct engine and page scraping) deduplicate and
short-circuit known-empty/known-valid queries.  This module re-exports the
layer under its historical name so existing imports keep working:

``QueryHistoryCache`` **is** ``HistoryLayer`` — same class, same behaviour,
same checkpoint serialisation, and the same ``inference=`` switch: one probe
of the subsumption index (``"indexed"``) or its linear-scan oracle
(``"scan"``).
"""

from __future__ import annotations

from repro.backends.history import CachedResponseSource, HistoryLayer, HistoryStatistics

#: Historical name of :class:`~repro.backends.history.HistoryLayer`.
QueryHistoryCache = HistoryLayer

__all__ = [
    "CachedResponseSource",
    "HistoryStatistics",
    "QueryHistoryCache",
]
