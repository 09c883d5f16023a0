"""``repro.store`` — the persistent, content-addressed result store.

Process-level result caching (``repro.api.evaluate``'s ``_RESULTS``)
dies with the process; this package makes every evaluated design point
durable.  Results live in one SQLite file (WAL mode, safe for
concurrent CI shards / sweep workers / service threads), keyed by the
canonical spec JSON + the result schema version + a fingerprint of the
``repro`` sources — so a warm store answers only the *identical*
question asked of the *identical* code, and a warm ``repro report`` /
``repro sweep`` / service batch performs zero simulations.

Location: ``$REPRO_RESULT_STORE`` (a file path, or ``0``/``off`` to
disable), default ``~/.cache/repro-results/results.sqlite``.  CLI:
``repro store {stats,gc,export,import}`` (``gc --max-rows/--max-age``
evicts least-recently-used rows; ``import`` merges another store's
export archive for multi-machine pooling).
"""

from repro import _lazy_exports

#: Each public name and the module that defines it, imported on first
#: access: a client that only checks a code fingerprint never loads
#: the SQLite store.
_EXPORTS = {
    "STORE_ENV": "repro.store.store",
    "ResultStore": "repro.store.store",
    "code_fingerprint": "repro.store.fingerprint",
    "default_store": "repro.store.store",
    "reset_default_stores": "repro.store.store",
    "store_path": "repro.store.store",
}

__all__ = sorted(_EXPORTS)
__getattr__ = _lazy_exports(__name__, _EXPORTS)
