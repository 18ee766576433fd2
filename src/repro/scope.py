"""Context-local memo scopes: the one mechanism behind the batch memos.

:func:`repro.batch.jobs.parse_scope` and
:func:`repro.pathcover.branch_and_bound.cover_scope` each own one
:class:`ScopedMemo` and decide only what to remember in it.  The
contract both share:

* the seed dict handed to :meth:`ScopedMemo.scope` *is* the memo, so a
  caller can reopen the same scope later; without one, nothing
  outlives the scope;
* scopes nest: an inner scope joins the open one, adding its seeds;
* the memo is context-local, so each thread (and each serve
  dispatcher) sees only the scope it opened itself, and a forked
  process (a pool worker) starts outside any scope;
* a computation that raises is never remembered: callers store a
  value only after computing it.

The module imports nothing from :mod:`repro`, so every layer may use
it.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator


class ScopedMemo:
    """One kind of context-local memo: open it, then read it with
    :meth:`get` wherever the work happens."""

    def __init__(self, name: str):
        self._memo: ContextVar[dict | None] = ContextVar(name,
                                                         default=None)
        os.register_at_fork(after_in_child=lambda: self._memo.set(None))

    def get(self) -> dict | None:
        """The open scope's memo, or ``None`` outside any scope."""
        return self._memo.get()

    @contextmanager
    def scope(self, seed: dict | None = None) -> Iterator[dict]:
        """Open a scope whose memo is ``seed`` (a fresh dict when
        ``None``), or join the one already open, adding ``seed`` to
        it."""
        outer = self._memo.get()
        if outer is not None:
            outer.update(seed or {})
            yield outer
            return
        memo = seed if seed is not None else {}
        token = self._memo.set(memo)
        try:
            yield memo
        finally:
            self._memo.reset(token)
