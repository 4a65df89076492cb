"""The per-thread scratch slab behind the shared-weight gradient walk.

One local training per (silo, user) per round needs the same few dozen
large temporaries every few milliseconds; allocating them each time hands
their pages back to the kernel in between, and a round spends a third of
its CPU re-faulting ~90 MB.  :class:`Workspace` keeps one byte slab
instead, handed out as shaped views of the dtype each request names
(the engine's float64 rows, the walk's float32 scratch) with stack
discipline::

    [ result block | scratch: take / mark / release ... ]
    0              floor                              top

One lifetime rule: **a view is valid until its scope is re-opened** --
:meth:`Workspace.result` opens the engine's (its row block lives until the
next engine call), :meth:`Workspace.reset` the walk's above it (``take``
views live until the next ``per_group_gradients`` call or evaluation
chunk, neither of which disturbs the rows).  A request the slab cannot hold becomes a plain
allocation and is remembered; the next scope opens on a slab regrown to
fit, so the slab settles at the largest call's high-water mark and a
steady-state round touches no fresh page.  Views handed out before a
regrowth keep the old slab alive and stay valid.  The slab never shrinks,
so it is capped: what would push the stack past :attr:`Workspace.MAX_BYTES`
(an unchunked DP-SGD call over a whole silo, a silo-sized row block) stays
a plain allocation, freed with its call as before the workspace.
"""

from __future__ import annotations

import math
import os
import threading

import numpy as np

_ALIGN = 64


class Workspace(threading.local):
    """A grow-to-high-water byte slab, one per thread (two threads running
    the walk at once never share scratch) and keyed to the owning process:
    a forked worker drops the slab it inherited when it opens its first
    scope rather than writing into pages it shares with its parent."""

    #: Most a thread keeps: ~7x the high-water mark of a Fig. 5 MNIST CNN
    #: round (18.6 MiB: float64 rows of <= 42 users under float32 scratch),
    #: ~2.3x that of a full 128-user micro-batch (56 MiB).
    MAX_BYTES = 1 << 27

    def __init__(self) -> None:
        self._pid: int | None = None
        self._slab = np.empty(0, dtype=np.uint8)
        self._floor = 0  # bytes of the result block below the scratch stack
        self._top = 0  # next free scratch byte
        self._need = 0  # highest ``_top`` any scope has reached

    @property
    def nbytes(self) -> int:
        """Slab size: the high-water mark once scopes repeat."""
        return self._slab.nbytes

    def _open(self, floor: int) -> None:
        pid = os.getpid()
        if pid != self._pid:
            self._pid, self._slab = pid, np.empty(0, dtype=np.uint8)
            self._need = floor = 0
        self._floor = self._top = floor
        if self._need > self._slab.nbytes:
            self._slab = np.empty(self._need, dtype=np.uint8)

    def result(self, shape: tuple[int, int]) -> np.ndarray:
        """The uninitialised float64 row block of one engine call; re-opens
        both scopes (the previous result and all scratch views are dead)."""
        self._open(0)
        rows = self.take(shape, np.float64)
        self._floor = self._top
        return rows

    def reset(self) -> None:
        """Re-open the scratch scope (the result block is left alone)."""
        self._open(self._floor)

    def take(self, shape, dtype) -> np.ndarray:
        """An uninitialised ``dtype`` scratch array on top of the stack."""
        dtype = np.dtype(dtype)
        nbytes = math.prod(shape) * dtype.itemsize
        start, top = self._top, self._top + -(-nbytes // _ALIGN) * _ALIGN
        if top > self.MAX_BYTES:
            return np.empty(shape, dtype)  # too large to keep: not remembered
        self._top = top
        self._need = max(self._need, top)
        if top > self._slab.nbytes:
            return np.empty(shape, dtype)  # this call pays; the next scope regrows
        return self._slab[start : start + nbytes].view(dtype).reshape(shape)

    def mark(self) -> int:
        """The current stack top, for :meth:`release`."""
        return self._top

    def release(self, mark: int) -> None:
        """Pop everything taken since ``mark`` (those views are dead)."""
        self._top = mark


#: The process's workspace (a slab per thread):
#: :func:`repro.nn.batched.per_group_gradients` and
#: :func:`repro.nn.batched.forward_logits` take their temporaries from it,
#: :mod:`repro.core.engine` its row block.
WORKSPACE = Workspace()
