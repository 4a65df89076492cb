"""One driver for every secure-aggregation message schedule.

A schedule is a table of ``(phase, sender, receiver, frame type)`` rows
over the roles :data:`SERVER`, :data:`SILO` and :data:`HOST` (a party's
own local step; nothing crosses the wire).  A frame's ``"silo"`` payload
key names the silo end of its edge (an upload's sender, a server frame's
addressee; none = every silo).  A :class:`Party` handler ``on_<type>``
takes the delivered :class:`repro.net.wire.Frame` and returns the frames
its party sends, or a :class:`Task`: a pure kernel the driver maps over
its process pool for a whole row at once, after the RNG-dependent
preparation ran in-process, party by party.

A phase delivers its rows' pending frames in row order, repeating the rows
while any has one (so the OT round runs one (silo, user) at a time); a
phase with none is skipped.  Each phase opens one ``kind="phase"`` trace span,
whose duration is the phase's time; every delivered frame goes to
:attr:`Driver.log`, whose server-bound frames are the server's view
(Theorem 5); it keeps the set-up's and the latest round's.

A silo is a :class:`Party` (its frames cross in memory, unpacked) or that
silo's :class:`repro.net.transport.MessageSocket` (``None``: not
connected).  A row's frames for socket silos are all sent before any reply
is read; the row then reads each silo's reply -- the phase's silo-to-server
frame type, echoing the request's ``"round"`` (and its ``"attempt"``, when
the request carries one) -- in silo-index order, and queues it as that
silo's.  A send or read failure raises
:class:`repro.net.transport.SiloFailure` once every reply owed is read.
"""

from __future__ import annotations

import dataclasses
import itertools
import os
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, NamedTuple

import numpy as np

from repro.core.engine import fork_pool
from repro.net.transport import SiloFailure, TransportError
from repro.net.wire import Frame, WireError, blob_ints, int_blob
from repro.obs.trace import get_recorder

SERVER, SILO, HOST = "server", "silo", "host"

#: The set-up both backends open with: DH publics up, all of them back down.
KEY_EXCHANGE = (
    ("key_exchange", HOST, SILO, "setup"),
    ("key_exchange", SILO, SERVER, "dh_public"),
    ("key_exchange", HOST, SERVER, "keys"),
    ("key_exchange", SERVER, SILO, "keys"),
)


class Delivery(NamedTuple):
    """One logged frame; ``sender`` / ``receiver`` are "server" or a silo id."""
    phase: str
    sender: str | int
    receiver: str | int
    frame: Frame


class Task(NamedTuple):
    """``fn(*args, items)`` (top-level, picklable) returns one result per
    item; ``then(results)`` returns the frames to send."""
    fn: Callable
    args: tuple
    items: list
    then: Callable


class Party:
    def handle(self, frame: Frame):
        return getattr(self, f"on_{frame.type}")(frame) or []


class KeyHolder(Party):
    """A silo's side of :data:`KEY_EXCHANGE`: publish :attr:`dh_keypair`'s
    public key, then take every silo's (:meth:`receive_dh_publics`)."""

    def on_setup(self, frame):
        kp = self.dh_keypair
        return [Frame("dh_public", {}, {"public": int_blob([kp.public], kp.group.prime)})]

    def on_keys(self, frame):
        self.receive_dh_publics(dict(enumerate(blob_ints(frame.arrays["publics"]))))


class KeyRelay(Party):
    """The server's side of :data:`KEY_EXCHANGE`: collect the silos' DH
    publics in :attr:`dh_publics`, then relay them all (+ :meth:`key_arrays`)."""

    def on_dh_public(self, frame):
        self.dh_publics[frame.payload["silo"]] = frame.arrays["public"]

    def on_keys(self, frame):
        publics = np.concatenate([self.dh_publics[s] for s in sorted(self.dh_publics)])
        return [Frame("keys", {}, {"publics": publics, **self.key_arrays()})]

    def key_arrays(self) -> dict:
        return {}


def _matches(row, entry) -> bool:
    _, sender, receiver, kind = row
    src, to, frame = entry
    role = SILO if isinstance(src, int) else src
    return (role, to, frame.type) == (sender, receiver, kind)


class Driver:
    """Runs schedules between ``self.server`` and ``self.silos`` (set by the
    subclass); keeps the frame log, the round counter and the per-phase
    seconds (plain float adds: not thread-safe).  ``workers``
    sizes the kernel pool: None = min(|S|, cpus), 1 = in-process;
    ``timeout``: seconds the driver waits for one socket silo's reply."""

    #: The crypto backend a subclass runs; tags its checkpoint state.
    backend: str

    def __init__(self, workers: int | None = None, timeout: float | None = None):
        self.workers = workers
        self.timeout = timeout
        self.log: list[Delivery] = []
        self.round_no = 0
        self._setup_len: int | None = None
        self.seconds: dict[str, float] = defaultdict(float)
        self._outbox: list[tuple[str | int, str, Frame]] = []
        self._executor = None

    @contextmanager
    def phase(self, name: str):
        """Time a block as phase ``name`` by its span's duration
        (recorded even if it raises)."""
        span = get_recorder().span(name, kind="phase")
        try:
            with span:
                yield
        finally:
            self.seconds[name] += span.dur

    def report(self) -> dict[str, float]:
        """Cumulative seconds per phase (a copy)."""
        return dict(self.seconds)

    def received(self, frame_type: str) -> list[Frame]:
        """The frames of ``frame_type`` the server received, in order."""
        return [d.frame for d in self.log if d.receiver == SERVER and d.frame.type == frame_type]

    def setup(self, schedule) -> None:
        """Run the set-up ``schedule``; its deliveries stay in :attr:`log`."""
        self.run(schedule)
        self._setup_len = len(self.log)

    def require_setup(self) -> None:
        """Refuse a round before :meth:`setup` ran (no party state moves)."""
        if self._setup_len is None:
            raise RuntimeError("run_setup must be called first")

    def round(self, schedule, silos=None) -> None:
        """Run one round's ``schedule`` (refused before set-up), after
        dropping the previous round's deliveries from :attr:`log`."""
        self.require_setup()
        del self.log[self._setup_len :]
        self.run(schedule, silos)
        self.round_no += 1

    def state_dict(self) -> dict:
        """Checkpoint state: the round counter, tagged with :attr:`backend`
        (key material rebuilds from the seed)."""
        return {"backend": self.backend, "round_no": self.round_no}

    def load_state(self, state: dict | None) -> None:
        """Restore the round counter; refuse another backend's state."""
        if state is None:
            raise ValueError(
                "checkpoint has no protocol round counter: it predates the "
                "counter in Paillier checkpoints, and resuming it would reuse "
                "round 0's masks"
            )
        if state.get("backend") != self.backend:
            raise ValueError(
                "checkpoint and rebuilt method disagree about the crypto "
                "backend; was the spec's crypto section changed?"
            )
        self.round_no = int(state["round_no"])

    def run(self, schedule, silos=None) -> None:
        """Run ``schedule`` on what :meth:`post` queued; its :data:`HOST`
        rows step the server and the ``silos`` given (default: all).  The
        queue is empty after, whether the run finished or raised."""
        silos = range(len(self.silos)) if silos is None else silos
        try:
            for name, rows in itertools.groupby(schedule, key=lambda row: row[0]):
                rows = list(rows)
                for _, sender, to, kind in rows:
                    if sender == HOST:
                        targets = silos if to == SILO else [None]
                        self._outbox += [(HOST, to, Frame(kind, {} if s is None else {"silo": s}))
                                         for s in targets]
                reply = next((kind for _, sender, to, kind in rows if (sender, to) == (SILO, SERVER)), None)
                if any(_matches(row, entry) for row in rows for entry in self._outbox):
                    with self.phase(name):
                        while any([self._deliver(name, row, reply) for row in rows]):
                            pass
        finally:
            self._outbox = []

    def _deliver(self, phase: str, row, reply: str | None) -> bool:
        """Deliver the row's pending frames (a socket silo's answer is a
        ``reply`` frame); False if it had none."""
        batch = [entry for entry in self._outbox if _matches(row, entry)]
        self._outbox = [entry for entry in self._outbox if not _matches(row, entry)]
        tasks, sends = [], []
        for src, to, frame in batch:
            silo = frame.payload.get("silo")
            targets = [SERVER] if to == SERVER else range(len(self.silos)) if silo is None else [silo]
            for dst in targets:
                if src != HOST:
                    self.log.append(Delivery(phase, src, dst, frame))
                party = self.server if dst == SERVER else self.silos[dst]
                if not isinstance(party, Party):
                    sends.append((dst, frame))
                    continue
                out = party.handle(frame)
                if isinstance(out, Task):
                    tasks.append((dst, out))
                else:
                    self.post(dst, out)
        if tasks:
            self._map(tasks)
        if sends:
            self._exchange(sends, reply)
        return bool(batch)

    def _exchange(self, sends: list[tuple[int, Frame]], reply: str) -> None:
        """Send each frame on its silo's socket (which names the silo: the
        ``"silo"`` key stays home), then read each silo's ``reply`` in
        silo-index order, each within :attr:`timeout` and in one
        ``silo_<type>`` trace span, and queue it as the silo's.  The first
        failure is raised once every reply owed has been read, so none is
        left to answer a later request; a socket failing after it is closed."""
        owed, failure = [], None
        for s, frame in sends:
            conn = self.silos[s]
            if conn is None:
                failure = failure or SiloFailure(s, f"connection lost before {frame.type}")
                continue
            sent0 = conn.bytes_sent
            try:
                conn.send(frame.type, {k: v for k, v in frame.payload.items() if k != "silo"},
                          frame.arrays)
            except TransportError as exc:
                failure = failure or SiloFailure(s, str(exc))
                continue
            owed.append((s, conn, frame, conn.bytes_sent - sent0))
        for s, conn, frame, downlink in sorted(owed, key=lambda entry: entry[0]):
            t, attempt = frame.payload["round"], frame.payload.get("attempt")
            with get_recorder().span(f"silo_{frame.type}", kind="silo", silo=s, round=t + 1) as span:
                recv0 = conn.bytes_received
                try:
                    answer = conn.recv_matching(reply, t, self.timeout, attempt)
                except (TransportError, WireError) as exc:  # incl. a missed deadline
                    if failure is not None:
                        conn.close()
                    failure = failure or SiloFailure(s, str(exc))
                    span.set(error=type(exc).__name__)
                    continue
                # How close this silo came to being dropped for the round.
                margin = self.timeout - span.elapsed
                span.set(deadline_margin=margin, downlink_bytes=downlink,
                         uplink_bytes=conn.bytes_received - recv0)
            # A copy: the stamped "silo" key is the driver's, not the wire's.
            self.post(s, [dataclasses.replace(answer, payload=dict(answer.payload))])
        if failure is not None:
            raise failure

    def _map(self, tasks: list[tuple[str | int, Task]]) -> None:
        """A row's tasks as one flat map: inline with one worker, else one
        equal slice of all their items per worker (party boundaries do not
        decide the balance)."""
        fn, args = tasks[0][1].fn, tasks[0][1].args
        items = [item for _, task in tasks for item in task.items]
        workers = self.workers if self.workers is not None else os.cpu_count() or 1
        workers = max(1, min(workers, len(self.silos)))
        if workers == 1 or len(items) < 2:
            results = iter(fn(*args, items))
        else:
            size = -(-len(items) // workers)
            chunks = [items[i : i + size] for i in range(0, len(items), size)]
            columns = [[arg] * len(chunks) for arg in args]
            parts = self._get_executor(workers).map(fn, *columns, chunks)
            results = (result for part in parts for result in part)
        for dst, task in tasks:
            self.post(dst, task.then(list(itertools.islice(results, len(task.items)))))

    def post(self, sender: str | int, frames) -> None:
        """Queue what ``sender`` sends, a silo's stamped with its id."""
        for frame in frames or []:
            if isinstance(sender, int):
                frame.payload["silo"] = sender
            self._outbox.append((sender, SILO if sender == SERVER else SERVER, frame))

    def _get_executor(self, workers: int):
        """The protocol-lifetime pool, made on first use."""
        if self._executor is None:
            self._executor = fork_pool(workers)
        return self._executor

    def close(self) -> None:
        """Release the worker pool (idempotent, and safe half-built)."""
        if getattr(self, "_executor", None) is not None:
            self._executor.shutdown()
            self._executor = None

    def __del__(self):
        self.close()
