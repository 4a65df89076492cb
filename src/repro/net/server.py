"""The round-orchestrating federation server (``repro serve``).

:class:`FederationServer` owns the same
:class:`repro.sim.FederationSimulator` the in-process runtime drives, but
farms each silo's per-round training out to real silo processes
(:mod:`repro.net.silo_client`) over the :mod:`repro.net.wire` protocol.

Design invariants:

- **The server sees what Algorithm 3 lets it see.**  Per round and silo
  that is one noisy vector -- ``sum_u w[s,u] * clip(delta_su) + z_s``,
  formed inside the silo process by :meth:`silo_payload
  <repro.core.methods.uldp_avg.UldpAvg.silo_payload>` -- plus the ids of
  the users behind it.  No per-user row and no un-noised sum crosses the
  socket; the server validates each ``update`` (ids it asked for, one
  finite ``(P,)`` array of the method's ``payload_dtype``, float32) and
  adds it up in float64.
- **One message runtime, bit-identical to the in-process one.**  A round
  is :data:`ROUND`, run by the secure schedules' driver
  (:class:`repro.protocol.driver.Driver`) with each silo's socket in place
  of its party: every active silo gets its ``compute`` -- the round, the
  round's broadcast (:meth:`repro.core.FLMethod.broadcast`), its weight
  row and noise std -- before any ``update`` is read, in silo order.  A
  silo runs the in-process round's per-silo step from its own generator
  (``UldpAvg._draw_silo``: spec, round, silo) and the frame log's payloads
  are folded in silo order, so an ideal-network run matches
  :class:`repro.sim.FederationSimulator` aggregate-for-aggregate; and this
  server can recompute every silo's noise (:data:`NOISE_WARNING`).
- **Timeout-driven dropout.**  A silo that misses the liveness ping or
  its compute deadline becomes an *observed* dropout for the round
  (:attr:`FederationSimulator.external_dropout`) and the round is
  retried from a state snapshot without the failed silo, once the updates
  the aborted attempt was owed are read (:attr:`FederationServer.retry_ledger`
  is charged their bytes).  When
  live silos fall below ``net.min_quorum`` the server broadcasts an
  abort and raises :class:`repro.core.weighting.QuorumError`.
- **Crash-safe resume.**  With ``sim.checkpoint_dir`` set the server
  snapshots through the in-process runtime's cadence helper
  (:func:`repro.sim.scenarios.save_checkpoint_if_due`); ``repro serve
  --resume`` rebuilds the simulator from the (spec-verified) checkpoint,
  keeps snapshotting into the directory it resumed from, and silos
  simply reconnect -- they are stateless between rounds.

See ``docs/networking.md`` for the full walkthrough.
"""

from __future__ import annotations

import logging
import socket
import time

import numpy as np

from repro.api.runner import (
    build_simulator,
    checkpoint_extra,
    obs_session,
    validate_spec_names,
)
from repro.api.spec import RunSpec, SpecError
from repro.core.weighting import QuorumError
from repro.net.transport import (
    DeadlineExceeded,
    MessageSocket,
    SiloFailure,
    TransportError,
)
from repro.net.wire import PROTOCOL_VERSION, Frame, WireError, is_finite_vector
from repro.obs.trace import get_recorder
from repro.protocol.driver import SERVER, SILO, Driver, Party
from repro.sim.scenarios import save_checkpoint_if_due

log = logging.getLogger(__name__)


#: What ``repro serve`` logs at start-up: who can re-derive a silo's noise.
NOISE_WARNING = (
    "security: silo noise is seeded from the spec (reproducible, not secret); "
    "a server holding the spec can recompute it, so DP protects the released "
    "model, not the silos' updates from this server")


#: The plaintext round (Algorithm 3 lines 3-17): every active silo gets its
#: inputs, then each answers with the one noisy vector it releases.
ROUND = (
    ("collect_contributions", SERVER, SILO, "compute"),
    ("collect_contributions", SILO, SERVER, "update"),
)


def _valid_users(users, weight_row: np.ndarray) -> bool:
    """Whether an update frame's ``users`` is a list of distinct ints, each
    a user this silo was asked to train (in range, non-zero round weight).

    The ids feed ``users_seen`` -- the participation record and, through
    it, what the run reports about who contributed -- so a duplicate,
    negative, out-of-range or non-numeric entry, or a user this silo was
    not asked to train, would crash the server or falsify that record.
    """
    return (
        isinstance(users, list)
        and all(type(u) is int and 0 <= u < weight_row.size for u in users)
        and len(set(users)) == len(users)
        and all(weight_row[u] != 0.0 for u in users)
    )


class FederationServer(Party):
    """Drives one simulate-mode spec over real silo connections; the
    server's party of :data:`ROUND`."""

    def __init__(self, spec: RunSpec, sim=None, checkpoint_dir=None):
        """``sim``: a resumed simulator (default: built from ``spec``);
        ``checkpoint_dir``: where snapshots go -- the directory it was
        resumed from (default: the spec's ``sim.checkpoint_dir``)."""
        if spec.net is None:  # (a spec with [net] always has [sim])
            raise SpecError("spec has no [net] section; nothing to serve")
        # The per-silo step, synchronous rounds, a quorum the roster can
        # meet: refused here exactly as `repro validate-config` refuses them.
        validate_spec_names(spec)
        self.spec = spec
        self.net = spec.net
        self.sim = sim if sim is not None else build_simulator(spec)
        self.checkpoint_dir = (
            checkpoint_dir if checkpoint_dir is not None
            else spec.sim.checkpoint_dir)
        self.spec_hash = spec.hash()
        self.listener: socket.socket | None = None
        self.port: int | None = None
        self.conns: dict[int, MessageSocket] = {}
        #: Wire bytes spent on round attempts that were aborted and
        #: retried after a :class:`SiloFailure`.  ``TrainingHistory.comm``
        #: is rolled back with the snapshot, so aborted-attempt traffic
        #: lands here (and only here) -- never double-counted in the
        #: per-round comm ledger.  Uplink is silo->server (server
        #: receives), downlink server->silo.
        self.retry_ledger: dict[str, int] = {
            "attempts": 0, "uplink_bytes": 0, "downlink_bytes": 0,
        }
        #: Runs :data:`ROUND` over the silos' sockets; its :attr:`log
        #: <repro.protocol.driver.Driver.log>` holds the latest attempt's
        #: frames, the server's view.
        self.driver = Driver(timeout=self.net.round_timeout)
        self.driver.server = self
        self._round_weights: np.ndarray | None = None
        #: The round's attempt, carried by each ``compute`` and echoed by
        #: its ``update``: a retry reads no reply its aborted attempt was
        #: sent (a ``duplicate`` fault's second copy, say).
        self._attempt = 0

    # -- connection management -----------------------------------------------

    def bind(self) -> int:
        """Listen on ``net.host:net.port``; returns the bound port
        (OS-assigned when the spec says port 0)."""
        if self.listener is None:
            self.listener = socket.create_server(
                (self.net.host, self.net.port))
            self.port = self.listener.getsockname()[1]
        return self.port

    def close(self) -> None:
        for conn in self.conns.values():
            conn.close()
        self.conns.clear()
        if self.listener is not None:
            try:
                self.listener.close()
            except OSError:
                pass
            self.listener = None

    def _handshake(self, raw_sock: socket.socket) -> int | None:
        """HELLO/WELCOME on a fresh connection; returns the silo id."""
        conn = MessageSocket(raw_sock)
        try:
            frame = conn.recv(timeout=self.net.ping_timeout)
        except (TransportError, WireError):
            conn.close()
            return None
        reason = None
        silo = frame.payload.get("silo")
        if frame.type != "hello":
            reason = f"expected a hello frame, got {frame.type!r}"
        elif not isinstance(silo, int) or not 0 <= silo < self.sim.fed.n_silos:
            reason = (f"unknown silo id {silo!r} "
                      f"(roster has {self.sim.fed.n_silos} silos)")
        elif frame.payload.get("wire") != PROTOCOL_VERSION:
            reason = (f"protocol version mismatch: the silo speaks "
                      f"{frame.payload.get('wire')!r}, this server speaks "
                      f"{PROTOCOL_VERSION}; run both from the same build")
        elif frame.payload.get("spec_hash") != self.spec_hash:
            reason = ("spec hash mismatch: the silo was built from a "
                      "different configuration than this server")
        if reason is not None:
            log.warning("refused a connection (silo=%s): %s", silo, reason)
            get_recorder().event("handshake_refused", silo=silo, reason=reason)
            try:
                conn.send("refuse", {"reason": reason})
            except TransportError:
                pass
            conn.close()
            return None
        old = self.conns.pop(silo, None)
        if old is not None:
            old.close()
        try:
            conn.send("welcome", {
                "round": self.sim.rounds_completed,
                "rounds": self.sim.config.rounds,
                "n_silos": self.sim.fed.n_silos,
            })
        except TransportError:
            conn.close()
            return None
        self.conns[silo] = conn
        log.info("silo %d joined (round %d, %d/%d connected)",
                 silo, self.sim.rounds_completed, len(self.conns),
                 self.sim.fed.n_silos)
        return silo

    def _await_roster(self) -> None:
        """Wait (up to ``join_timeout``) for the full roster to connect."""
        assert self.listener is not None
        deadline = time.monotonic() + self.net.join_timeout
        while len(self.conns) < self.sim.fed.n_silos:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            self.listener.settimeout(remaining)
            try:
                raw, _ = self.listener.accept()
            except socket.timeout:
                break
            except OSError:
                break
            self._handshake(raw)
        if len(self.conns) < self.net.min_quorum:
            raise TransportError(
                f"only {len(self.conns)} of {self.sim.fed.n_silos} silo(s) "
                f"joined within {self.net.join_timeout:.1f}s, below "
                f"net.min_quorum={self.net.min_quorum}")

    def _drain_rejoins(self) -> None:
        """Accept any pending (re)connections without blocking."""
        assert self.listener is not None
        self.listener.settimeout(0)
        while True:
            try:
                raw, _ = self.listener.accept()
            except (BlockingIOError, socket.timeout, OSError):
                break
            self._handshake(raw)

    def _drop(self, silo: int) -> None:
        conn = self.conns.pop(silo, None)
        if conn is not None:
            conn.close()

    def _broadcast(self, msg_type: str, payload: dict) -> None:
        for s in list(self.conns):
            try:
                self.conns[s].send(msg_type, payload)
            except TransportError:
                self._drop(s)

    # -- the round loop ------------------------------------------------------

    def _collect(self, broadcast, round_weights, noise_std, active):
        """The method's :attr:`contribution_executor
        <repro.core.methods.uldp_avg.UldpAvg.contribution_executor>`: one
        attempt of :data:`ROUND`; the payloads are the logged updates."""
        driver, t = self.driver, self.sim.rounds_completed
        driver.silos = [self.conns.get(s) for s in range(self.sim.fed.n_silos)]
        self._round_weights = round_weights
        driver.post(SERVER, [
            Frame("compute", {"round": t, "attempt": self._attempt,
                              "noise_std": float(noise_std), "silo": s},
                  {"params": broadcast,
                   "weights": np.ascontiguousarray(round_weights[s])})
            for s in active])
        driver.log.clear()
        driver.run(ROUND)
        return [(f.payload["silo"], f.payload["users"], f.arrays["payload"])
                for f in driver.received("update")]

    def on_update(self, frame):
        """An ``update`` must name users its silo was asked to train and
        carry one finite ``(P,)`` array of the method's ``payload_dtype``."""
        s, method = frame.payload["silo"], self.sim.method
        if (not _valid_users(frame.payload.get("users"), self._round_weights[s])
                or len(frame.arrays) != 1
                or not is_finite_vector(frame.arrays.get("payload"),
                                        method.model.num_params, method.payload_dtype)):
            raise SiloFailure(s, "malformed update frame")

    def _ping_phase(self, round_no: int) -> np.ndarray:
        """Liveness sweep: who answers the ping (and says ready) in time.

        A deadline miss keeps the connection (the late PONG is drained as
        a stale frame later); a transport/wire error drops it -- the silo
        reconnects through the listener when it recovers.  The span is
        charged the bytes its frames moved, stale frames it drained
        included.
        """
        alive = np.zeros(self.sim.fed.n_silos, dtype=bool)
        marks = [(c, c.bytes_sent, c.bytes_received) for c in self.conns.values()]
        with get_recorder().span("ping", kind="phase", round=round_no + 1) as span:
            for s in list(self.conns):
                try:
                    self.conns[s].send("ping", {"round": round_no})
                except TransportError:
                    log.warning("round %d: silo %d unreachable at ping; "
                                "dropping the connection", round_no, s)
                    self._drop(s)
            for s in list(self.conns):
                try:
                    frame = self.conns[s].recv_matching(
                        "pong", round_no, self.net.ping_timeout)
                except DeadlineExceeded:
                    log.warning("round %d: silo %d missed the %.1fs ping "
                                "deadline", round_no, s,
                                self.net.ping_timeout)
                    continue
                except (TransportError, WireError):
                    log.warning("round %d: silo %d lost at ping; dropping "
                                "the connection", round_no, s)
                    self._drop(s)
                    continue
                alive[s] = bool(frame.payload.get("ready", True))
            span.set(downlink_bytes=sum(c.bytes_sent - sent for c, sent, _ in marks),
                     uplink_bytes=sum(c.bytes_received - got for c, _, got in marks))
        return alive

    def serve(self):
        """Run the remaining rounds; returns the TrainingHistory.

        Raises :class:`repro.core.weighting.QuorumError` when live silos
        fall below ``net.min_quorum`` (after broadcasting an abort).
        """
        with obs_session(
            self.spec, mode="serve", checkpoint_dir=self.checkpoint_dir
        ):
            return self._serve_rounds()

    def _wire_bytes(self) -> dict[str, int]:
        """Bytes sent and received so far on the live connections (an
        attempt adds or drops none), keyed as in :attr:`retry_ledger`."""
        conns = self.conns.values()
        return {"downlink_bytes": sum(c.bytes_sent for c in conns),
                "uplink_bytes": sum(c.bytes_received for c in conns)}

    def _serve_rounds(self):
        self.bind()
        sim = self.sim
        method = sim.method
        extra = checkpoint_extra(self.spec)
        recorder = get_recorder()
        log.info("serving %d silo(s), rounds %d..%d on port %s",
                 sim.fed.n_silos, sim.rounds_completed, sim.config.rounds,
                 self.port)
        log.warning("%s", NOISE_WARNING)
        method.contribution_executor = self._collect
        try:
            self._await_roster()
            while not sim.done:
                t = sim.rounds_completed
                self._drain_rejoins()
                alive = self._ping_phase(t)
                self._attempt = 0
                while True:
                    live = int(alive.sum())
                    if live < self.net.min_quorum:
                        reason = (
                            f"round {t}: {live} silo(s) alive, below "
                            f"net.min_quorum={self.net.min_quorum}; "
                            "aborting the run")
                        log.error("%s", reason)
                        recorder.event("quorum_abort", round=t + 1,
                                       live=live,
                                       min_quorum=self.net.min_quorum)
                        self._broadcast("abort",
                                        {"round": t, "reason": reason})
                        raise QuorumError(reason)
                    snapshot = sim.state_dict()
                    marks = self._wire_bytes()
                    sim.external_dropout = alive.copy()
                    try:
                        sim.step()
                        break
                    except SiloFailure as failure:
                        # Timeout/transport/bad-reply mid-round: the silo
                        # becomes an observed dropout, the round restarts
                        # from the snapshot without it.
                        log.warning("round %d: %s; retrying the round "
                                    "without silo %d", t, failure,
                                    failure.silo)
                        recorder.event("silo_fault", round=t + 1,
                                       silo=failure.silo,
                                       reason=failure.reason)
                        self.retry_ledger["attempts"] += 1
                        for key, after in self._wire_bytes().items():
                            self.retry_ledger[key] += after - marks[key]
                        alive[failure.silo] = False
                        self._drop(failure.silo)
                        sim.load_state(snapshot)
                        self._attempt += 1
                    finally:
                        sim.external_dropout = None
                save_checkpoint_if_due(
                    sim, self.checkpoint_dir, self.spec.sim.checkpoint_every,
                    extra)
            log.info("run complete after round %d", sim.rounds_completed)
            self._broadcast("done", {"round": sim.rounds_completed})
            return sim.history
        finally:
            method.contribution_executor = None
            self.close()
