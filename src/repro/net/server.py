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
  finite float64 ``(P,)`` array) and adds it up.
- **Bit-identity with the in-process simulator.**  The server installs a
  per-round :attr:`contribution_executor
  <repro.core.methods.uldp_avg.UldpAvg.contribution_executor>` that walks
  the silos in index order, sending each active silo the current params,
  its realised weight row, the round's noise std, and the server RNG's
  bit-generator state; the silo restores that state, forms its payload
  (the exact per-silo step the in-process round runs), and returns the
  advanced RNG state with it.  Chaining the RNG through the silos
  in order reproduces the in-process draw sequence exactly, so an
  ideal-network run matches :class:`repro.sim.FederationSimulator`
  aggregate-for-aggregate and epsilon-for-epsilon.
- **Timeout-driven dropout.**  A silo that misses the liveness ping or
  its compute deadline becomes an *observed* dropout for the round
  (:attr:`FederationSimulator.external_dropout`) and the round is
  retried from a state snapshot without the failed silo.  When
  live silos fall below ``net.min_quorum`` the server broadcasts an
  abort and raises :class:`repro.core.weighting.QuorumError`.
- **Crash-safe resume.**  With ``sim.checkpoint_dir`` set the server
  snapshots on the same cadence as the in-process runtime; ``repro serve
  --resume`` rebuilds the simulator from the (spec-verified) checkpoint
  and silos simply reconnect -- they are stateless between rounds.

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
    TransportError,
)
from repro.net.wire import PROTOCOL_VERSION, WireError, is_finite_vector
from repro.obs.metrics import get_registry
from repro.obs.trace import get_recorder

log = logging.getLogger(__name__)


class SiloFailure(Exception):
    """A silo failed mid-round (deadline, transport, or bad reply)."""

    def __init__(self, silo: int, reason: str):
        super().__init__(f"silo {silo}: {reason}")
        self.silo = silo
        self.reason = reason


class _RemoteExecutor:
    """One round's contribution executor: serial COMPUTE walk over silos.

    The walk is deliberately serial -- silo s+1's RNG state is only known
    once silo s's reply arrives, which is the price of bit-identity with
    the in-process simulator (and what makes thread-based tests safe:
    server and silos never run the pooled training engine concurrently).
    """

    def __init__(self, server: "FederationServer", round_no: int):
        self.server = server
        self.round_no = round_no

    def __call__(self, params, round_weights, noise_std, active):
        server = self.server
        rng = server.sim.method.rng
        payloads: list[tuple[int, list[int], np.ndarray]] = []
        recorder = get_recorder()
        with recorder.span(
            "collect_contributions", kind="phase", round=self.round_no + 1
        ):
            for s in active:
                conn = server.conns.get(s)
                if conn is None:
                    raise SiloFailure(s, "connection lost before compute")
                state = rng.bit_generator.state
                with recorder.span(
                    "silo_compute", kind="silo", silo=s,
                    round=self.round_no + 1,
                ) as span:
                    sent0, recv0 = conn.bytes_sent, conn.bytes_received
                    start = time.perf_counter()
                    try:
                        conn.send(
                            "compute",
                            {"round": self.round_no,
                             "noise_std": float(noise_std),
                             "rng_state": state},
                            arrays={"params": params,
                                    "weights": np.ascontiguousarray(
                                        round_weights[s])},
                        )
                        frame = conn.recv_matching(
                            "update", self.round_no, server.net.round_timeout)
                    except DeadlineExceeded as exc:
                        raise SiloFailure(
                            s, f"missed the {server.net.round_timeout:.1f}s "
                            f"compute deadline ({exc})") from exc
                    except (TransportError, WireError) as exc:
                        raise SiloFailure(
                            s, f"transport failure: {exc}") from exc
                    # Margin left on the compute deadline: how close this
                    # silo came to being dropped for the round.
                    margin = (server.net.round_timeout
                              - (time.perf_counter() - start))
                    span.set(
                        deadline_margin=margin,
                        downlink_bytes=conn.bytes_sent - sent0,
                        uplink_bytes=conn.bytes_received - recv0,
                    )
                    get_registry().histogram(
                        "net_deadline_margin_seconds",
                        help="Seconds left on the compute deadline when "
                             "each silo's update arrived.",
                        unit="seconds",
                    ).labels(silo=s).observe(margin)
                    users = frame.payload.get("users")
                    payload = frame.arrays.get("payload")
                    if (not _valid_users(users, round_weights[s])
                            or len(frame.arrays) != 1
                            or not is_finite_vector(payload, params.size)):
                        raise SiloFailure(s, "malformed update frame")
                    try:
                        rng.bit_generator.state = frame.payload["rng_state"]
                    except (KeyError, TypeError, ValueError) as exc:
                        raise SiloFailure(
                            s, f"bad rng state in update: {exc}") from exc
                payloads.append((s, users, payload))
        return payloads


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


class FederationServer:
    """Drives one simulate-mode spec over real silo connections."""

    def __init__(self, spec: RunSpec, sim=None):
        if spec.net is None:  # (a spec with [net] always has [sim])
            raise SpecError("spec has no [net] section; nothing to serve")
        # The per-silo step, synchronous rounds, a quorum the roster can
        # meet: refused here exactly as `repro validate-config` refuses them.
        validate_spec_names(spec)
        self.spec = spec
        self.net = spec.net
        self.sim = sim if sim is not None else build_simulator(spec)
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
            get_registry().counter(
                "net_handshakes_refused_total",
                help="Connections refused at the HELLO/WELCOME handshake.",
            ).inc()
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

    def _ping_phase(self, round_no: int) -> np.ndarray:
        """Liveness sweep: who answers the ping (and says ready) in time.

        A deadline miss keeps the connection (the late PONG is drained as
        a stale frame later); a transport/wire error drops it -- the silo
        reconnects through the listener when it recovers.
        """
        alive = np.zeros(self.sim.fed.n_silos, dtype=bool)
        with get_recorder().span("ping", kind="phase", round=round_no + 1):
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
        return alive

    def serve(self):
        """Run the remaining rounds; returns the TrainingHistory.

        Raises :class:`repro.core.weighting.QuorumError` when live silos
        fall below ``net.min_quorum`` (after broadcasting an abort).
        """
        with obs_session(self.spec, mode="serve"):
            return self._serve_rounds()

    def _attempt_byte_marks(self) -> dict[int, tuple[int, int]]:
        """Per-connection (sent, received) byte counters, pre-attempt."""
        return {s: (c.bytes_sent, c.bytes_received)
                for s, c in self.conns.items()}

    def _charge_retry_ledger(self, marks: dict[int, tuple[int, int]]) -> None:
        """Attribute an aborted attempt's wire traffic to the retry ledger.

        The simulator's comm ledger is about to be rolled back with the
        snapshot, so these bytes would otherwise vanish from every
        record; here they stay visible without double-counting.
        """
        self.retry_ledger["attempts"] += 1
        for s, (sent0, recv0) in marks.items():
            conn = self.conns.get(s)
            if conn is None:
                continue
            self.retry_ledger["downlink_bytes"] += conn.bytes_sent - sent0
            self.retry_ledger["uplink_bytes"] += conn.bytes_received - recv0

    def _serve_rounds(self):
        self.bind()
        sim = self.sim
        method = sim.method
        sim_spec = self.spec.sim
        recorder = get_recorder()
        reg = get_registry()
        every = sim_spec.checkpoint_every or max(1, sim.config.rounds // 4)
        log.info("serving %d silo(s), rounds %d..%d on port %s",
                 sim.fed.n_silos, sim.rounds_completed, sim.config.rounds,
                 self.port)
        try:
            self._await_roster()
            while not sim.done:
                t = sim.rounds_completed
                self._drain_rejoins()
                alive = self._ping_phase(t)
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
                    marks = self._attempt_byte_marks()
                    method.contribution_executor = _RemoteExecutor(self, t)
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
                        reg.counter(
                            "net_silo_faults_total",
                            help="Mid-round silo failures observed by the "
                                 "server.",
                        ).inc()
                        self._charge_retry_ledger(marks)
                        reg.counter(
                            "net_round_retries_total",
                            help="Round attempts aborted and retried from "
                                 "a snapshot.",
                        ).inc()
                        alive[failure.silo] = False
                        self._drop(failure.silo)
                        sim.load_state(snapshot)
                    finally:
                        method.contribution_executor = None
                        sim.external_dropout = None
                if sim_spec.checkpoint_dir and (
                        sim.rounds_completed % every == 0 or sim.done):
                    from repro.sim.checkpoint import save_checkpoint

                    with recorder.span("checkpoint", kind="phase",
                                       round=sim.rounds_completed):
                        save_checkpoint(sim_spec.checkpoint_dir, sim,
                                        extra=checkpoint_extra(self.spec))
            log.info("run complete after round %d", sim.rounds_completed)
            self._broadcast("done", {"round": sim.rounds_completed})
            return sim.history
        finally:
            self.close()
