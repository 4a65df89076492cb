"""The silo worker process (``repro silo``).

A :class:`SiloClient` is *stateless between rounds*: it rebuilds the full
simulator from the spec at startup (synthetic datasets are deterministic
in the seed, so its federation, prepared method, and model are identical
to the server's), connects with retry/backoff, and then simply answers
frames:

- ``ping``  -> ``pong`` with a readiness flag (the fault plan's
  ``decline``/``drop_rate`` land here);
- ``compute`` -> restore the server-sent RNG state, run
  :meth:`silo_payload
  <repro.core.methods.uldp_avg.UldpAvg.silo_payload>`, and reply with the
  one thing Algorithm 3 lets a silo release -- its noisy weighted sum, a
  single ``(P,)`` array -- plus the contributing user ids and the
  *advanced* RNG state (the server chains it into the next silo's
  compute).  Per-user rows and the noise draw never leave the process.  A
  ``compute`` this silo cannot use (missing or mis-shaped arrays, a bad
  noise std or RNG state) ends the session like a garbled frame does;
- ``done`` / ``abort`` -> exit.

Because every round's inputs arrive in the COMPUTE frame, a silo killed
and restarted mid-run needs no recovery protocol: it reconnects, passes
the spec-hash handshake, and serves the next round.  Fault-plan actions
(:mod:`repro.net.faults`) are applied to the client's *own* replies, so
chaos tests exercise the production server code unmodified.
"""

from __future__ import annotations

import logging
import math
import os
import random
import time

from repro.api.runner import build_simulator, validate_spec_names
from repro.api.spec import RunSpec, SpecError
from repro.net.faults import FaultPlan
from repro.net.transport import (
    DeadlineExceeded,
    MessageSocket,
    RetryPolicy,
    TransportError,
    connect_with_retry,
)
from repro.net.wire import (
    PROTOCOL_VERSION,
    WireError,
    is_finite_vector,
    pack_frame,
)

log = logging.getLogger(__name__)


class SiloClient:
    """One silo process serving rounds for a simulate-mode [net] spec."""

    def __init__(self, spec: RunSpec, silo_id: int, port: int | None = None):
        if spec.net is None:  # (a spec with [net] always has [sim])
            raise SpecError("spec has no [net] section; nothing to join")
        self.spec = spec
        self.net = spec.net
        self.port = int(port) if port is not None else spec.net.port
        if self.port == 0:
            raise SpecError(
                "the spec leaves the port OS-assigned; pass --port with "
                "the port `repro serve` printed")
        validate_spec_names(spec)  # the method has the per-silo step, ...
        self.sim = build_simulator(spec)
        if not 0 <= silo_id < self.sim.fed.n_silos:
            raise SpecError(
                f"silo id {silo_id} out of range for the scenario's "
                f"{self.sim.fed.n_silos} silos")
        self.silo_id = int(silo_id)
        self.plan = FaultPlan.from_tree(spec.net.faults)
        self.spec_hash = spec.hash()

    # -- fault application ---------------------------------------------------

    def _actions(self, round_no: int) -> dict[str, float]:
        """action -> value for the scripted faults hitting this round."""
        return {e.action: e.value
                for e in self.plan.events_for(self.silo_id, round_no)}

    def _send_reply(self, conn: MessageSocket, actions: dict, msg_type: str,
                    payload: dict, arrays: dict | None = None) -> None:
        """Send one reply with the timing/integrity faults applied."""
        if "timeout" in actions:
            # Default: sleep well past the server's compute deadline so it
            # observes a genuine unresponsive silo, not a slow one.
            time.sleep(actions["timeout"] or 3.0 * self.net.round_timeout)
        elif "delay" in actions:
            time.sleep(actions["delay"])
        data = pack_frame(msg_type, payload, arrays)
        if "corrupt" in actions:
            data = data[:-1] + bytes([data[-1] ^ 0xFF])
        conn.send_raw(data)
        if "duplicate" in actions:
            conn.send_raw(data)

    # -- frame handlers ------------------------------------------------------

    def _handle_ping(self, conn: MessageSocket, frame) -> str:
        t = frame.payload["round"]
        actions = self._actions(t)
        if "crash" in actions:
            os._exit(17)  # simulate kill -9: no cleanup, no goodbye
        if "partition" in actions:
            conn.close()
            time.sleep(actions["partition"] or 1.0)
            return "reconnect"
        ready = not ("decline" in actions or self.plan.drops(self.silo_id, t))
        self._send_reply(conn, actions, "pong", {"round": t, "ready": ready})
        return "ok"

    def _handle_compute(self, conn: MessageSocket, frame) -> str:
        t = frame.payload["round"]
        actions = self._actions(t)
        if "crash" in actions:
            os._exit(17)
        if "partition" in actions:
            conn.close()
            time.sleep(actions["partition"] or 1.0)
            return "reconnect"
        method = self.sim.method
        rng = method.rng
        params = frame.arrays.get("params")
        weights = frame.arrays.get("weights")
        noise_std = frame.payload.get("noise_std")
        problem = None
        if not is_finite_vector(params, self.sim.trainer.params.size):
            problem = "params is not a finite float64 vector of the model's size"
        elif not is_finite_vector(weights, self.sim.fed.n_users):
            problem = "weights is not a finite float64 vector, one entry per user"
        elif (not isinstance(noise_std, (int, float))
                or not math.isfinite(noise_std) or noise_std < 0):
            problem = f"noise_std {noise_std!r} is not a finite number >= 0"
        else:
            try:
                rng.bit_generator.state = frame.payload["rng_state"]
            except (KeyError, TypeError, ValueError) as exc:
                problem = f"rng_state cannot be restored ({exc!r})"
        if problem is not None:
            # The mirror of the server's "malformed update frame": no
            # reply, the server sees a transport failure and retries the
            # round without this silo.
            log.error("silo %d: malformed compute frame for round %d: %s; "
                      "dropping the session", self.silo_id, t, problem)
            return "reconnect"
        users, payload = method.silo_payload(
            self.silo_id, params, weights, float(noise_std))
        self._send_reply(
            conn, actions, "update",
            {"round": t, "users": users,
             "rng_state": rng.bit_generator.state},
            arrays={"payload": payload},
        )
        return "ok"

    # -- the serve loop ------------------------------------------------------

    def _serve(self, conn: MessageSocket) -> str:
        """Answer frames until done/abort; returns the session outcome."""
        while True:
            try:
                frame = conn.recv(timeout=self.net.idle_timeout)
            except (DeadlineExceeded, TransportError, WireError):
                return "reconnect"
            if frame.type in ("ping", "compute"):
                if type(frame.payload.get("round")) is not int:
                    log.error("silo %d: %s frame without an integer round; "
                              "dropping the session", self.silo_id, frame.type)
                    return "reconnect"
                handler = (self._handle_ping if frame.type == "ping"
                           else self._handle_compute)
                try:
                    outcome = handler(conn, frame)
                except TransportError:
                    # The server dropped us (e.g. after our own injected
                    # timeout); reconnect and serve the next round.
                    return "reconnect"
            elif frame.type == "done":
                return "done"
            elif frame.type == "abort":
                log.error("silo %d: server aborted: %s", self.silo_id,
                          frame.payload.get("reason", ""))
                return "abort"
            else:
                continue  # unknown frame type: ignore (forward compat)
            if outcome != "ok":
                return outcome

    def run(self) -> int:
        """Connect (with retry/backoff), serve rounds, return an exit code:
        0 done, 1 aborted, 2 refused, 3 could not (re)connect."""
        backoff_rng = random.Random(
            f"uldp-fl:{self.spec.seed}:silo-backoff:{self.silo_id}")
        policy = RetryPolicy(
            retries=self.net.connect_retries,
            base_delay=self.net.backoff_base,
            max_delay=self.net.backoff_max,
            jitter=self.net.backoff_jitter,
        )
        failures = 0
        while True:
            try:
                sock = connect_with_retry(
                    self.net.host, self.port, policy, backoff_rng,
                    timeout=self.net.join_timeout)
            except TransportError as exc:
                log.error("silo %d: %s", self.silo_id, exc)
                return 3
            conn = MessageSocket(sock)
            try:
                conn.send("hello", {"silo": self.silo_id,
                                    "spec_hash": self.spec_hash,
                                    "wire": PROTOCOL_VERSION})
                frame = conn.recv(timeout=self.net.join_timeout)
            except (TransportError, WireError):
                conn.close()
                failures += 1
                if failures > self.net.connect_retries:
                    log.error("silo %d: gave up after %d failed sessions",
                              self.silo_id, failures)
                    return 3
                continue
            if frame.type == "refuse":
                log.error("silo %d: refused: %s", self.silo_id,
                          frame.payload.get("reason", ""))
                conn.close()
                return 2
            if frame.type != "welcome":
                conn.close()
                failures += 1
                continue
            failures = 0
            outcome = self._serve(conn)
            conn.close()
            if outcome == "done":
                return 0
            if outcome == "abort":
                return 1
            failures += 1
            if failures > self.net.connect_retries:
                log.error("silo %d: gave up after %d failed sessions",
                          self.silo_id, failures)
                return 3
