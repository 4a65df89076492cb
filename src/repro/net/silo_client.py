"""The silo worker process (``repro silo``).

A :class:`SiloClient` is *stateless between rounds*: at startup it builds
from the spec what every party of the run builds
(:func:`repro.sim.scenarios.bind_scenario`: synthetic datasets are
deterministic in the seed, so its federation, model template and bound
method are identical to the server's) and nothing a silo does not run --
no simulator, trainer, accountant or compressor -- connects with
retry/backoff, and then simply answers frames:

- ``ping``  -> ``pong`` with a readiness flag (the fault plan's
  ``decline``/``drop_rate`` land here);
- ``compute`` -> run :meth:`silo_payload
  <repro.core.methods.uldp_avg.UldpAvg.silo_payload>` on the frame's
  ``params`` (the method's broadcast: float32) for the frame's round,
  drawing from this silo's own generator for that round, and
  reply with the one thing Algorithm 3 lets a silo release -- its noisy
  weighted sum, a single ``(P,)`` array -- plus the contributing user ids.
  Per-user rows and the noise draw never leave the process.  A
  ``compute`` this silo cannot use (missing or mis-shaped arrays, a bad
  noise std) ends the session like a garbled frame does;
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

from repro.api.runner import build_method, validate_spec_names
from repro.api.spec import RunSpec, SpecError
from repro.core.methods.uldp_avg import SYNC_ROUND
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
    Frame,
    WireError,
    is_finite_vector,
    pack_frame,
)
from repro.sim.scenarios import bind_scenario, scenario_recipe

log = logging.getLogger(__name__)


class SiloClient:
    """One silo process serving rounds for a simulate-mode [net] spec.  Its
    ``on_<type>`` handlers return the frames that answer a request, as a
    :class:`repro.protocol.driver.Party`'s do; :meth:`_serve` sends them
    with this round's faults applied."""

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
        sizes, _ = scenario_recipe(spec.sim.scenario, spec.sim.scale, spec.rounds)
        if not 0 <= silo_id < sizes["n_silos"]:  # refused before the build
            raise SpecError(
                f"silo id {silo_id} out of range for the scenario's "
                f"{sizes['n_silos']} silos")
        self.method = build_method(spec)
        sim = spec.sim
        self.fed = bind_scenario(
            sim.scenario, sim.scale, spec.seed, spec.rounds, self.method)
        self.silo_id = int(silo_id)
        self.plan = FaultPlan.from_tree(spec.net.faults)
        self.spec_hash = spec.hash()

    # -- fault application ---------------------------------------------------

    def _actions(self, round_no: int) -> dict[str, float]:
        """action -> value for the scripted faults hitting this round."""
        return {e.action: e.value
                for e in self.plan.events_for(self.silo_id, round_no)}

    def _send_reply(self, conn: MessageSocket, actions: dict, frame: Frame) -> None:
        """Send one reply with the timing/integrity faults applied."""
        if "timeout" in actions:
            # Default: sleep well past the server's compute deadline so it
            # observes a genuine unresponsive silo, not a slow one.
            time.sleep(actions["timeout"] or 3.0 * self.net.round_timeout)
        elif "delay" in actions:
            time.sleep(actions["delay"])
        data = pack_frame(frame.type, frame.payload, frame.arrays)
        if "corrupt" in actions:
            data = data[:-1] + bytes([data[-1] ^ 0xFF])
        conn.send_raw(data)
        if "duplicate" in actions:
            conn.send_raw(data)

    # -- frame handlers: the frames that answer a request --------------------

    def on_ping(self, frame):
        t = frame.payload["round"]
        ready = not ("decline" in self._actions(t) or self.plan.drops(self.silo_id, t))
        return [Frame("pong", {"round": t, "ready": ready})]

    def on_compute(self, frame):
        t, attempt = frame.payload["round"], frame.payload.get("attempt")
        method = self.method
        params = frame.arrays.get("params")
        weights = frame.arrays.get("weights")
        noise_std = frame.payload.get("noise_std")
        problem = None
        if type(attempt) is not int or attempt < 0:
            problem = f"attempt {attempt!r} is not an integer >= 0"
        elif not is_finite_vector(
                params, method.model.num_params, method.broadcast_dtype):
            problem = (f"params is not a finite {method.broadcast_dtype} "
                       "vector of the model's size")
        elif not is_finite_vector(weights, self.fed.n_users):
            problem = "weights is not a finite float64 vector, one entry per user"
        elif (not isinstance(noise_std, (int, float))
                or not math.isfinite(noise_std) or noise_std < 0):
            problem = f"noise_std {noise_std!r} is not a finite number >= 0"
        if problem is not None:
            # The mirror of the server's "malformed update frame": no
            # reply, the server sees a transport failure and retries the
            # round without this silo.
            log.error("silo %d: malformed compute frame for round %d: %s; "
                      "dropping the session", self.silo_id, t, problem)
            return []
        users, payload = method.silo_payload(
            self.silo_id, params, weights, float(noise_std),
            release=(SYNC_ROUND, t))
        return [Frame("update", {"round": t, "attempt": attempt, "users": users},
                      {"payload": payload})]

    # -- the serve loop ------------------------------------------------------

    def _serve(self, conn: MessageSocket) -> str:
        """Answer frames until done/abort; returns the session outcome."""
        while True:
            try:
                frame = conn.recv(timeout=self.net.idle_timeout)
            except (DeadlineExceeded, TransportError, WireError):
                return "reconnect"
            if frame.type in ("done", "abort"):
                if frame.type == "abort":
                    log.error("silo %d: server aborted: %s", self.silo_id,
                              frame.payload.get("reason", ""))
                return frame.type
            handler = getattr(self, f"on_{frame.type}", None)
            if handler is None:
                continue  # unknown frame type: ignore (forward compat)
            t = frame.payload.get("round")
            if type(t) is not int or t < 0:  # it keys the silo's draws
                log.error("silo %d: %s frame without an integer round >= 0; "
                          "dropping the session", self.silo_id, frame.type)
                return "reconnect"
            actions = self._actions(t)
            if "crash" in actions:
                os._exit(17)  # simulate kill -9: no cleanup, no goodbye
            if "partition" in actions:
                conn.close()
                time.sleep(actions["partition"] or 1.0)
                return "reconnect"
            replies = handler(frame)
            if not replies:  # a request it cannot use ends the session
                return "reconnect"
            try:
                for reply in replies:
                    self._send_reply(conn, actions, reply)
            except TransportError:
                # The server dropped us (e.g. after our own injected
                # timeout); reconnect and serve the next round.
                return "reconnect"

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
                frame = None
            reply = None if frame is None else frame.type
            if reply == "refuse":
                log.error("silo %d: refused: %s", self.silo_id,
                          frame.payload.get("reason", ""))
                conn.close()
                return 2
            outcome = "reconnect"  # no welcome: a failed session too
            if reply == "welcome":
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
