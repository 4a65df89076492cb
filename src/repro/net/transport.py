"""Socket transport with retry/backoff connects and deadline-bounded reads.

The policy layer between raw frames (:mod:`repro.net.wire`) and the
server/silo state machines: exponential backoff with jitter for
connection establishment, per-receive deadlines that surface as
:class:`DeadlineExceeded` (the server turns those into round dropouts),
and a drain loop that discards stale frames -- a late PONG or a
duplicated UPDATE from an earlier round must not be mistaken for the
reply to the current request.
"""

from __future__ import annotations

import random
import socket
import time
from dataclasses import dataclass

from repro.net import wire


class TransportError(ConnectionError):
    """Could not reach, or lost, a peer (after any configured retries)."""


class DeadlineExceeded(TransportError):
    """The peer did not produce the expected frame within the deadline."""


class SiloFailure(Exception):
    """A silo failed mid-round (deadline, transport, or bad reply)."""

    def __init__(self, silo: int, reason: str):
        super().__init__(f"silo {silo}: {reason}")
        self.silo = silo
        self.reason = reason


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with jitter: delay ``i`` is
    ``min(base * 2**i, max) * (1 + jitter * U[0,1))``."""

    retries: int = 8
    base_delay: float = 0.1
    max_delay: float = 2.0
    jitter: float = 0.5

    def delays(self, rng: random.Random):
        """Yield the sleep before each retry (``retries`` values)."""
        for attempt in range(self.retries):
            yield (min(self.base_delay * 2.0**attempt, self.max_delay)
                   * (1.0 + self.jitter * rng.random()))


def connect_with_retry(host: str, port: int, policy: RetryPolicy,
                       rng: random.Random,
                       timeout: float = 10.0) -> socket.socket:
    """Dial ``host:port``, retrying per ``policy``; the first attempt is
    immediate.  Raises :class:`TransportError` once retries are spent."""
    delays = policy.delays(rng)
    attempt = 0
    while True:
        try:
            sock = socket.create_connection((host, port), timeout=timeout)
            sock.settimeout(None)
            return sock
        except OSError as exc:
            attempt += 1
            try:
                delay = next(delays)
            except StopIteration:
                raise TransportError(
                    f"could not connect to {host}:{port} after "
                    f"{attempt} attempt(s): {exc}") from exc
            time.sleep(delay)


class MessageSocket:
    """A connected socket speaking whole frames, with deadline receives.

    Every instance keeps its own :attr:`bytes_sent` / :attr:`bytes_received`
    ledger (exact on-the-wire byte counts); the spans that bracket an
    exchange record its share of them.
    """

    # Ceiling on stale frames discarded per recv_matching call -- a peer
    # spamming mismatched frames fails loudly instead of looping forever.
    MAX_STALE_FRAMES = 16

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.bytes_sent = 0
        self.bytes_received = 0
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass  # not fatal; some socketpairs lack TCP options

    def send(self, msg_type: str, payload: dict | None = None,
             arrays: dict | None = None) -> None:
        self.send_raw(wire.pack_frame(msg_type, payload, arrays))

    def send_raw(self, data: bytes) -> None:
        """Write pre-packed (possibly deliberately corrupted) bytes --
        the hook :mod:`repro.net.faults` uses for the corrupt action."""
        try:
            self.sock.sendall(data)
        except OSError as exc:
            raise TransportError(f"send failed: {exc}") from exc
        self.bytes_sent += len(data)

    def recv(self, timeout: float | None = None) -> wire.Frame:
        """Read one frame, raising :class:`DeadlineExceeded` on timeout."""
        self.sock.settimeout(timeout)
        try:
            frame = wire.recv_frame(self.sock)
        except socket.timeout as exc:
            raise DeadlineExceeded(
                f"no frame within {timeout:.3f}s") from exc
        except OSError as exc:
            raise TransportError(f"recv failed: {exc}") from exc
        finally:
            try:
                self.sock.settimeout(None)
            except OSError:
                pass
        self.bytes_received += frame.nbytes
        return frame

    def recv_matching(self, reply_type: str, round_no: int,
                      timeout: float, attempt: int | None = None) -> wire.Frame:
        """Read frames until one matches ``(reply_type, round_no)`` -- and
        ``attempt``, when given.

        Stale frames -- late PONGs from an earlier ping phase, duplicate
        UPDATEs injected by a fault plan, an aborted attempt's UPDATE --
        are discarded.  The deadline covers the whole drain, not each read.
        """
        deadline = time.monotonic() + timeout
        for _ in range(self.MAX_STALE_FRAMES):
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise DeadlineExceeded(
                    f"no {reply_type!r} frame for round {round_no} "
                    f"within {timeout:.3f}s")
            frame = self.recv(timeout=remaining)
            if (frame.type == reply_type
                    and frame.payload.get("round") == round_no
                    and (attempt is None or frame.payload.get("attempt") == attempt)):
                return frame
        raise TransportError(
            f"discarded {self.MAX_STALE_FRAMES} stale frames waiting for "
            f"{reply_type!r} (round {round_no}); peer is misbehaving")

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass
