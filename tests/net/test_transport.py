"""Transport-layer unit tests: backoff schedules, deadlines, stale drains."""

import random
import socket
import time

import pytest

from repro.net.transport import (
    DeadlineExceeded,
    MessageSocket,
    RetryPolicy,
    TransportError,
    connect_with_retry,
)


@pytest.fixture
def pair():
    a, b = socket.socketpair()
    ma, mb = MessageSocket(a), MessageSocket(b)
    yield ma, mb
    ma.close()
    mb.close()


class TestRetryPolicy:
    def test_schedule_is_deterministic_given_the_rng(self):
        policy = RetryPolicy(retries=6, base_delay=0.1, max_delay=2.0,
                             jitter=0.5)
        one = list(policy.delays(random.Random(42)))
        two = list(policy.delays(random.Random(42)))
        assert one == two
        assert len(one) == 6

    def test_delays_grow_then_cap(self):
        policy = RetryPolicy(retries=8, base_delay=0.1, max_delay=2.0,
                             jitter=0.0)
        delays = list(policy.delays(random.Random(0)))
        assert delays[:5] == [0.1, 0.2, 0.4, 0.8, 1.6]
        assert delays[5:] == [2.0, 2.0, 2.0]

    def test_jitter_bounds(self):
        policy = RetryPolicy(retries=50, base_delay=1.0, max_delay=1.0,
                             jitter=0.5)
        for d in policy.delays(random.Random(7)):
            assert 1.0 <= d < 1.5


class TestConnectWithRetry:
    def test_unreachable_port_raises_after_budget(self):
        # Grab a port the OS just released: nothing listens on it.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        policy = RetryPolicy(retries=2, base_delay=0.01, max_delay=0.02)
        with pytest.raises(TransportError, match="could not connect"):
            connect_with_retry("127.0.0.1", port, policy, random.Random(0))

    def test_succeeds_against_a_listener(self):
        server = socket.create_server(("127.0.0.1", 0))
        port = server.getsockname()[1]
        sock = connect_with_retry(
            "127.0.0.1", port, RetryPolicy(retries=0), random.Random(0)
        )
        assert sock.gettimeout() is None  # blocking mode for frame reads
        sock.close()
        server.close()


class TestMessageSocket:
    def test_recv_deadline(self, pair):
        _, mb = pair
        start = time.monotonic()
        with pytest.raises(DeadlineExceeded):
            mb.recv(timeout=0.1)
        assert time.monotonic() - start < 2.0

    def test_socket_usable_after_deadline(self, pair):
        ma, mb = pair
        with pytest.raises(DeadlineExceeded):
            mb.recv(timeout=0.05)
        ma.send("ping", {"round": 0})
        assert mb.recv(timeout=1.0).type == "ping"

    def test_recv_matching_skips_stale_frames(self, pair):
        ma, mb = pair
        ma.send("pong", {"round": 1})  # a late heartbeat from round 1
        ma.send("update", {"round": 1})  # a duplicated old update
        ma.send("update", {"round": 2})
        frame = mb.recv_matching("update", 2, timeout=1.0)
        assert frame.payload["round"] == 2

    def test_recv_matching_skips_an_aborted_attempt(self, pair):
        ma, mb = pair
        ma.send("update", {"round": 2, "attempt": 0})  # formed for the aborted try
        ma.send("update", {"round": 2, "attempt": 1})
        frame = mb.recv_matching("update", 2, 1.0, 1)  # positional, as before
        assert frame.payload["attempt"] == 1

    def test_recv_matching_gives_up_on_spam(self, pair):
        ma, mb = pair
        for _ in range(MessageSocket.MAX_STALE_FRAMES + 1):
            ma.send("pong", {"round": 0})
        with pytest.raises(TransportError, match="stale frames"):
            mb.recv_matching("update", 5, timeout=1.0)

    def test_recv_matching_deadline_covers_the_drain(self, pair):
        _, mb = pair
        start = time.monotonic()
        with pytest.raises(DeadlineExceeded):
            mb.recv_matching("update", 3, timeout=0.1)
        assert time.monotonic() - start < 2.0

    def test_send_to_closed_peer_raises_transport_error(self, pair):
        ma, mb = pair
        mb.close()
        with pytest.raises(TransportError):
            # The first send may land in the dead buffer; the pipe error
            # surfaces within a couple of writes.
            for _ in range(4):
                ma.send("ping", {"round": 0})

    def test_send_raw_delivers_prepacked_bytes(self, pair):
        # The corrupt-fault hook: bytes pass through untouched.
        from repro.net.wire import pack_frame, recv_frame

        ma, mb = pair
        ma.send_raw(pack_frame("ping", {"round": 7}))
        assert recv_frame(mb.sock).payload["round"] == 7
