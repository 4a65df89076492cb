"""The per-thread workspace behind ``per_group_gradients`` and the engine.

Keeps the two properties ``tests/core/test_matrix_pool.py`` was written
for when the engine's buffer pool was a module-global dict -- a forked
child must not write into buffers it shares with its parent, and one
process running many differently-shaped jobs must not accumulate a buffer
per shape -- and adds the workspace's own contract: one lifetime rule, and
a steady-state call that allocates (almost) nothing.
"""

import multiprocessing
import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from repro.core.engine import (
    LocalJob,
    _local_deltas,
    batched_clipped_gradients,
    batched_clipped_local_deltas,
)
from repro.nn.batched import TRAIN_DTYPE, forward_logits, per_group_gradients
from repro.nn.losses import SoftmaxCrossEntropyLoss
from repro.nn.model import build_mnist_cnn, build_tiny_mlp
from repro.nn.workspace import WORKSPACE, Workspace


class TestStack:
    def test_views_are_shaped_disjoint_and_aligned(self):
        ws = Workspace()
        for _ in range(2):  # the first scope measures, the second is served
            ws.reset()
            a = ws.take((3, 5), np.float32)
            b = ws.take((7,), bool)
            c = ws.take((2, 2, 2), np.float64)
        assert (a.shape, b.shape, c.shape) == ((3, 5), (7,), (2, 2, 2))
        assert (a.dtype, b.dtype, c.dtype) == (np.float32, np.bool_, np.float64)
        for view in (a, b, c):
            assert view.ctypes.data % 8 == 0
        a.fill(1.0), b.fill(True), c.fill(3.0)
        assert a.sum() == 15 and b.all() and c.sum() == 24

    def test_first_scope_overflows_into_plain_arrays_then_slab_fits(self):
        ws = Workspace()
        ws.reset()
        assert ws.nbytes == 0
        spilled = ws.take((100,), np.float64)
        assert spilled.base is None  # a plain allocation, not a slab view
        ws.reset()
        assert ws.nbytes >= 800
        assert ws.take((100,), np.float64).base is not None

    def test_release_reuses_the_bytes(self):
        ws = Workspace()
        for _ in range(2):
            ws.reset()
            keep = ws.take((4,), np.float64)
            mark = ws.mark()
            first = ws.take((16,), np.float64)
            ws.release(mark)
            second = ws.take((16,), np.float64)
        assert first.ctypes.data == second.ctypes.data != keep.ctypes.data

    def test_grows_to_the_high_water_mark_and_no_further(self):
        """Differently-shaped scopes share one slab sized by the largest,
        where the old pool kept up to eight matrices, one per shape."""
        ws = Workspace()
        for rows in (3, 50, 7, 50, 1, 20):
            for _ in range(2):
                ws.result((rows, 10))
                ws.take((rows, 4), np.float64)
        high_water = ws.nbytes
        assert 50 * 14 * 8 <= high_water <= 50 * 14 * 8 + 128
        for rows in (3, 50, 7):
            ws.result((rows, 10))
            ws.take((rows, 4), np.float64)
        assert ws.nbytes == high_water

    def test_requests_past_the_cap_are_plain_and_not_retained(self):
        """The slab never shrinks, so one oversized call (an unchunked
        DP-SGD step, a silo-sized row block) must not size it for good."""
        ws = Workspace()
        ws.MAX_BYTES = 4096
        for _ in range(3):
            rows = ws.result((100, 10))  # 8000 B: past the cap on its own
            small = ws.take((64,), np.float64)
            huge = ws.take((1000,), np.float64)
            after = ws.take((64,), np.float64)
        assert rows.base is None and huge.base is None
        assert small.base is not None and after.base is not None
        assert ws.nbytes == 1024  # the two small views, nothing else
        assert not np.shares_memory(small, after)

    def test_result_block_survives_scratch_scopes(self):
        ws = Workspace()
        for _ in range(2):
            rows = ws.result((4, 3))
            rows[...] = 7.0
            for _ in range(3):
                ws.reset()
                ws.take((4, 3), np.float64).fill(-1.0)
        assert np.all(rows == 7.0)


class TestProcessKeying:
    def test_pid_change_drops_the_inherited_slab(self):
        ws = Workspace()
        for _ in range(2):
            ws.reset()
            inherited = ws.take((64,), np.float64)
        inherited.fill(5.0)
        # Simulate a fork: same object, different os.getpid().
        ws._pid -= 1
        ws.reset()
        assert ws.nbytes == 0
        ws.take((64,), np.float64).fill(-1.0)
        ws.reset()
        ws.take((64,), np.float64).fill(-1.0)
        assert np.all(inherited == 5.0)

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(), reason="needs fork"
    )
    def test_forked_child_starts_from_an_empty_slab(self):
        for _ in range(2):
            WORKSPACE.result((8, 8)).fill(1.0)
        assert WORKSPACE.nbytes >= 512
        read, write = os.pipe()
        pid = os.fork()
        if pid == 0:  # child
            WORKSPACE.reset()
            os.write(write, str(WORKSPACE.nbytes).encode())
            os._exit(0)
        os.waitpid(pid, 0)
        assert os.read(read, 32) == b"0"
        os.close(read), os.close(write)


class TestThreadKeying:
    def test_each_thread_has_its_own_slab(self):
        for _ in range(2):  # the second scope is served from the slab
            here = WORKSPACE.result((4, 4))
        assert here.base is not None
        seen = []
        thread = threading.Thread(target=lambda: seen.append(
            (WORKSPACE.nbytes, WORKSPACE.result((4, 4)))))
        thread.start()
        thread.join(timeout=30)
        assert not thread.is_alive()
        (nbytes, there), = seen
        assert nbytes == 0 and not np.shares_memory(here, there)

    def test_concurrent_walks_get_the_serial_bits(self):
        """Threads forwarding the MNIST CNN at once (the ``tests/net`` silos
        are threads of one process), more of them than cores and switching
        often: each call returns what the same call returns run alone.  With
        one slab per process they wrote into each other's scratch and every
        result was wrong."""
        rng = np.random.default_rng(0)
        model = build_mnist_cnn(np.random.default_rng(1)).astype(TRAIN_DTYPE)
        inputs = [rng.standard_normal((200, 1, 14, 14)) for _ in range(4)]
        serial = [forward_logits(model, x).tobytes() for x in inputs]
        start = threading.Barrier(len(inputs))
        results = [[] for _ in inputs]

        def forward(i):
            start.wait()
            for _ in range(6):
                results[i].append(forward_logits(model, inputs[i]).tobytes())

        threads = [threading.Thread(target=forward, args=(i,)) for i in range(len(inputs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [[bits] * 6 for bits in serial]


def _cnn_chunk(groups=40, per_group=2, seed=0):
    rng = np.random.default_rng(seed)
    model = build_mnist_cnn(np.random.default_rng(1))
    n = groups * per_group
    x = rng.standard_normal((n, 1, 14, 14))
    y = rng.integers(0, 10, size=n)
    return model, x, y, [per_group] * groups


class TestLifetime:
    def test_unpooled_results_are_never_aliased(self):
        """``out=None`` hands back a caller-owned array: later calls, of
        the same or another shape, leave it alone."""
        model, x, y, sizes = _cnn_chunk(groups=6)
        first = per_group_gradients(model, SoftmaxCrossEntropyLoss(), x, y, sizes)
        kept = first.copy()
        per_group_gradients(model, SoftmaxCrossEntropyLoss(), x[:8], y[:8], sizes[:4])
        second = per_group_gradients(model, SoftmaxCrossEntropyLoss(), x, y, sizes)
        assert not np.shares_memory(first, second)
        assert first.tobytes() == kept.tobytes() == second.tobytes()

    def test_engine_rows_are_valid_until_the_next_engine_call(self):
        model = build_tiny_mlp(6, 5, 3, np.random.default_rng(0))
        params = model.get_flat_params()
        rng = np.random.default_rng(1)
        jobs = [
            LocalJob(rng.standard_normal((n, 6)), rng.integers(0, 3, size=n))
            for n in (1, 4, 2, 3)
        ]
        rows, _ = batched_clipped_local_deltas(
            model, "multiclass", params, jobs, lr=0.1, epochs=1, clip=1.0)
        kept = rows.copy()
        # The walk's own scratch scope does not reach the engine's rows ...
        x = np.concatenate([job.x for job in jobs])
        y = np.concatenate([job.y for job in jobs])
        per_group_gradients(
            model, SoftmaxCrossEntropyLoss(), x, y, [job.n for job in jobs])
        assert rows.tobytes() == kept.tobytes()
        # ... the next engine call, of any shape, does.
        again, _ = batched_clipped_gradients(
            model, "multiclass", params, jobs[:2], clip=1.0)
        assert np.shares_memory(rows, again)

    def test_engine_leaves_the_callers_model_alone(self):
        model = build_tiny_mlp(6, 5, 3, np.random.default_rng(0))
        before = model.get_flat_params()
        jobs = [LocalJob(np.ones((2, 6)), np.array([0, 1]))]
        batched_clipped_gradients(
            model, "multiclass", before + 1.0, jobs, clip=1.0)
        np.testing.assert_array_equal(model.get_flat_params(), before)


def _peak_of_third_call(call) -> int:
    """Bytes by which the third identical ``call`` raises the traced peak
    (NumPy reports its buffers to ``tracemalloc``)."""
    tracemalloc.start()
    try:
        call()
        call()
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - before


class TestSteadyState:
    """Once the slab has seen a shape, repeating it allocates next to
    nothing (the allocating walk peaked ~26 MB above its start here)."""

    def test_cnn_walk(self):
        model, x, y, sizes = _cnn_chunk()
        out = np.empty((len(sizes), model.num_params))
        loss = SoftmaxCrossEntropyLoss()
        grown = _peak_of_third_call(
            lambda: per_group_gradients(model, loss, x, y, sizes, out=out))
        assert grown < 1 << 20

    @pytest.mark.parametrize("cnn", [True, False], ids=["cnn", "dense"])
    def test_clipped_local_deltas(self, cnn):
        rng = np.random.default_rng(0)
        if cnn:
            model = build_mnist_cnn(np.random.default_rng(1))
            shape = (1, 14, 14)
        else:
            model = build_tiny_mlp(30, 16, 10, np.random.default_rng(1))
            shape = (30,)
        jobs = [
            LocalJob(rng.standard_normal((2, *shape)), rng.integers(0, 10, size=2))
            for _ in range(40)
        ]
        params = model.get_flat_params()
        grown = _peak_of_third_call(
            lambda: _local_deltas(model, "multiclass", params, jobs, 0.1, 1, 1.0))
        assert grown < 1 << 20
