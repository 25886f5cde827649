"""Array-native trace emitters vs. the iterator generators.

Every ``*_array`` emitter in :mod:`repro.memory.trace_gen` must produce
exactly the reference stream of its iterator twin — same addresses, same
access kinds, same order, element for element — because the vectorized
replay's equivalence contract is only as good as the traces fed to it.
"""

import numpy as np
import pytest

from repro.memory import trace_gen as tg
from repro.memory.cache import AccessType
from repro.memory.vec import REF_DTYPE, coerce_trace, iter_refs


def assert_twin(iterator, array):
    ref = coerce_trace(iterator)
    assert array.dtype == REF_DTYPE
    assert len(array) == len(ref)
    assert np.array_equal(array["addr"], ref["addr"])
    assert np.array_equal(array["is_write"], ref["is_write"])


class TestMatmultArrays:
    @pytest.mark.parametrize("n", [2, 5, 8, 13])
    def test_naive(self, n):
        assert_twin(tg.matmult_naive_trace(0x1000, 0x8000, 0x20000, n),
                    tg.matmult_naive_array(0x1000, 0x8000, 0x20000, n))

    @pytest.mark.parametrize("rows", [range(0, 2), range(3, 7), range(5, 6)])
    def test_naive_row_range(self, rows):
        assert_twin(
            tg.matmult_naive_trace(64, 4096, 16384, 8, row_range=rows),
            tg.matmult_naive_array(64, 4096, 16384, 8, row_range=rows))

    @pytest.mark.parametrize("n", [2, 6, 9])
    def test_transposed(self, n):
        assert_twin(
            tg.matmult_transposed_trace(0x1000, 0x8000, 0x20000, n),
            tg.matmult_transposed_array(0x1000, 0x8000, 0x20000, n))

    def test_transposed_row_range(self):
        rows = range(2, 5)
        assert_twin(
            tg.matmult_transposed_trace(0, 512, 8192, 6, row_range=rows),
            tg.matmult_transposed_array(0, 512, 8192, 6, row_range=rows))

    @pytest.mark.parametrize("n", [2, 7, 10])
    def test_transpose(self, n):
        assert_twin(tg.transpose_trace(128, 65536, n),
                    tg.transpose_array(128, 65536, n))

    def test_elem_bytes(self):
        assert_twin(tg.matmult_naive_trace(0, 4096, 8192, 4, elem_bytes=4),
                    tg.matmult_naive_array(0, 4096, 8192, 4, elem_bytes=4))


class TestStreamStrideArrays:
    @pytest.mark.parametrize("repeats", [1, 3])
    @pytest.mark.parametrize("access", [AccessType.READ, AccessType.WRITE])
    def test_stream(self, access, repeats):
        assert_twin(tg.stream_trace(256, 1024, 8, access, repeats),
                    tg.stream_array(256, 1024, 8, access, repeats))

    def test_stride(self):
        assert_twin(tg.stride_trace(64, 100, 192, AccessType.WRITE),
                    tg.stride_array(64, 100, 192, AccessType.WRITE))

    def test_empty_stream(self):
        arr = tg.stream_array(0, 0)
        assert len(arr) == 0


class TestRngDrivenArrays:
    @pytest.mark.parametrize("write_fraction,seed",
                             [(0.0, 42), (0.3, 9), (1.0, 5)])
    def test_random(self, write_fraction, seed):
        assert_twin(
            tg.random_trace(0, 65536, 400, write_fraction=write_fraction,
                            seed=seed),
            tg.random_array(0, 65536, 400, write_fraction=write_fraction,
                            seed=seed))

    @pytest.mark.parametrize("touched_fraction", [1.0, 0.5])
    def test_hint_sweep(self, touched_fraction):
        assert_twin(
            tg.hint_sweep_trace(0, 300, 48,
                                touched_fraction=touched_fraction),
            tg.hint_sweep_array(0, 300, 48,
                                touched_fraction=touched_fraction))
        # The scans run_hint replays: each checkpoint of the default
        # ladder (16 ... 4096 records) seeded by its size, a quarter of
        # the records rewritten, an odd count among them.
        from repro.bench.hint import RECORD_BYTES, default_checkpoints
        base = 0x1000_0000
        for mark in default_checkpoints(4096) + [1, 101]:
            assert_twin(
                tg.hint_sweep_trace(base, mark, RECORD_BYTES,
                                    touched_fraction=touched_fraction,
                                    write_fraction=0.25, seed=mark),
                tg.hint_sweep_array(base, mark, RECORD_BYTES,
                                    touched_fraction=touched_fraction,
                                    write_fraction=0.25, seed=mark))


class TestArrayTraceAdapters:
    def test_iter_refs_collapses_instr_to_read(self):
        arr = coerce_trace([(0, AccessType.INSTR), (8, AccessType.WRITE)])
        assert list(iter_refs(arr)) == [(0, AccessType.READ),
                                        (8, AccessType.WRITE)]

    def test_coerce_passthrough_is_identity(self):
        arr = tg.stride_array(0, 10, 8)
        assert coerce_trace(arr) is arr
