"""Tests for the application-level studies."""

import numpy as np
import pytest

from repro.apps import run_stencil, serial_stencil


def default_rod(cells=128):
    rod = np.zeros(cells)
    rod[0] = 100.0
    rod[-1] = -40.0
    return rod


class TestStencilCorrectness:
    def test_matches_serial_reference(self):
        cells, iterations = 128, 12
        result = run_stencil(cells, iterations, ranks=8)
        reference = serial_stencil(default_rod(cells), iterations)
        np.testing.assert_allclose(result.solution, reference)

    def test_matches_serial_for_any_rank_count(self):
        cells, iterations = 96, 6
        reference = serial_stencil(default_rod(cells), iterations)
        for ranks in (2, 3, 4, 8):
            result = run_stencil(cells, iterations, ranks=ranks)
            np.testing.assert_allclose(result.solution, reference,
                                       err_msg=f"ranks={ranks}")

    def test_custom_initial_condition(self):
        cells = 64
        initial = np.sin(np.linspace(0, np.pi, cells)) * 10
        result = run_stencil(cells, 5, ranks=4, initial=initial)
        reference = serial_stencil(initial, 5)
        np.testing.assert_allclose(result.solution, reference)

    def test_uneven_decomposition(self):
        # 100 cells over 8 ranks: remainder cells on the front ranks.
        result = run_stencil(100, 4, ranks=8)
        reference = serial_stencil(default_rod(100), 4)
        np.testing.assert_allclose(result.solution, reference)

    def test_validation(self):
        with pytest.raises(ValueError):
            run_stencil(10, 5, ranks=8)
        with pytest.raises(ValueError):
            run_stencil(128, 0, ranks=4)
        with pytest.raises(ValueError):
            run_stencil(128, 1, ranks=4, initial=np.zeros(5))


class TestStencilTiming:
    def test_timing_fields_consistent(self):
        result = run_stencil(256, 8, ranks=8)
        assert result.elapsed_ns > result.compute_ns > 0
        assert 0.0 < result.comm_fraction < 1.0

    def test_small_slabs_are_latency_bound(self):
        tiny = run_stencil(64, 8, ranks=8)
        assert tiny.comm_fraction > 0.8

    def test_large_slabs_shift_toward_compute(self):
        small = run_stencil(128, 6, ranks=8)
        large = run_stencil(8192, 6, ranks=8)
        assert large.comm_fraction < small.comm_fraction

