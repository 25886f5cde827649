"""Figure 12 — simultaneous bidirectional bandwidth, plus the paper's own
explanation tested as an ablation.

Shape targets:

* Short messages: PowerMANNA's aggregate exchange bandwidth is
  competitive with BIP ("similar to BIP and Myrinet").
* Long messages: "we did not obtain the expected bandwidth" — the
  aggregate stays well below 2x the 60 Mbyte/s unidirectional rate,
  because the driver can move at most 4 cache lines before it must turn
  around and service the other direction of the small FIFOs.
* Ablation: enlarging the link-interface FIFOs (the paper: "this overhead
  could be significantly reduced if larger FIFO buffers were implemented")
  must recover a significant share of the lost bandwidth.
"""

import pytest

from conftest import announce

from repro.bench.microbench import comm_sweep, metric_value, topology_point
from repro.bench.report import format_series, format_table
from repro.msg.api import build_cluster_world
from repro.network.topology import cluster_spec

SIZES = (64, 256, 1024, 4096, 16384)
FIFO_LADDER = (32, 64, 128, 256)    # words; 32 is the real chip


def run_sweep():
    return comm_sweep("bidir", sizes=SIZES)


def run_fifo_ablation(nbytes=16384):
    results = {}
    for words in FIFO_LADDER:
        point = topology_point(cluster_spec().to_dict(), nbytes, "bidir",
                               fifo_words=words)
        results[words] = metric_value(point, "bidir")
    return results


@pytest.fixture(scope="module")
def sweep():
    return run_sweep()


@pytest.fixture(scope="module")
def ablation():
    return run_fifo_ablation()


def values(sweep, system):
    return {p.nbytes: metric_value(p, "bidir") for p in sweep[system]}


def verify(sweep, ablation):
    pm = values(sweep, "PowerMANNA")
    _, world = build_cluster_world()
    unidir = world.unidirectional_mb_s(0, 1, 16384)
    # Far below the full-duplex ideal, above plain unidirectional.
    assert pm[16384] < 1.8 * unidir
    assert pm[16384] > unidir
    # The FIFO ablation recovers bandwidth monotonically.
    assert ablation[256] > ablation[32] * 1.1
    ladder = [ablation[words] for words in FIFO_LADDER]
    assert all(b >= a * 0.98 for a, b in zip(ladder, ladder[1:]))


class TestFig12:
    def test_bidirectional_curves(self, once, sweep, ablation):
        results = once(lambda: sweep)
        series = {system: [metric_value(p, "bidir") for p in points]
                  for system, points in results.items()}
        announce("Figure 12: simultaneous bidirectional bandwidth "
                 "(Mbyte/s, aggregate)",
                 format_series(series, list(SIZES), "bytes"))
        announce("Figure 12 ablation: NI FIFO depth vs bidirectional "
                 "bandwidth at 16 KB",
                 format_table(["fifo_words", "fifo_bytes", "aggregate MB/s"],
                              [[w, w * 8, round(v, 1)]
                               for w, v in sorted(ablation.items())]))
        verify(results, ablation)

    def test_aggregate_below_full_duplex_ideal(self, sweep):
        pm = values(sweep, "PowerMANNA")
        assert pm[16384] < 108.0   # well under 2 x 60 MB/s

    def test_duplex_still_beats_unidirectional(self, sweep):
        pm = values(sweep, "PowerMANNA")
        assert pm[16384] > 60.0

    def test_short_messages_competitive_with_bip(self, sweep):
        pm = values(sweep, "PowerMANNA")
        bip = values(sweep, "BIP/Myrinet")
        assert pm[64] > 0.35 * bip[64]

    def test_bigger_fifos_recover_bandwidth(self, ablation):
        assert ablation[256] > ablation[32] * 1.1

    def test_recovery_is_monotone_in_fifo_depth(self, ablation):
        ladder = [ablation[words] for words in FIFO_LADDER]
        assert all(b >= a * 0.98 for a, b in zip(ladder, ladder[1:]))
