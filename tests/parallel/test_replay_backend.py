"""Replay engines under ``run_sweep``: values and jobs-level identity.

A MatMult sweep replays one trace per point, which ``replay_traces``
hands to the vectorized engine.  Its results must equal the scalar
loop's and be byte-identical pickled at any jobs level.
"""

import pickle

from repro.parallel.sweep import run_sweep


def matmult_cell_task(config, seed):
    from repro.bench.matmult import matmult_point_task
    return matmult_point_task(config, seed)


class TestRunSweepOption:
    def test_backends_agree_and_jobs_levels_byte_identical(self,
                                                           monkeypatch):
        from repro.core.specs import POWERMANNA
        from repro.memory import mp

        points = [((n,), {"spec": POWERMANNA, "n": n, "version": "naive",
                          "scale": 16}) for n in (8, 12)]
        serial = run_sweep("mm", points, matmult_cell_task)
        fanned = run_sweep("mm", points, matmult_cell_task, jobs=4)
        # jobs fan-out must not perturb any point's result, byte for byte
        # (per-value pickles: a whole-list dump would also encode object
        # sharing between points, which process boundaries legitimately
        # change)
        assert ([pickle.dumps(o.value) for o in serial]
                == [pickle.dumps(o.value) for o in fanned])
        # vec ruled out for every node leaves the scalar loop: same values
        monkeypatch.setattr(mp.vec, "supported", lambda *args: False)
        scalar = run_sweep("mm", points, matmult_cell_task)
        assert [o.value for o in scalar] == [o.value for o in serial]
