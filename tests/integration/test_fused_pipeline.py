"""Batch MDNorm path: whole-pipeline equivalence of its execution knobs.

The contract: the fast batch path's choices — the library row sort
(the default), the compacted deposit plan a warm geometry cache
replays — are *execution* details of the full Algorithm-1 pipeline,
never *numerics* details.  For every instrument x symmetry-group x
execution-mode combination below, the cross-section (and both factors,
including ``error_sq``) must be **bit-identical** to the comb-sort,
cache-free run of the same mode, on a cold geometry cache and again on
a warm one:

* plain single-process campaigns (CORELLI/Benzil x 321, TOPAZ/Bixbyite
  x m-3 — 6-op and 24-op plans, distinct grids);
* intra-run sharding (shards > 1, including shard counts larger than
  the op axis);
* the elastic work-stealing executor under a random steal schedule;
* out-of-core runs (chunked event files re-read under a memory
  budget);
* checkpoint/resume across a mid-campaign failure.

Each mode is compared *within* the mode, so modes with their own fold
order (the scratch-delta fold of recovery and stealing) still demand
exact equality.  The module name is historical: these
cases once compared a plan-specialized fused back end against the
vectorized one, whose batch path now carries those optimizations.
"""

import itertools

import numpy as np
import pytest

from repro.core import geom_cache as gc
from repro.core.checkpoint import CheckpointManager, RecoveryConfig
from repro.core.cross_section import compute_cross_section
from repro.core.geom_cache import GeomCache
from repro.core.grid import HKLGrid
from repro.core.md_event_workspace import convert_to_md, load_md, save_md
from repro.core.sharding import ShardConfig
from repro.crystal.goniometer import Goniometer
from repro.crystal.structures import benzil, bixbyite
from repro.crystal.symmetry import point_group
from repro.crystal.ub import UBMatrix
from repro.instruments.corelli import make_corelli
from repro.instruments.synth import make_flux, make_vanadium, synthesize_run
from repro.instruments.topaz import make_topaz
from repro.jacc.workers import GLOBAL_POOL
from repro.util.faults import FaultPlan, FaultSpec, RetryPolicy, use_fault_plan
from repro.util.schedule import ScheduleController

N_RUNS = 3
POLICY = RetryPolicy(max_attempts=3, base_delay_s=0.0)


class _Exp:
    """One instrument + structure + symmetry group campaign setup."""

    def __init__(self, key):
        if key == "benzil":
            structure = benzil()
            self.instrument = make_corelli(n_pixels=150)
            self.grid = HKLGrid.benzil_grid(bins=(15, 15, 1))
            self.pg = point_group("321")  # 6 ops
            u, v = [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]
        else:
            structure = bixbyite()
            self.instrument = make_topaz(n_pixels=120)
            self.grid = HKLGrid.bixbyite_grid(bins=(13, 13, 1))
            self.pg = point_group("m-3")  # 24 ops
            u, v = [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]
        self.ub = UBMatrix.from_u_vectors(structure.cell, u, v)
        self.flux = make_flux(self.instrument)
        self.sa = make_vanadium(self.instrument).detector_weights
        self.wss = [
            convert_to_md(
                synthesize_run(
                    instrument=self.instrument, structure=structure,
                    ub=self.ub, goniometer=Goniometer(omega).rotation,
                    n_events=400, rng=np.random.default_rng(9300 + i),
                    run_number=i,
                ),
                self.instrument, run_index=i,
            )
            for i, omega in enumerate((0.0, 40.0, 80.0))
        ]

    def loader(self, i):
        return self.wss[i]

    def compute(self, *, loader=None, **kw):
        return compute_cross_section(
            loader or self.loader, N_RUNS, self.grid, self.pg, self.flux,
            self.instrument.directions, self.sa, backend="vectorized", **kw,
        )


@pytest.fixture(scope="module", params=("benzil", "bixbyite"))
def exp(request):
    e = _Exp(request.param)
    yield e
    GLOBAL_POOL.dispose()


def assert_bit_identical(got, ref):
    assert got.mdnorm.signal.sum() > 0  # the campaign deposited
    assert np.array_equal(got.mdnorm.signal, ref.mdnorm.signal)
    assert np.array_equal(got.binmd.signal, ref.binmd.signal)
    assert np.array_equal(got.binmd.error_sq, ref.binmd.error_sq)
    assert np.array_equal(got.cross_section.signal,
                          ref.cross_section.signal, equal_nan=True)
    if got.cross_section.error_sq is not None:
        assert np.array_equal(got.cross_section.error_sq,
                              ref.cross_section.error_sq, equal_nan=True)


def assert_knobs_invisible(run):
    """``run(**knobs)`` is one campaign of a mode: the default knobs on
    a cold and then a warm geometry cache both equal the comb-sort run
    without a cache."""
    ref = run(sort_impl="comb", cache=gc.DISABLED)
    cache = GeomCache()
    assert_bit_identical(run(cache=cache), ref)  # cold: plans built
    assert_bit_identical(run(cache=cache), ref)  # warm: plans replayed


class TestFusedPipelineEquivalence:
    def test_plain_campaign(self, exp):
        assert_knobs_invisible(exp.compute)

    @pytest.mark.parametrize("n_shards", (2, 7))
    def test_sharded(self, exp, n_shards):
        shards = ShardConfig(n_shards=n_shards, workers=1)
        assert_knobs_invisible(lambda **kw: exp.compute(shards=shards, **kw))

    def test_stealing_executor(self, exp):
        def run(**kw):
            result = exp.compute(
                executor="stealing",
                shards=ShardConfig(n_shards=3, workers=1),
                schedule=ScheduleController(seed=5, policy="random"), **kw,
            )
            assert result.extras["stealing"]["tasks"] > 0
            return result

        assert_knobs_invisible(run)

    def test_out_of_core(self, exp, tmp_path):
        """Chunked event files re-read under a tight memory budget."""
        paths = []
        for i, ws in enumerate(exp.wss):
            p = str(tmp_path / f"run{i}.md.h5")
            save_md(p, ws, chunk_events=64, codec="shuffle-zlib")
            paths.append(p)
        budget = 2 * 64 * 8 * 8  # two chunks of 8-column float64 rows

        def run(**kw):
            return exp.compute(
                loader=lambda i: load_md(paths[i], memory_budget=budget),
                shards=ShardConfig(n_shards=3, workers=1), **kw,
            )

        assert_knobs_invisible(run)

    def test_checkpoint_resume(self, exp, tmp_path):
        """Kill run 1 mid-campaign, resume from the checkpoint: every
        replayed+fresh campaign equals the reference one."""
        attempt = itertools.count()

        def run(**kw):
            ckpt_dir = str(tmp_path / f"ckpt-{next(attempt)}")
            plan = FaultPlan(
                [FaultSpec(site="shard.binmd", kind="io_error",
                           probability=1.0, runs=(1,))],
                seed=3,
            )
            first = RecoveryConfig(
                retry=RetryPolicy(max_attempts=1, base_delay_s=0.0),
                quarantine=False, checkpoint=CheckpointManager(ckpt_dir),
            )
            with use_fault_plan(plan):
                with pytest.raises(Exception):
                    exp.compute(shards=ShardConfig(n_shards=2, workers=1),
                                recovery=first, **kw)
            resume = RecoveryConfig(
                retry=POLICY, checkpoint=CheckpointManager(ckpt_dir),
                resume=True,
            )
            return exp.compute(shards=ShardConfig(n_shards=2, workers=1),
                               recovery=resume, **kw)

        assert_knobs_invisible(run)

    def test_recovering_loop(self, exp):
        """The recovery path folds per-run scratch deltas — a different
        float association the knobs must leave untouched too."""
        assert_knobs_invisible(
            lambda **kw: exp.compute(recovery=RecoveryConfig(), **kw)
        )
