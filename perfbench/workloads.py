"""The benchmark's workloads: what one op is and how op inputs follow from the
workload seed.

Every workload is a closed loop with one caller: the next op starts when the
previous one returns. An op is one whiten-plus-fit trial through the public
`rica.evaluation.run_single_trial`, the path `rica bench` and the acceptance
suite use; it is looked up on the module at call time, so a traced run sees it
through its wrapper and a refactor of the fit path behind it needs no change
here. Op inputs (trial seeds, and through them the sources and the planted
mixing) come from the workload seed only; the source labels are fixed per
workload and checked against `catalog()`. The warm-up op uses a fixed input,
so that set-up time measures the same work on every seed.

Why these two. A fit's cost and its Amari distance vary several-fold from one
data draw to the next (4 to 65 objective evaluations per fit were measured at
N=1000), so a run's figures only repeat from seed to seed when it holds many
fits. Both workloads keep an op well under a second, so that a 60 s run holds
about 100 and 250 fits, and both use the fixed pair c,b (uniform and double
exponential), whose Amari distance stayed below 0.1 in about 3000 measured
fits: random catalog pairs include near-Gaussian sources whose rare failed
separations (Amari distance up to 0.6 against a mean of 0.03) move a run's mean
Amari distance by a quarter or more.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from rica import evaluation
from rica.source_bank import catalog

# Trial seed of the fixed warm-up op.
WARMUP_SEED = 6


@dataclass(frozen=True)
class Trial:
    """The input of one op."""

    labels: tuple[str, ...]
    method: str
    trial_seed: int
    N: int
    m: int

    def describe(self) -> str:
        return (f"{'+'.join(self.labels)}/{self.method}/N={self.N}/m={self.m}"
                f"/seed={self.trial_seed}")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str  # one line, repeated in BENCHMARK.json
    moves: str  # which per-layer metrics it exercises, and what they should move
    labels: tuple[str, ...]  # catalog labels of the sources
    N: int
    m: int
    methods: tuple[str, ...]  # alternated from op to op
    min_ops: int  # every run completes at least this many ops; accuracy is their mean

    def __post_init__(self):
        known = {spec.label for spec in catalog()}
        if not set(self.labels) <= known:
            raise ValueError(f"labels {self.labels} not in the catalog")

    def trial(self, index: int, trial_seed: int) -> Trial:
        method = self.methods[index % len(self.methods)]
        return Trial(self.labels, method, trial_seed, self.N, self.m)

    def inputs(self, seed: int) -> Iterator[Trial]:
        """Endless op inputs, the same for the same seed."""
        rng = np.random.default_rng(np.random.SeedSequence((seed, 1)))
        index = 0
        while True:
            yield self.trial(index, int(rng.integers(2**31)))
            index += 1

    @property
    def warmup(self) -> Trial:
        return self.trial(0, WARMUP_SEED)


def run_op(trial: Trial):
    """The op: the only timed call."""
    config = evaluation.BenchmarkConfig(labels=trial.labels, N=trial.N, m=trial.m)
    return evaluation.run_single_trial(trial.labels, trial.method, config, trial.trial_seed)


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="cb-1k",
            why="pair c,b at N=1000, m=200, RGV and RCC, as in acceptance criteria 5 and 7: "
                "the N-independent pencil solve is about 40% of an evaluation",
            moves="contrast_engine.solve_pencil.self_s and contrast_engine.contrast.self_s "
                  "(pencil and log-det work) move op_s.p50 and ops_per_s here and little on "
                  "cb-2k-m100; optimizer.objective_calls_per_op and iterations_per_op move "
                  "them on both",
            labels=("c", "b"), N=1000, m=200, methods=("RGV", "RCC"), min_ops=88,
        ),
        Workload(
            name="cb-2k-m100",
            why="pair c,b at N=2048, m=100, RGV: the feature map and covariance blocks, "
                "linear in N, take about 85% of an evaluation and the pencil little",
            moves="random_features.apply_feature_map.self_s and "
                  "contrast_engine.covariance_blocks.self_s move op_s.p50 and ops_per_s here; "
                  "a pencil-only change should barely move this workload",
            labels=("c", "b"), N=2048, m=100, methods=("RGV",), min_ops=180,
        ),
    )
}
