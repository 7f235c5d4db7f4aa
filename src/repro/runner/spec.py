"""Trial and shard planning with deterministic, jobs-independent seeding.

Every paper experiment is a Monte Carlo sweep of independent *trials*
(driver inits for Fig. 6, page loads for Section V, sweep points for the
covert-channel figures).  A :class:`TrialSpec` names the experiment and its
trial count; :class:`ShardPlan.build` splits those trials into *shards* of
a fixed size and assigns each shard — and each trial inside it — a seed
derived purely from ``(root_seed, experiment_name, shard_index)`` via
:class:`numpy.random.SeedSequence` spawning.

The invariant the whole runner rests on: **the plan depends only on the
spec and the root seed, never on how many workers execute it**, so results
are bit-identical for ``--jobs 1`` and ``--jobs 64``.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Any, Mapping

import numpy as np

#: Seeds are delivered as non-negative ints below 2**63 so they are safe
#: for ``MachineConfig.seed``, ``random.Random`` and ``numpy`` alike.
_SEED_BITS = 63


def experiment_tag(experiment: str) -> int:
    """Stable integer identity of an experiment name, for seed entropy."""
    digest = hashlib.sha256(experiment.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def _draw_seed(sequence: np.random.SeedSequence) -> int:
    words = sequence.generate_state(2, np.uint32)
    return (int(words[0]) << 31 | int(words[1])) & ((1 << _SEED_BITS) - 1)


@dataclass(frozen=True)
class TrialSpec:
    """What to run: an experiment's trial count, shard size, and params.

    ``params`` must be stable-hashable (see :mod:`repro.core.hashing`): it
    both parameterises the shard function and feeds the cache key.  The
    shard size is part of the spec — *not* derived from the worker count —
    because the shard boundaries determine the seed stream.
    """

    experiment: str
    n_trials: int
    trials_per_shard: int = 1
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.experiment:
            raise ValueError("experiment name must be non-empty")
        if self.n_trials <= 0:
            raise ValueError(f"n_trials must be positive, got {self.n_trials}")
        if self.trials_per_shard <= 0:
            raise ValueError(
                f"trials_per_shard must be positive, got {self.trials_per_shard}"
            )

    @property
    def n_shards(self) -> int:
        return math.ceil(self.n_trials / self.trials_per_shard)


@dataclass(frozen=True)
class Shard:
    """One unit of parallel work: trials ``[start, stop)`` plus their seeds."""

    index: int
    start: int
    stop: int
    seed: int
    trial_seeds: tuple[int, ...]

    @property
    def n_trials(self) -> int:
        return self.stop - self.start

    def __post_init__(self) -> None:
        if len(self.trial_seeds) != self.n_trials:
            raise ValueError(
                f"shard {self.index}: {len(self.trial_seeds)} seeds for "
                f"{self.n_trials} trials"
            )


@dataclass(frozen=True)
class ShardPlan:
    """A fully seeded, ordered decomposition of a spec into shards."""

    spec: TrialSpec
    root_seed: int
    shards: tuple[Shard, ...]

    @classmethod
    def build(cls, spec: TrialSpec, root_seed: int) -> "ShardPlan":
        if root_seed < 0:
            raise ValueError(f"root_seed must be non-negative, got {root_seed}")
        tag = experiment_tag(spec.experiment)
        shards = []
        for index in range(spec.n_shards):
            start = index * spec.trials_per_shard
            stop = min(start + spec.trials_per_shard, spec.n_trials)
            sequence = np.random.SeedSequence([root_seed, tag, index])
            trial_seeds = tuple(
                _draw_seed(child) for child in sequence.spawn(stop - start)
            )
            shards.append(
                Shard(
                    index=index,
                    start=start,
                    stop=stop,
                    seed=_draw_seed(sequence),
                    trial_seeds=trial_seeds,
                )
            )
        return cls(spec=spec, root_seed=root_seed, shards=tuple(shards))
