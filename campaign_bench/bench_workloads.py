"""The benchmark's workloads: which figures each one runs, and seeding.

Every workload is a fixed list of registered figures (plus, for
``failover_pinned``, a cross-policy arena derived through the public
``arena_spec``), run at smoke scale.  The ``--seed`` argument re-seeds
every task through ``spawn_seeds``; seed :data:`DEFAULT_SEED` keeps the
registered seeds, which is what the pinned reference describes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Tuple

#: ``--seed`` value that runs every task with its registered seed
DEFAULT_SEED = 0

#: the 25 registered figures whose cold smoke-scale pass takes under a
#: second each (191 tasks in all), in registry order
CATALOGUE_SMALL = (
    "fig04", "fig05_synthetic", "fig05_collectives", "fig06", "fig07",
    "fig08_permutation", "fig08_allreduce", "fig09", "fig11a", "fig22",
    "fig12_healthy", "fig12_failures", "fig13", "fig15_evs", "fig15_cc",
    "fig19", "fig23", "ablation_buffer_depth", "ablation_incremental",
    "ablation_oversubscription", "fig17", "fig18", "fig20", "fig24",
    "table1",
)


@dataclass(frozen=True)
class Workload:
    """One named benchmark input: registered figures plus arenas."""

    name: str
    why: str
    figures: Tuple[str, ...]
    #: ``(base figure, policies)`` pairs run as cross-policy arenas
    arenas: Tuple[Tuple[str, Tuple[str, ...]], ...] = ()

    def specs(self, seed: int = DEFAULT_SEED) -> list:
        """The workload's FigureSpecs, re-seeded for ``seed``."""
        from repro.scenarios import arena_spec, get_figure

        specs = [get_figure(fig_id) for fig_id in self.figures]
        for base, policies in self.arenas:
            spec = arena_spec(get_figure(base), policies)
            if spec is None:
                raise ValueError(f"{base} has no arena variant")
            specs.append(spec)
        return [reseeded(spec, seed) for spec in specs]


WORKLOADS = {w.name: w for w in (
    Workload(
        "spray_healthy",
        "dense per-hop port/switch/transport work with REPS, OPS, ECMP, "
        "PLB and MPRDMA feedback on a healthy fabric",
        ("fig02", "fig03_traces")),
    Workload(
        "failover_pinned",
        "a persistent T0-T1 failure pins ECMP on a dead cable until the "
        "1 s arena cap: sparse wheel, RTO storms, DNF cells",
        ("fig11b",), arenas=(("fig11b", ("ecmp", "prime")),)),
    Workload(
        "catalogue_small",
        "191 short tasks over 25 figures: per-task set-up, store, "
        "registry and report cost, cold then fully cached",
        CATALOGUE_SMALL),
    Workload(
        "evs_model",
        "Fig. 14 EVS-imbalance model: 20M ECMP hashes in the models "
        "layer with no simulator",
        ("fig14",)),
)}


def derive_seed(bench_seed: int, task_seed: int) -> int:
    """A task's seed under ``--seed bench_seed``.

    A pure function of both seeds, so tasks that share a registered
    seed still share a derived one and cross-figure dedup stays intact.
    """
    from repro.harness.sweep import spawn_seeds

    return spawn_seeds((bench_seed << 32) | (task_seed & 0xFFFFFFFF), 1)[0]


def reseeded(spec, seed: int):
    """``spec`` with every task re-seeded (unchanged for the default)."""
    if seed == DEFAULT_SEED:
        return spec
    build = spec.build

    def build_reseeded():
        return {key: replace(task, seed=derive_seed(seed, task.seed))
                for key, task in build().items()}

    return replace(spec, build=build_reseeded)


def get_workload(name: str) -> Workload:
    try:
        return WORKLOADS[name]
    except KeyError:
        raise SystemExit(
            f"unknown workload {name!r}; one of {sorted(WORKLOADS)}"
        ) from None
