"""Figure 12: effect of the number of layers n and layer density rho on FCT.

For a complete graph (D=1), Slim Fly (D=2) and Dragonfly (D=3) the paper sweeps the
number of layers (n) and the fraction of edges per layer (rho) and reports the FCT of
long (1 MiB) flows: mean, 10% and 99% percentiles.  The shape to reproduce: around nine
layers suffice for SF/DF (more are needed for the clique); with more layers a higher
rho is better; both very low and very high rho hurt.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import FatPathsConfig
from repro.core.fatpaths import FatPathsRouting
from repro.core.loadbalance import FlowletSelector
from repro.core.mapping import random_mapping
from repro.core.transport import ndp_transport
from repro.experiments.scenario import ScenarioContext, ScenarioSpec, SimSweep
from repro.experiments.simcommon import Stack, StackCell
from repro.topologies import build
from repro.traffic.flows import uniform_size_workload
from repro.traffic.patterns import adversarial_offdiagonal

MIB = 1024 * 1024

#: Topology families this scenario iterates (per-family random streams, so the grid
#: may fan it into per-family cells without changing rows).
TOPOLOGY_NAMES = ("CLIQUE", "SF", "DF")


def _plan(ctx: ScenarioContext):
    size_class = ctx.scale.size_class()
    layer_counts = ctx.scale.pick([2, 5, 9], [2, 5, 9, 16], [2, 5, 9, 16, 32])
    rhos = ctx.scale.pick([0.5, 0.8], [0.5, 0.7, 0.8], [0.5, 0.7, 0.8])
    fraction = ctx.scale.pick(0.25, 0.3, 0.3)
    for topo_name in ctx.topologies:
        topo = build(topo_name, size_class)
        rng = np.random.default_rng(ctx.seed)
        pattern = adversarial_offdiagonal(topo.num_endpoints, topo.concentration)
        pattern = pattern.subsample(fraction, rng)
        mapping = random_mapping(topo.num_endpoints, rng)
        workload = uniform_size_workload(pattern, 1 * MIB)
        # one batched engine sweep over the (n, rho) grid: every cell carries its own
        # routing (the quantity being swept) and a fresh selector, but all share the
        # topology's link space through the engine's caches
        cells = [StackCell(stack=Stack(f"fatpaths[n={n},rho={rho}]",
                                       FatPathsRouting(topo, FatPathsConfig(
                                           num_layers=n, rho=rho, seed=ctx.seed)),
                                       FlowletSelector(seed=ctx.seed), ndp_transport()),
                           workload=workload, mapping=mapping, seed=ctx.seed,
                           meta={"topology": topo_name, "n_layers": n, "rho": rho})
                 for n in layer_counts for rho in rhos]
        yield SimSweep.per_cell(topo, cells,
                                lambda c, r, seed=ctx.seed: _row(c, r, seed))


def _row(cell: StackCell, result, seed: int) -> dict:
    summary = result.summary(percentiles=(10, 50, 99))
    return {
        **cell.meta,
        "fct_mean_ms": round(summary["fct_mean"] * 1e3, 4),
        "fct_p10_ms": round(summary["fct_p10"] * 1e3, 4),
        "fct_p99_ms": round(summary["fct_p99"] * 1e3, 4),
        "mean_paths": round(cell.stack.routing.path_statistics(
            num_samples=40, rng=np.random.default_rng(seed)).mean_num_paths, 2),
    }


SCENARIO = ScenarioSpec(
    name="fig12",
    title="Effect of layer count n and density rho on long-flow FCT",
    paper_reference="Figure 12",
    plan=_plan,
    topology_names=TOPOLOGY_NAMES,
    base_columns=("topology", "n_layers", "rho", "fct_mean_ms", "fct_p10_ms",
                  "fct_p99_ms", "mean_paths"),
    notes=(
        "Paper finding (Fig 12): ~9 layers resolve most collisions for SF and DF; the "
        "D=1 clique needs more layers; with many layers a higher rho is better.",
    ),
)
