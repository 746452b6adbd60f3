"""Figure 16: impact of the layer density rho on long-flow FCT (TCP, n = 4 layers).

The paper sweeps rho from 0.5 to 1.0 with four layers and reports mean/10%/99% FCT of
1 MiB flows per topology.  The shape to reproduce: on SF and DF a moderate rho (~0.6-
0.8) minimises the tail FCT (up to ~2x better than rho=1); on HyperX-like topologies
with minimal-path diversity non-minimal paths do not help (rho=1 is as good or better).
"""

from __future__ import annotations

import numpy as np

from repro.core.mapping import random_mapping
from repro.experiments.scenario import ScenarioContext, ScenarioSpec, SimSweep
from repro.experiments.simcommon import StackCell, build_stack
from repro.topologies import comparable_configurations
from repro.traffic.flows import uniform_size_workload
from repro.traffic.patterns import adversarial_offdiagonal

MIB = 1024 * 1024

#: Topology families this scenario iterates (per-family random streams; grid cells
#: may select a subset without changing rows).
TOPOLOGY_NAMES = ("SF", "DF", "HX3", "XP")


def _families(scale):
    """Axis families that actually run at ``scale``."""
    return scale.pick(["SF", "DF"], ["SF", "DF", "HX3"], ["SF", "DF", "HX3", "XP"])


def _plan(ctx: ScenarioContext):
    size_class = ctx.scale.size_class()
    rhos = ctx.scale.pick([0.5, 0.7, 1.0], [0.5, 0.6, 0.8, 1.0],
                          [0.5, 0.6, 0.7, 0.8, 0.9, 1.0])
    fraction = ctx.scale.pick(0.3, 0.3, 0.25)
    for topo_name in ctx.topologies:
        topo = comparable_configurations(size_class, topologies=[topo_name],
                                         seed=ctx.seed)[topo_name]
        rng = np.random.default_rng(ctx.seed)
        pattern = adversarial_offdiagonal(topo.num_endpoints, topo.concentration)
        pattern = pattern.subsample(fraction, rng)
        mapping = random_mapping(topo.num_endpoints, rng)
        workload = uniform_size_workload(pattern, 1 * MIB)
        # one batched sweep over rho: each cell owns its routing (rho is the swept
        # quantity) but the engine shares the topology link space across all of them
        cells = [StackCell(stack=build_stack(topo, "fatpaths_tcp", seed=ctx.seed,
                                             num_layers=4, rho=rho,
                                             routing_cache=ctx.routing_cache),
                           workload=workload, mapping=mapping, seed=ctx.seed,
                           meta={"topology": topo_name, "rho": rho})
                 for rho in rhos]
        yield SimSweep.per_cell(topo, cells, _row)


def _row(cell: StackCell, result) -> dict:
    summary = result.summary(percentiles=(10, 99))
    return {
        **cell.meta,
        "fct_mean_ms": round(summary["fct_mean"] * 1e3, 4),
        "fct_p10_ms": round(summary["fct_p10"] * 1e3, 4),
        "fct_p99_ms": round(summary["fct_p99"] * 1e3, 4),
    }


SCENARIO = ScenarioSpec(
    name="fig16",
    title="Impact of rho on long-flow FCT (TCP, n=4)",
    paper_reference="Figure 16",
    plan=_plan,
    topology_names=TOPOLOGY_NAMES,
    scale_families=_families,
    base_columns=("topology", "rho", "fct_mean_ms", "fct_p10_ms", "fct_p99_ms"),
    notes=(
        "Paper finding (Fig 16): the largest effect of non-minimal routing (rho < 1) is a "
        "~2x tail-FCT improvement on DF and SF; topologies with minimal-path diversity "
        "see little or no benefit from lowering rho.",
    ),
)
