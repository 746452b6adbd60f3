"""Figure 13: FatPaths on the largest networks (throughput vs flow size, FCT histograms).

The paper runs SF, SF-JF and DF at N ~ 80,000 (and SF/SF-JF at ~1,000,000) endpoints
and reports per-flow throughput vs flow size plus FCT histograms for 1 MiB flows.  The
shapes to reproduce: mean throughput decreases only slightly relative to the smaller
instances while tail FCTs stay tightly bounded; DF shows the worst tail (overlap on its
global links); flows on SF tend to finish slightly later than on SF-JF.

This experiment uses the largest size class that is practical for the pure-Python
simulator at each scale; a note on the result and its ``N`` column record the
substitution.
"""

from __future__ import annotations

import numpy as np

from repro.core.mapping import random_mapping
from repro.experiments.scenario import ScenarioContext, ScenarioSpec, SimSweep
from repro.experiments.simcommon import StackCell, build_stack, tail_and_mean_throughput
from repro.topologies import SizeClass, build, equivalent_jellyfish
from repro.traffic.flows import uniform_size_workload
from repro.traffic.patterns import random_permutation

KIB = 1024
MIB = 1024 * 1024

#: Topology families this scenario iterates (per-family random streams; SF-JF derives
#: deterministically from the SF build, so a filtered cell reproduces it alone).
TOPOLOGY_NAMES = ("SF", "SF-JF", "DF")


def _build(name: str, size_class: SizeClass, seed: int):
    """One family's topology (SF-JF is the Jellyfish twin of the SF build)."""
    if name == "SF-JF":
        return equivalent_jellyfish(build("SF", size_class, seed=seed), seed=seed + 1)
    return build(name, size_class, seed=seed)


def _plan(ctx: ScenarioContext):
    # "large" here means: the largest class that stays tractable at the chosen scale
    size_class = ctx.scale.pick(SizeClass.SMALL, SizeClass.SMALL, SizeClass.MEDIUM)
    flow_sizes = ctx.scale.pick([64 * KIB, 1 * MIB], [32 * KIB, 256 * KIB, 1 * MIB],
                                [32 * KIB, 256 * KIB, 1 * MIB, 2 * MIB])
    fraction = ctx.scale.pick(0.15, 0.2, 0.15)
    histograms = ctx.meta.setdefault("fct_histograms", {})
    for topo_name in ctx.topologies:
        topo = _build(topo_name, size_class, ctx.seed)
        stack = build_stack(topo, "fatpaths", seed=ctx.seed,
                            routing_cache=ctx.routing_cache)
        rng = np.random.default_rng(ctx.seed)
        pattern = random_permutation(topo.num_endpoints, rng).subsample(fraction, rng)
        mapping = random_mapping(topo.num_endpoints, rng)
        # one stack shared by all flow sizes: cells run in order, so the selector's
        # stream matches the sequential per-size simulation exactly
        cells = [StackCell(stack=stack, workload=uniform_size_workload(pattern, size),
                           mapping=mapping, seed=ctx.seed,
                           meta={"topology": topo_name, "N": topo.num_endpoints,
                                 "flow_size_KiB": size // KIB})
                 for size in flow_sizes]

        def aggregate(results, cells=cells, topo_name=topo_name):
            rows = []
            for cell, result in zip(cells, results):
                tail, mean = tail_and_mean_throughput(result)
                summary = result.summary(percentiles=(50, 99))
                rows.append({
                    **cell.meta,
                    "throughput_mean_MiBs": round(mean, 2),
                    "fct_p50_ms": round(summary["fct_p50"] * 1e3, 4),
                    "fct_p99_ms": round(summary["fct_p99"] * 1e3, 4),
                })
            # FCT histogram of the largest flow size (the paper's histogram panel)
            histograms[topo_name] = np.histogram(
                results[-1].fcts() * 1e3, bins=10)[0].tolist()
            return rows

        yield SimSweep(topology=topo, cells=cells, aggregate=aggregate)


SCENARIO = ScenarioSpec(
    name="fig13",
    title="FatPaths on the largest practical networks",
    paper_reference="Figure 13",
    plan=_plan,
    topology_names=TOPOLOGY_NAMES,
    base_columns=("topology", "N", "flow_size_KiB", "throughput_mean_MiBs",
                  "fct_p50_ms", "fct_p99_ms"),
    notes=(
        "Paper finding (Fig 13): throughput decreases only slightly at large scale, tail "
        "FCT stays bounded; DF has the worst tail (global-link overlap); SF flows finish "
        "slightly later than SF-JF flows.",
        "Instance sizes are scaled down relative to the paper's 80k/1M endpoints "
        "(flow-level Python simulator); the N column gives each instance's endpoints.",
    ),
)
