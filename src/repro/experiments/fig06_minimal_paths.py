"""Figure 6: distributions of shortest-path lengths and shortest-path diversities.

For every topology (and its equivalent Jellyfish) the paper plots the fraction of
router pairs at each minimal path length ``l_min`` and with each minimal path count
``c_min`` (1, 2, 3, >3).  The takeaway: in all low-diameter topologies a large fraction
of router pairs has exactly one shortest path ("shortest paths fall short"), while fat
trees and HyperX retain high minimal diversity.
"""

from __future__ import annotations

from repro.diversity.minimal_paths import minimal_path_statistics
from repro.experiments.scenario import ScenarioContext, ScenarioSpec
from repro.topologies import comparable_configurations

#: Base topology families this scenario iterates (each brings its Jellyfish
#: equivalent along; grid cells may select a subset).
TOPOLOGY_NAMES = ("SF", "DF", "HX3", "XP", "FT3")


def _plan(ctx: ScenarioContext):
    size_class = ctx.scale.size_class()
    num_samples = ctx.scale.pick(150, 400, 800)
    ctx.meta["num_samples"] = num_samples
    configs = comparable_configurations(size_class, include_jellyfish=True,
                                        topologies=list(ctx.topologies), seed=ctx.seed)
    for name, topo in configs.items():
        # per-topology generator: a filtered run yields the same rows as a full one
        rng = ctx.rng(name)
        stats = minimal_path_statistics(topo, num_samples=num_samples, rng=rng)
        row = {
            "topology": name,
            "mean_lmin": round(stats.mean_length, 3),
            "mean_cmin": round(stats.mean_count, 3),
            "frac_single_shortest": round(stats.fraction_single_shortest_path, 3),
        }
        for length, frac in stats.length_histogram.items():
            row[f"lmin={length}"] = round(frac, 3)
        for count, frac in stats.count_histogram.items():
            label = f"cmin>={count}" if count >= 4 else f"cmin={count}"
            row[label] = round(frac, 3)
        yield row


SCENARIO = ScenarioSpec(
    name="fig06",
    title="Shortest-path length and diversity distributions",
    paper_reference="Figure 6",
    plan=_plan,
    topology_names=TOPOLOGY_NAMES,
    base_columns=("topology", "mean_lmin", "mean_cmin", "frac_single_shortest"),
    notes=(
        "Paper finding: SF/DF have mostly one shortest path per pair; HX has ~2-3; "
        "FT3 (edge switches) has high minimal diversity; Jellyfish equivalents are "
        "'smoothed out'.",
    ),
)
