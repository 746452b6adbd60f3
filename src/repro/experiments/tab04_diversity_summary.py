"""Table IV: CDP and PI summary statistics at the per-topology distance d'.

For each topology (and its equivalent Jellyfish) the paper reports, at a distance d'
chosen such that the tail of the disjoint-path count is at least 3:

* CDP mean and 1% tail, as a fraction of the router radix k';
* PI mean and 99.9% tail, as a fraction of k'.

The qualitative shape to reproduce: the clique and FT3 reach ~100% CDP with ~0 PI;
SF has a high mean CDP but a low 1% tail (directly connected pairs) and non-negligible
PI at d' = 3; deterministic topologies beat their Jellyfish equivalents on the mean but
have worse tails.
"""

from __future__ import annotations

from repro.diversity.metrics import cdp_summary, pi_summary
from repro.experiments.scenario import ScenarioContext, ScenarioSpec
from repro.topologies import build, equivalent_jellyfish

#: The evaluation distances d' used in the paper's Table IV.
PAPER_DISTANCES = {"CLIQUE": 2, "SF": 3, "XP": 3, "HX3": 3, "DF": 4, "FT3": 4}

#: Base topology families this scenario iterates (each non-clique family brings
#: its Jellyfish equivalent along; grid cells may select a subset).
TOPOLOGY_NAMES = tuple(PAPER_DISTANCES)


def _plan(ctx: ScenarioContext):
    size_class = ctx.scale.size_class()
    num_samples = ctx.scale.pick(60, 150, 300)
    ctx.meta["num_samples"] = num_samples
    for short_name in ctx.topologies:
        distance = PAPER_DISTANCES[short_name]
        topo = build(short_name, size_class, seed=ctx.seed)
        variants = {short_name: topo}
        if short_name != "CLIQUE":
            variants[f"{short_name}-JF"] = equivalent_jellyfish(topo, seed=ctx.seed + 1)
        for name, variant in variants.items():
            # per-topology generator: filtered runs yield the same rows as full ones
            rng = ctx.rng(name)
            cdp = cdp_summary(variant, distance, num_samples=num_samples, rng=rng)
            pi = pi_summary(variant, distance, num_samples=max(20, num_samples // 2),
                            rng=rng)
            yield {
                "topology": name,
                "d_prime": distance,
                "k_prime": variant.network_radix,
                "CDP_mean_pct": round(100 * cdp.mean_fraction_of_radix, 1),
                "CDP_tail1_pct": round(100 * cdp.tail_1pct / variant.network_radix, 1),
                "PI_mean_pct": round(100 * pi.mean_fraction_of_radix, 1),
                "PI_tail999_pct": round(100 * pi.tail_999pct / variant.network_radix, 1),
            }


SCENARIO = ScenarioSpec(
    name="tab04",
    title="CDP and PI summaries at distance d' (fractions of router radix)",
    paper_reference="Table IV",
    plan=_plan,
    topology_names=TOPOLOGY_NAMES,
    base_columns=("topology", "d_prime", "k_prime", "CDP_mean_pct", "CDP_tail1_pct",
                  "PI_mean_pct", "PI_tail999_pct"),
    notes=(
        "Paper values (medium size): clique 100/100/2/2, SF 89/10/26/79, XP 49/34/20/41, "
        "HX 25/10/9/67, DF 25/13/8/74, FT3 100/100/0/0 (CDP mean/1% tail, PI mean/99.9% "
        "tail, all % of k').",
    ),
)
