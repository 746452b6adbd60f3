"""Ablation benchmarks for FatPaths' design choices.

* layer construction algorithm: random edge sampling vs interference-minimising;
* load balancing: adaptive flowlets vs static ECMP hashing vs per-packet spraying;
* transport: purified (NDP) vs TCP;
* workload mapping: randomized vs skewed (identity).

Each ablation runs the same small Slim Fly workload and reports the resulting mean FCT
in the benchmark's ``extra_info`` so regressions in either runtime or outcome are visible.
"""

import numpy as np
import pytest

from repro.core.config import FatPathsConfig
from repro.core.fatpaths import FatPathsRouting
from repro.core.layers import interference_minimizing_layers, random_edge_sampling_layers
from repro.core.loadbalance import EcmpSelector, FlowletSelector, PacketSpraySelector
from repro.core.mapping import identity_mapping, random_mapping
from repro.core.transport import ndp_transport, tcp_transport
from repro.sim.flowsim import simulate_workload
from repro.topologies import slim_fly
from repro.traffic.flows import uniform_size_workload
from repro.traffic.patterns import adversarial_offdiagonal


@pytest.fixture(scope="module")
def sf():
    return slim_fly(5)


@pytest.fixture(scope="module")
def sf_routing(sf):
    return FatPathsRouting(sf, FatPathsConfig(num_layers=6, rho=0.7, seed=0))


@pytest.fixture(scope="module")
def workload(sf):
    pattern = adversarial_offdiagonal(sf.num_endpoints, sf.concentration)
    pattern = pattern.subsample(0.4, np.random.default_rng(0))
    return uniform_size_workload(pattern, 1024 * 1024)


@pytest.mark.parametrize("algorithm", ["random", "interference"])
def test_bench_ablation_layer_algorithm(benchmark, sf, algorithm):
    config = FatPathsConfig(num_layers=5, rho=0.6, seed=0, layer_algorithm=algorithm)
    builder = (random_edge_sampling_layers if algorithm == "random"
               else interference_minimizing_layers)
    layers = benchmark.pedantic(builder, args=(sf, config), rounds=1, iterations=1,
                                warmup_rounds=0)
    benchmark.extra_info["mean_layer_fraction"] = float(np.mean(layers.edge_fractions()[1:]))
    assert len(layers) == 5


@pytest.mark.parametrize("balancer", ["flowlet_adaptive", "ecmp_hash", "packet_spray"])
def test_bench_ablation_load_balancing(benchmark, sf, sf_routing, workload, balancer):
    selector = {"flowlet_adaptive": FlowletSelector(seed=0, adaptive=True),
                "ecmp_hash": EcmpSelector(seed=0),
                "packet_spray": PacketSpraySelector(seed=0)}[balancer]

    def run():
        return simulate_workload(sf, sf_routing, workload, selector=selector, seed=0)

    result = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    benchmark.extra_info["fct_mean_ms"] = result.summary()["fct_mean"] * 1e3


@pytest.mark.parametrize("transport", ["ndp", "tcp"])
def test_bench_ablation_transport(benchmark, sf, sf_routing, workload, transport):
    model = ndp_transport() if transport == "ndp" else tcp_transport()

    def run():
        return simulate_workload(sf, sf_routing, workload, transport=model, seed=0)

    result = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    benchmark.extra_info["fct_mean_ms"] = result.summary()["fct_mean"] * 1e3


@pytest.mark.parametrize("mapping_kind", ["random", "skewed"])
def test_bench_ablation_workload_mapping(benchmark, sf, sf_routing, workload, mapping_kind):
    mapping = (random_mapping(sf.num_endpoints, np.random.default_rng(0))
               if mapping_kind == "random" else identity_mapping(sf.num_endpoints))

    def run():
        return simulate_workload(sf, sf_routing, workload, mapping=mapping, seed=0)

    result = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    benchmark.extra_info["fct_mean_ms"] = result.summary()["fct_mean"] * 1e3
