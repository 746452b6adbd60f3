"""The batched path-interference sample vs the one-tuple definition.

:func:`repro.diversity.interference.interference_distribution` runs a whole sample
as one batched disjoint-path call; :func:`path_interference` is the definition.
They must agree tuple for tuple on Figure 8's five families at l = 2..5, and bad
input must be refused before any kernel work.
"""

import numpy as np
import pytest

import repro.diversity.interference as interference
from repro.diversity.disjoint_paths import disjoint_path_distribution
from repro.diversity.interference import interference_distribution, path_interference
from repro.experiments import fig08_interference as fig08
from repro.topologies import SizeClass

#: Explicit tuples per (family, l).
TUPLES_PER_LENGTH = 16


@pytest.mark.parametrize("family", fig08.TOPOLOGY_NAMES)
def test_batch_matches_definition_on_fig08_families(family):
    topo = fig08._build(family, SizeClass.TINY, 0)
    rng = np.random.default_rng(11)
    for length in (2, 3, 4, 5):
        tuples = [tuple(int(x) for x in rng.choice(topo.endpoint_routers, size=4,
                                                   replace=False))
                  for _ in range(TUPLES_PER_LENGTH)]
        got = interference_distribution(topo, length, tuples=tuples)
        assert got.dtype == np.int64
        assert got.tolist() == [path_interference(topo, *t, max_len=length)
                                for t in tuples]


def test_sampled_tuples_follow_the_rng_stream(sf_tiny):
    """Sampling draws one ``rng.choice`` of four distinct routers per tuple."""
    values = interference_distribution(sf_tiny, 3, num_samples=12,
                                       rng=np.random.default_rng(5))
    replay = np.random.default_rng(5)
    tuples = [tuple(int(x) for x in replay.choice(np.asarray(sf_tiny.endpoint_routers),
                                                  size=4, replace=False))
              for _ in range(12)]
    assert values.tolist() == [path_interference(sf_tiny, *t, max_len=3) for t in tuples]


@pytest.mark.parametrize("num_samples", [0, -3])
def test_rejects_empty_samples(sf_tiny, num_samples):
    with pytest.raises(ValueError, match="num_samples"):
        interference_distribution(sf_tiny, 3, num_samples=num_samples)
    with pytest.raises(ValueError, match="num_samples"):
        disjoint_path_distribution(sf_tiny, 3, num_samples=num_samples)


@pytest.mark.parametrize("bad, match", [((4, 5, 6, 4), "distinct"),
                                        ((4, 5, 6, 50), "out of range")])
def test_checks_every_tuple_before_kernel_work(sf_tiny, monkeypatch, bad, match):
    def no_kernel(*args, **kwargs):
        raise AssertionError("kernel ran before the batch was validated")

    monkeypatch.setattr(interference, "batch_disjoint_paths", no_kernel)
    tuples = [(0, 1, 2, 3), (7, 8, 9, 10), bad]
    with pytest.raises(ValueError, match=match):
        interference_distribution(sf_tiny, 3, tuples=tuples)
