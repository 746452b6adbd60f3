"""A deterministic call budget for the flow engine's event loop.

Wall time cannot guard the event loop on a shared VM whose speed drifts by up to
1.7x, but the number of Python-level calls per event repeats exactly across runs
and hash seeds.  The test runs one fixed stream under :mod:`cProfile` and counts
only the calls whose caller is a frame of the ``repro`` package, so numpy's own
Python wrappers, which differ across numpy versions, do not move the count.
Calls into comprehensions and generator expressions are not counted either:
Python 3.12 inlines list, dict and set comprehensions (PEP 709), so counting
them would make the count depend on the interpreter version.

The stream: Slim Fly at tiny scale, the fatpaths stack, the generator
``default_rng([0, 0])``, 300 pushes of two flows each, ``StreamConfig(window=0.001)``
— 1,200 events.  The loop issued 132.7 such calls per event before the candidate
table, the one-sweep switch scan and the live-entry fill, and 100.0 with them
(CPython 3.11, numpy 2.4); the ceiling leaves 10% of headroom over that.  Since
faulted and unfaulted switching share one sweep method and every allocator fills
through ``fairshare.leveled_fill`` (which also records saturation rounds), the
count is 102.5: one more frame per event for the sweep, two allocations per fill.
Measured again on the same interpreter, that code read 103.0.  Fill rounds that
retire links with ``np.putmask`` and freeze flows through ``ndarray.compress``,
and a sweep that subsets rows by ``nonzero`` and ``take``, issue calls where the
operator forms they replaced issued none, but they cut the time per event: the
count is 105.2.
"""

import cProfile
import os
import pstats

import numpy as np

import repro
from repro.experiments.simcommon import build_stack
from repro.sim.stream import StreamConfig, StreamSimulator
from repro.topologies import configs
from repro.traffic.patterns import random_permutation
from repro.traffic.streams import poisson_flow_stream

#: Ceiling on the calls issued from ``repro`` frames per event.
CALLS_PER_EVENT = 110

PACKAGE_DIR = os.path.dirname(repro.__file__)


#: Code objects that are not calls on every supported interpreter.
INLINED = ("<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>")


def _calls_from_package(profile: cProfile.Profile) -> int:
    """Calls whose caller is a frame of the ``repro`` package."""
    total = 0
    for (_, _, name), (*_, callers) in pstats.Stats(profile).stats.items():
        if name in INLINED:
            continue
        for caller, (calls, *_) in callers.items():
            if caller[0].startswith(PACKAGE_DIR):
                total += calls
    return total


def test_event_loop_call_budget():
    topology = configs.build("SF", "tiny")
    rng = np.random.default_rng([0, 0])
    pattern = random_permutation(topology.num_endpoints, rng).subsample(0.5, rng)
    flows = list(poisson_flow_stream(pattern, 400.0, rng=rng, max_flows=600))
    # a fresh routing: the count must not depend on caches other tests warmed
    stack = build_stack(topology, "fatpaths", seed=0, routing_cache={})
    service = StreamSimulator(topology, stack.routing, selector=stack.selector,
                              transport=stack.transport, seed=0,
                              stream_config=StreamConfig(window=0.001))
    batches = [flows[i:i + 2] for i in range(0, len(flows), 2)]
    profile = cProfile.Profile()
    profile.enable()
    for i, batch in enumerate(batches):
        service.push(batch)
        if i + 1 < len(batches):
            service.advance(batches[i + 1][0].start_time, inclusive=False)
        else:
            service.finish()
    profile.disable()
    events = service.summary()["events"]
    assert events == 1200
    per_event = _calls_from_package(profile) / events
    assert per_event <= CALLS_PER_EVENT, \
        f"{per_event:.1f} calls from repro frames per event (ceiling {CALLS_PER_EVENT})"
