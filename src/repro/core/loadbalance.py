"""Load-balancing path selectors (paper §III-B, §V-F).

A *path selector* decides, for a flow and a point in time, which of the flow's candidate
paths (one per FatPaths layer, or the set of minimal paths for ECMP-style schemes) the
next batch of bytes travels on.  The selectors model the schemes compared in the paper:

* :class:`EcmpSelector` — static, flow-hash based: one path for the whole flow.
* :class:`FlowletSelector` — flowlet switching (LetFlow / FatPaths adaptivity): a new
  path is picked at every flowlet boundary, uniformly at random (LetFlow) or
  congestion- and length-aware (FatPaths: the receiver requests a layer change when it
  observes trimmed payloads, and flowlet elasticity sends more bytes over shorter,
  less congested paths).
* :class:`PacketSpraySelector` — oblivious spraying (NDP's default on Clos): a
  uniformly random candidate at every switch opportunity, ignoring load and length.
  A flow still travels one path at a time.  The flow-level simulators offer a switch
  at each flowlet boundary (64 KiB by default) and when the current path is
  congested; the packet-level ones at each flowlet boundary (8 packets by default)
  and on a NACK.

Selectors are deliberately simulator-agnostic: they only need the candidate paths and a
callable reporting current path congestion, so both the flow-level and the packet-level
simulator (and unit tests) drive them directly.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

#: Signature of the congestion oracle handed to selectors: path index -> load estimate
#: (0 = idle, 1 = fully utilised, >1 = oversubscribed).
CongestionOracle = Callable[[int], float]


def _fnv1a(value: int) -> int:
    """Fowler–Noll–Vo hash (the paper's ECMP hash), over the integer's 8 bytes."""
    data = int(value) & 0xFFFFFFFFFFFFFFFF
    h = 0xCBF29CE484222325
    for _ in range(8):
        h ^= data & 0xFF
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
        data >>= 8
    return h


class PathSelector(abc.ABC):
    """Interface: pick a candidate-path index for the next flowlet/packet batch."""

    #: False if :meth:`next_path` never moves a flow, so a simulator can skip
    #: evaluating switches for it altogether.
    reroutes: bool = True

    @abc.abstractmethod
    def initial_path(self, flow_id: int, num_paths: int,
                     path_lengths: Optional[Sequence[int]] = None) -> int:
        """Path used when the flow starts."""

    @abc.abstractmethod
    def next_path(self, flow_id: int, current: int, num_paths: int,
                  congestion: Optional[CongestionOracle] = None,
                  path_lengths: Optional[Sequence[int]] = None) -> int:
        """Path used after a flowlet boundary / congestion signal."""

    def next_path_batch(self, flow_ids: np.ndarray, currents: np.ndarray,
                        num_paths: np.ndarray, loads: np.ndarray,
                        path_lengths: np.ndarray) -> np.ndarray:
        """Batched :meth:`next_path` over many flows at once.

        ``loads`` and ``path_lengths`` are ``(flows, max_paths)`` float arrays padded
        with ``+inf`` beyond each flow's ``num_paths``; every row must have
        ``num_paths > 1`` (single-path flows never reach a selector in the reference
        simulator either).  Returns the new path index per flow.

        Contract (relied on by the vectorized simulation engine, and pinned by
        ``tests/core/test_loadbalance_transport_mapping.py``): the batch call consumes
        the selector's RNG stream *exactly* as the equivalent sequence of scalar
        :meth:`next_path` calls in row order would, so batch and sequential execution
        produce identical decisions.  The base implementation simply makes those
        scalar calls; subclasses override it with vectorized draws that preserve the
        consumption pattern (``Generator.integers`` with an array of bounds and
        ``Generator.random(k)`` consume the PCG stream element-by-element in order,
        which the selector test suite asserts).
        """
        out = np.empty(len(currents), dtype=np.int64)
        for row, (fid, current, n) in enumerate(zip(flow_ids, currents, num_paths)):
            row_loads = loads[row]
            out[row] = self.next_path(
                int(fid), int(current), int(n),
                congestion=lambda i, values=row_loads: float(values[i]),
                path_lengths=path_lengths[row, :int(n)])
        return out


@dataclass
class EcmpSelector(PathSelector):
    """Static flow-level hashing over the candidate paths (classic ECMP)."""

    seed: int = 0
    reroutes = False   # a class constant, not a dataclass field

    def initial_path(self, flow_id, num_paths, path_lengths=None):
        if num_paths < 1:
            raise ValueError("need at least one candidate path")
        return _fnv1a(flow_id ^ _fnv1a(self.seed)) % num_paths

    def next_path(self, flow_id, current, num_paths, congestion=None, path_lengths=None):
        # ECMP never re-routes a flow.
        return current

    def next_path_batch(self, flow_ids, currents, num_paths, loads, path_lengths):
        """Batched form: ECMP never re-routes, so the current indices come back."""
        return np.asarray(currents, dtype=np.int64).copy()


@dataclass
class FlowletSelector(PathSelector):
    """Flowlet switching over layers (LetFlow and the FatPaths adaptivity variant).

    ``adaptive=False`` reproduces LetFlow: a uniformly random path per flowlet.

    ``adaptive=True`` reproduces FatPaths' endpoint adaptivity and the elasticity of
    flowlets: a flow stays on (one of) the *shortest* candidate paths while that path
    is uncongested, and spills to longer, less-loaded layers only when the load on the
    preferred path exceeds ``congestion_threshold`` — "larger flowlets travel the short
    uncongested paths, smaller flowlets the longer congested ones".
    """

    seed: int = 0
    adaptive: bool = True
    congestion_threshold: float = 0.9

    def __post_init__(self) -> None:
        self._rng = np.random.default_rng(self.seed)
        # keyed by a candidate row's real lengths (a tuple, so int and float
        # lengths of equal value share an item): (lengths, shortest indices,
        # pools per congested index), one item per distinct row
        self._row_memo: dict = {}

    def _row(self, lengths: tuple) -> tuple:
        """The memo item of one candidate row's lengths."""
        got = self._row_memo.get(lengths)
        if got is None:
            best = min(lengths)
            got = (lengths, [i for i, length in enumerate(lengths) if length == best], {})
            self._row_memo[lengths] = got
        return got

    def _shortest_choice(self, num_paths: int, path_lengths: Optional[Sequence[int]],
                         mask: Optional[np.ndarray] = None) -> int:
        """A random path among the shortest candidates (optionally restricted by mask)."""
        if path_lengths is None:
            pool = np.arange(num_paths) if mask is None else np.flatnonzero(mask)
            return int(self._rng.choice(pool))
        lengths = np.asarray(path_lengths, dtype=float)[:num_paths]
        if mask is not None:
            lengths = np.where(mask, lengths, np.inf)
        shortest = np.flatnonzero(lengths == lengths.min())
        return int(self._rng.choice(shortest))

    def initial_path(self, flow_id, num_paths, path_lengths=None):
        if num_paths < 1:
            raise ValueError("need at least one candidate path")
        if self.adaptive:
            if path_lengths is None:
                return self._shortest_choice(num_paths, path_lengths)
            # the draw rng.choice(shortest) makes, with the shortest set memoised
            shortest = self._row(tuple(path_lengths[:num_paths]))[1]
            return shortest[self._rng.integers(0, len(shortest))]
        return int(self._rng.choice(num_paths, p=np.full(num_paths, 1.0 / num_paths)))

    def next_path(self, flow_id, current, num_paths, congestion=None, path_lengths=None):
        if num_paths <= 1:
            return current
        if self.adaptive:
            if congestion is None:
                return self._shortest_choice(num_paths, path_lengths)
            loads = np.array([congestion(i) for i in range(num_paths)])
            acceptable = loads < self.congestion_threshold
            if acceptable.any():
                # prefer the shortest path among the uncongested candidates
                return self._shortest_choice(num_paths, path_lengths, mask=acceptable)
            # everything congested: move to the least-loaded path
            least = np.flatnonzero(loads == loads.min())
            return int(self._rng.choice(least))
        return int(self._rng.choice(num_paths, p=np.full(num_paths, 1.0 / num_paths)))

    def next_path_batch(self, flow_ids, currents, num_paths, loads, path_lengths):
        """Vectorized flowlet switching with reference-identical RNG consumption.

        Each scalar :meth:`next_path` consumes exactly one RNG draw — a bounded
        integer over its candidate pool (adaptive) or one uniform double (the
        non-adaptive ``choice(..., p=...)``).  ``Generator.integers`` with an array
        of bounds and ``Generator.random(k)`` perform those draws element-by-element
        in row order, so the vectorized forms below replay the exact sequential
        stream.
        """
        if len(currents) == 1:
            return self._next_path_row(loads, path_lengths, num_paths, flow_ids,
                                       currents)
        if self.adaptive:
            # rows with an acceptable path pick uniformly among the shortest of
            # those; fully congested rows (shortest acceptable length +inf) pick
            # uniformly among the least loaded
            rows = np.arange(len(currents))
            masked = np.where(loads < self.congestion_threshold, path_lengths, np.inf)
            shortest = masked[rows, masked.argmin(axis=1)]
            pool = masked == shortest[:, None]
            if shortest[shortest.argmax()] == np.inf:
                least = loads[rows, loads.argmin(axis=1)]
                pool = np.where((shortest == np.inf)[:, None],
                                loads == least[:, None], pool)
            # the draw-th member of each row's pool, in column order
            member_rows, member_cols = pool.nonzero()
            sizes = np.bincount(member_rows, minlength=rows.size)
            draws = self._rng.integers(0, sizes)
            return member_cols[sizes.cumsum() - sizes + draws]
        # non-adaptive: choice(n, p=uniform) consumes one double per flow
        # and inverts the uniform CDF (searchsorted from the right = count of
        # partial sums <= u); padded columns carry weight 0 so the row CDF matches
        # the sequential n-element cumsum bit-for-bit and its padding sits at 1.0
        uniforms = self._rng.random(len(currents))
        counts = np.asarray(num_paths, dtype=np.int64)
        weights = np.where(np.arange(loads.shape[1]) < counts[:, None],
                           1.0 / counts[:, None], 0.0)
        cdf = np.cumsum(weights, axis=1)
        cdf /= cdf[:, -1][:, None]
        return (cdf <= uniforms[:, None]).sum(axis=1).astype(np.int64)

    def _next_path_row(self, loads, path_lengths, num_paths, flow_ids, currents):
        """Single-row fast path of :meth:`next_path_batch` (same draws, plain Python).

        The packet engine re-picks paths one flow at a time, so this hot shape
        skips the row-wise numpy machinery while consuming the identical RNG
        stream: one bounded-integer draw (adaptive) or one uniform double plus the
        sequential-cumsum CDF inversion (non-adaptive).  Only the row's
        first ``num_paths`` columns are read: the rest is ``+inf`` padding, never
        acceptable and never minimal, exactly as in the batched formulas.  The
        adaptive pools are memoised under the row's real lengths, so the memo
        holds one item per distinct candidate row however the caller pads it.
        """
        n = int(num_paths[0])
        if self.adaptive:
            lrow = np.asarray(loads)[0, :n].tolist()
            threshold = self.congestion_threshold
            acceptable = [load < threshold for load in lrow]
            got = self._row(tuple(np.asarray(path_lengths)[0, :n].tolist()))
            if False not in acceptable:
                # every path acceptable (the flowlet-boundary call): the pool is
                # the precomputed shortest set
                cands = got[1]
            elif True in acceptable:
                hot = acceptable.index(False)
                if False not in acceptable[hot + 1:]:
                    # exactly one congested path (the engine's one-hot NACK
                    # signal): pool memoised per congested index
                    pools = got[2]
                    cands = pools.get(hot)
                    if cands is None:
                        lens = got[0]
                        best = min(length for i, length in enumerate(lens) if i != hot)
                        cands = [i for i, length in enumerate(lens)
                                 if i != hot and length == best]
                        pools[hot] = cands
                else:
                    # prefer the shortest path among the uncongested candidates
                    lens = got[0]
                    best = min(length for length, ok in zip(lens, acceptable)
                               if ok)
                    cands = [i for i, (length, ok)
                             in enumerate(zip(lens, acceptable))
                             if ok and length == best]
            else:
                # everything congested: move to the least-loaded path
                least = min(lrow)
                cands = [i for i, load in enumerate(lrow) if load == least]
            draw = int(self._rng.integers(0, len(cands)))
            return np.array([cands[draw]], dtype=np.int64)
        uniform = float(self._rng.random(1)[0])
        weight = 1.0 / n
        acc = 0.0
        partials = []
        for _ in range(n):
            acc += weight
            partials.append(acc)
        total = acc
        index = 0
        for partial in partials:
            if partial / total <= uniform:
                index += 1
        return np.array([index], dtype=np.int64)


@dataclass
class PacketSpraySelector(PathSelector):
    """Oblivious load balancing (NDP on Clos): a uniformly random candidate at the
    flow's start and at each switch opportunity the simulator offers."""

    seed: int = 0

    def __post_init__(self) -> None:
        self._rng = np.random.default_rng(self.seed)

    def initial_path(self, flow_id, num_paths, path_lengths=None):
        if num_paths < 1:
            raise ValueError("need at least one candidate path")
        return int(self._rng.integers(num_paths))

    def next_path(self, flow_id, current, num_paths, congestion=None, path_lengths=None):
        return int(self._rng.integers(num_paths))

    def next_path_batch(self, flow_ids, currents, num_paths, loads, path_lengths):
        """Vectorized spraying: one bounded-integer draw per flow, in row order."""
        if len(currents) == 1:
            # single-row fast path (the packet engine's per-event shape): the
            # scalar draw consumes the stream exactly like a 1-element bound array
            return np.array([self._rng.integers(0, int(num_paths[0]))],
                            dtype=np.int64)
        return self._rng.integers(0, np.asarray(num_paths, dtype=np.int64))
