"""Device interconnect topology.

A :class:`Topology` is an undirected multigraph of devices where each
edge carries a :class:`LinkClass` (NVLink generation, PCIe, inter-node
fabric).  Communication cost between two ranks is resolved by the best
link class on the shortest path — a deliberate simplification of NCCL
ring construction that preserves the ordering the paper relies on:
NVLink pairs ≫ PCIe ≫ cross-node.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush

from ..errors import ConfigError


@dataclass(frozen=True)
class LinkClass:
    """A class of interconnect with an alpha-beta cost model."""

    name: str
    bandwidth: float   # bytes / second, effective
    latency: float     # seconds per message

    def transfer_time(self, nbytes: float) -> float:
        if nbytes < 0:
            raise ConfigError(f"negative transfer size {nbytes}")
        return self.latency + nbytes / self.bandwidth


# Effective (not peak) bandwidths under training congestion; see
# DESIGN.md §6.  The inter-node figure reflects a shared, contended NIC
# per 3-GPU Lonestar6 node, not the fabric's line rate.
NVLINK3 = LinkClass("nvlink3", 200e9, 5e-6)
NVLINK2 = LinkClass("nvlink2", 100e9, 8e-6)
PCIE4 = LinkClass("pcie4", 6e9, 15e-6)
INTER_NODE = LinkClass("ib-shared", 1.5e9, 25e-6)
CLOUD_NET = LinkClass("cloud-vpc", 2.5e9, 30e-6)


class Topology:
    """Interconnect graph over ``num_devices`` ranks."""

    def __init__(self, name: str, num_devices: int):
        if num_devices < 1:
            raise ConfigError("num_devices must be >= 1")
        self.name = name
        self.num_devices = num_devices
        #: rank -> {neighbour -> link}, both ways, in declaration order
        #: (which breaks routing ties; see ``_route``)
        self._adj: dict[int, dict[int, LinkClass]] = {
            rank: {} for rank in range(num_devices)}
        #: :meth:`effective_link` per rank pair; ``add_link`` clears it
        self._effective: dict[tuple[int, int], LinkClass] = {}

    def add_link(self, a: int, b: int, link: LinkClass) -> None:
        if not (0 <= a < self.num_devices and 0 <= b < self.num_devices):
            raise ConfigError(f"link ({a},{b}) outside device range")
        if a == b:
            raise ConfigError("self links are implicit (zero cost)")
        existing = self._adj[a].get(b)
        # Keep the fastest link if several are declared between a pair.
        if existing is None or existing.bandwidth < link.bandwidth:
            self._adj[a][b] = self._adj[b][a] = link
            self._effective.clear()

    def link_between(self, a: int, b: int) -> LinkClass | None:
        """Direct link between two ranks, if any."""
        return self._adj.get(a, {}).get(b)

    def effective_link(self, a: int, b: int) -> LinkClass:
        """Link class governing a transfer from ``a`` to ``b``.

        Direct edge if present; otherwise the bottleneck (slowest) link
        along the bandwidth-shortest path, with per-hop latency summed.
        Same-rank transfers are free and must be filtered by callers.
        Memoized per pair, so a routed pair runs its search once.
        """
        found = self._effective.get((a, b))
        if found is not None:
            return found
        if a == b:
            raise ConfigError("effective_link called for a self transfer")
        found = self.link_between(a, b)
        if found is None:
            path = self._route(a, b)
            hops = [self._adj[u][v] for u, v in zip(path, path[1:])]
            bottleneck = min(hops, key=lambda l: l.bandwidth)
            found = LinkClass(
                name=f"path({bottleneck.name}x{len(hops)})",
                bandwidth=bottleneck.bandwidth,
                latency=sum(l.latency for l in hops),
            )
        self._effective[a, b] = found
        return found

    def _route(self, a: int, b: int) -> list[int]:
        """The ``1 / bandwidth``-shortest rank path from ``a`` to ``b``.

        Bidirectional Dijkstra — one expansion from each end in turn,
        heap ties broken by push order, neighbours relaxed in declaration
        order — step for step the search ``networkx.shortest_path`` ran
        when this was an ``nx.Graph``: *which* of several equally short
        routes wins decides the bottleneck link and the latency sum, and
        those are hashed into committed results (parity is pinned in
        ``tests/test_cluster.py``).
        """
        if a not in self._adj or b not in self._adj:
            raise ConfigError(
                f"{self.name}: route ({a},{b}) outside device range")
        done: tuple[dict, dict] = ({}, {})        # settled distances
        seen: tuple[dict, dict] = ({a: 0.0}, {b: 0.0})
        preds: tuple[dict, dict] = ({a: None}, {b: None})
        fringe: tuple[list, list] = ([(0.0, 0, a)], [(0.0, 1, b)])
        pushes, best, meet, side = 2, None, None, 1
        while fringe[0] and fringe[1]:
            side = 1 - side
            dist, _, v = heappop(fringe[side])
            if v in done[side]:
                continue
            done[side][v] = dist
            if v in done[1 - side]:
                return (_chain(preds[0], meet)[::-1]
                        + _chain(preds[1], preds[1][meet]))
            for w, link in self._adj[v].items():
                through = dist + 1.0 / link.bandwidth
                if w not in done[side] and through < seen[side].get(
                        w, float("inf")):
                    seen[side][w] = through
                    heappush(fringe[side], (through, pushes, w))
                    pushes += 1
                    preds[side][w] = v
                    if w in seen[1 - side]:
                        total = through + seen[1 - side][w]
                        if best is None or total < best:
                            best, meet = total, w
        raise ConfigError(f"{self.name}: no route between {a} and {b}")

    def transfer_time(self, a: int, b: int, nbytes: float) -> float:
        if a == b:
            return 0.0
        return self.effective_link(a, b).transfer_time(nbytes)

    def links(self) -> list[tuple[int, int, LinkClass]]:
        """All declared links as sorted ``(low_rank, high_rank, link)``
        triples — a canonical, order-independent dump used by cache
        fingerprinting and debugging."""
        return sorted(
            (a, b, link)
            for a, peers in self._adj.items()
            for b, link in peers.items() if a < b
        )

    def is_connected(self) -> bool:
        reached = {0}
        frontier = [0]
        while frontier:
            for peer in self._adj[frontier.pop()]:
                if peer not in reached:
                    reached.add(peer)
                    frontier.append(peer)
        return len(reached) == self.num_devices

    def neighbors(self, rank: int) -> list[int]:
        return sorted(self._adj[rank])

    def __repr__(self) -> str:
        links = sum(len(peers) for peers in self._adj.values()) // 2
        return (f"Topology({self.name!r}, devices={self.num_devices}, "
                f"links={links})")


def _chain(preds: dict, node) -> list[int]:
    """``node`` and its predecessors, back to the search root."""
    out = []
    while node is not None:
        out.append(node)
        node = preds[node]
    return out


def ring_transfer_chain(topology: Topology, ranks: list[int], nbytes: float) -> float:
    """Time for a chain of P2P transfers along consecutive rank pairs.

    Used by the data-parallel all-reduce model: a ring all-reduce of
    ``nbytes`` over ``len(ranks)`` devices costs ``2*(n-1)/n * nbytes``
    over the slowest link in the ring.
    """
    n = len(ranks)
    if n < 2:
        return 0.0
    slowest = max(
        topology.effective_link(a, b).transfer_time(nbytes / n)
        for a, b in zip(ranks, ranks[1:] + ranks[:1])
    )
    return 2 * (n - 1) * slowest
