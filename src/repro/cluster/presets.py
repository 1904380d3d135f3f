"""The four evaluation clusters from Section 5 of the paper.

* ``TACC``  — Lonestar6: 3x A100-40G per node (GPU0 on socket 0, GPU1/2
  on socket 1), no NVLink, nodes joined by InfiniBand.  Represents
  supercomputers with modest intra-node GPU connectivity.
* ``TC``    — Tencent GN10Xp cloud node: 8x V100-32G with NVLink
  (V100 hybrid-cube-mesh), nodes joined by cloud 25G networking.
* ``PC``    — local server: 8x A100-80G, NVLink only within pairs
  (0-1, 2-3, 4-5, 6-7), PCIe otherwise.
* ``FC``    — local server: 8x A100-80G fully connected via NVSwitch.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from ..config import KNOWN_CLUSTERS
from ..errors import ConfigError
from ..models.costs import A100_40G, A100_80G, V100_32G, DeviceModel
from .topology import (
    CLOUD_NET,
    INTER_NODE,
    NVLINK2,
    NVLINK3,
    PCIE4,
    LinkClass,
    Topology,
)


@dataclass(frozen=True)
class Cluster:
    """A named cluster: device model + interconnect topology."""

    name: str
    device: DeviceModel
    topology: Topology
    gpus_per_node: int

    @property
    def num_devices(self) -> int:
        return self.topology.num_devices

    def node_of(self, rank: int) -> int:
        return rank // self.gpus_per_node

    def describe(self) -> str:
        return (f"{self.name}: {self.num_devices}x {self.device.name}, "
                f"{self.gpus_per_node}/node")


def _fully_connected(name: str, n: int, link: LinkClass) -> Topology:
    topo = Topology(name, n)
    for a in range(n):
        for b in range(a + 1, n):
            topo.add_link(a, b, link)
    return topo


def make_fc(num_devices: int = 8) -> Cluster:
    """Local cluster, A100-80G fully connected with NVLink (NVSwitch)."""
    topo = _fully_connected("FC", num_devices, NVLINK3)
    return Cluster("FC", A100_80G, topo, gpus_per_node=num_devices)


def make_pc(num_devices: int = 8) -> Cluster:
    """Local cluster, A100-80G with NVLink pairs, PCIe elsewhere."""
    if num_devices % 2:
        raise ConfigError("PC cluster pairs GPUs; device count must be even")
    topo = Topology("PC", num_devices)
    for a in range(0, num_devices, 2):
        topo.add_link(a, a + 1, NVLINK3)
    for a in range(num_devices):
        for b in range(a + 1, num_devices):
            if topo.link_between(a, b) is None:
                topo.add_link(a, b, PCIE4)
    return Cluster("PC", A100_80G, topo, gpus_per_node=num_devices)


def make_tc(num_devices: int = 8) -> Cluster:
    """Tencent GN10Xp cloud node(s): V100-32G, NVLink hybrid cube mesh.

    We model the V100 DGX-style mesh as NVLink2 between all GPUs of a
    node (the cube-mesh gives every pair a <=2-hop NVLink path) and
    cloud networking across nodes.
    """
    per_node = 8
    topo = Topology("TC", num_devices)
    for a in range(num_devices):
        for b in range(a + 1, num_devices):
            if a // per_node == b // per_node:
                topo.add_link(a, b, NVLINK2)
            else:
                topo.add_link(a, b, CLOUD_NET)
    return Cluster("TC", V100_32G, topo, gpus_per_node=per_node)


def make_tacc(num_devices: int = 8) -> Cluster:
    """TACC Lonestar6 GPU nodes: 3x A100-40G per node, no NVLink.

    GPU 0 sits on socket 0 while GPUs 1 and 2 share socket 1, so the
    0-1 and 0-2 hops cross the socket interconnect; we fold that into
    the PCIe link class.  Everything across nodes rides InfiniBand.
    """
    per_node = 3
    topo = Topology("TACC", num_devices)
    for a in range(num_devices):
        for b in range(a + 1, num_devices):
            link = PCIE4 if a // per_node == b // per_node else INTER_NODE
            topo.add_link(a, b, link)
    return Cluster("TACC", A100_40G, topo, gpus_per_node=per_node)


_FACTORIES = {
    "FC": make_fc,
    "PC": make_pc,
    "TC": make_tc,
    "TACC": make_tacc,
}


def get_cluster(name: str, num_devices: int = 8) -> Cluster:
    """Look up one of the paper's four clusters by name.

    One shared instance per ``(name, num_devices)``: a
    :class:`Topology` hashes by identity, so a fresh cluster per call
    would miss every cost binding keyed on it (a server would re-time
    and retain a plan per query).  Presets are never mutated.
    """
    key = name.upper()
    if key not in _FACTORIES:
        raise ConfigError(
            f"unknown cluster {name!r}; expected one of {list(KNOWN_CLUSTERS)}"
        )
    return _shared_cluster(key, num_devices)


@functools.lru_cache(maxsize=64)
def _shared_cluster(key: str, num_devices: int) -> Cluster:
    return _FACTORIES[key](num_devices)


def all_clusters(num_devices: int = 8) -> list[Cluster]:
    """The four evaluation clusters, in the paper's presentation order."""
    return [make_pc(num_devices), make_fc(num_devices),
            make_tacc(num_devices), make_tc(num_devices)]
