"""Cluster topologies and presets."""

from .presets import (
    Cluster,
    all_clusters,
    get_cluster,
    make_fc,
    make_pc,
    make_tacc,
    make_tc,
)
from .topology import (
    CLOUD_NET,
    INTER_NODE,
    NVLINK2,
    NVLINK3,
    PCIE4,
    LinkClass,
    Topology,
    ring_transfer_chain,
)

__all__ = [
    "CLOUD_NET",
    "INTER_NODE",
    "NVLINK2",
    "NVLINK3",
    "PCIE4",
    "Cluster",
    "LinkClass",
    "Topology",
    "all_clusters",
    "get_cluster",
    "make_fc",
    "make_pc",
    "make_tacc",
    "make_tc",
    "ring_transfer_chain",
]
