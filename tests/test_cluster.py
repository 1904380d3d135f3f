"""Topology graphs, cluster presets, and the cluster cost oracle."""

import random

import pytest

from repro.cluster import (
    INTER_NODE,
    NVLINK3,
    PCIE4,
    LinkClass,
    Topology,
    all_clusters,
    get_cluster,
    make_fc,
    make_pc,
    make_tacc,
    make_tc,
    ring_transfer_chain,
)
from repro.cluster.topology import NVLINK2
from repro.errors import ConfigError
from repro.models import A100_40G, bert_64, stage_costs
from repro.runtime import ClusterCosts


class TestLinkClass:
    def test_alpha_beta(self):
        link = LinkClass("x", bandwidth=1e9, latency=1e-6)
        assert link.transfer_time(1e9) == pytest.approx(1.0 + 1e-6)

    def test_negative_bytes(self):
        with pytest.raises(ConfigError):
            NVLINK3.transfer_time(-1)


class TestTopology:
    def test_direct_link_preferred(self):
        t = Topology("t", 3)
        t.add_link(0, 1, NVLINK3)
        t.add_link(1, 2, NVLINK3)
        t.add_link(0, 2, PCIE4)
        assert t.effective_link(0, 2).name == PCIE4.name

    def test_multihop_bottleneck(self):
        t = Topology("t", 3)
        t.add_link(0, 1, NVLINK3)
        t.add_link(1, 2, PCIE4)
        eff = t.effective_link(0, 2)
        assert eff.bandwidth == PCIE4.bandwidth
        assert eff.latency == pytest.approx(NVLINK3.latency + PCIE4.latency)

    def test_fastest_link_kept_on_duplicate(self):
        t = Topology("t", 2)
        t.add_link(0, 1, PCIE4)
        t.add_link(0, 1, NVLINK3)
        assert t.link_between(0, 1).name == NVLINK3.name

    def test_self_transfer_free(self):
        t = Topology("t", 2)
        t.add_link(0, 1, NVLINK3)
        assert t.transfer_time(1, 1, 1e6) == 0.0

    def test_self_link_rejected(self):
        t = Topology("t", 2)
        with pytest.raises(ConfigError):
            t.add_link(1, 1, NVLINK3)

    def test_out_of_range_link(self):
        t = Topology("t", 2)
        with pytest.raises(ConfigError):
            t.add_link(0, 5, NVLINK3)

    def test_disconnected_raises(self):
        t = Topology("t", 3)
        t.add_link(0, 1, NVLINK3)
        with pytest.raises(ConfigError, match="no route"):
            t.effective_link(0, 2)


    def test_out_of_range_route_is_a_config_error(self):
        t = Topology("t", 2)
        t.add_link(0, 1, NVLINK3)
        with pytest.raises(ConfigError, match="outside device range"):
            t.effective_link(0, 7)

    def test_is_connected(self):
        t = Topology("t", 4)
        t.add_link(0, 1, NVLINK3)
        t.add_link(2, 3, NVLINK3)
        assert not t.is_connected()
        t.add_link(1, 2, PCIE4)
        assert t.is_connected()
        assert Topology("one", 1).is_connected()
        assert t.neighbors(1) == [0, 2]
        assert t.links() == [(0, 1, NVLINK3), (1, 2, PCIE4), (2, 3, NVLINK3)]
        assert "links=3" in repr(t)


class TestLinkMemo:
    """``effective_link`` answers each rank pair once per topology;
    declaring a link forgets the answers."""

    @pytest.mark.parametrize("factory", [make_fc, make_pc, make_tacc, make_tc])
    def test_memoized_links_equal_a_fresh_topology(self, factory):
        for n in (8, 16):
            topo = factory(n).topology
            for a in range(n):
                for b in range(n):
                    if a == b:
                        continue
                    memoized = topo.effective_link(a, b)
                    assert topo.effective_link(a, b) is memoized
                    assert memoized == \
                        factory(n).topology.effective_link(a, b)

    def test_a_routed_pair_is_searched_once(self, monkeypatch):
        searches = []
        route = Topology._route
        monkeypatch.setattr(Topology, "_route", lambda self, a, b: (
            searches.append((a, b)) or route(self, a, b)))
        t = Topology("t", 3)
        t.add_link(0, 1, NVLINK3)
        t.add_link(1, 2, PCIE4)
        for _ in range(3):
            t.effective_link(0, 2)
            t.effective_link(0, 1)
        assert searches == [(0, 2)]

    def test_a_link_added_after_a_query_changes_its_answer(self):
        t = Topology("t", 3)
        t.add_link(0, 1, NVLINK3)
        t.add_link(1, 2, PCIE4)
        routed = t.effective_link(0, 2)
        assert routed.bandwidth == PCIE4.bandwidth
        t.add_link(0, 2, NVLINK2)
        assert t.effective_link(0, 2) == NVLINK2


class TestRoutingParity:
    """Route choice feeds committed results, so the in-house search must
    pick — tie for tie — the path ``networkx.shortest_path`` picked when
    the topology was an ``nx.Graph``."""

    @staticmethod
    def reference(monkeypatch):
        """Mirror every ``add_link`` into the ``nx.Graph`` the old
        implementation would have built, and route on that."""
        nx = pytest.importorskip("networkx")
        graphs = {}     # keyed by the topology itself: no id() reuse
        add_link = Topology.add_link

        def recording(self, a, b, link):
            add_link(self, a, b, link)
            if self not in graphs:
                graphs[self] = nx.Graph()
                graphs[self].add_nodes_from(range(self.num_devices))
            old = graphs[self].get_edge_data(a, b)
            if old is None or old["link"].bandwidth < link.bandwidth:
                graphs[self].add_edge(a, b, link=link,
                                      weight=1.0 / link.bandwidth)

        monkeypatch.setattr(Topology, "add_link", recording)

        def effective(topo, a, b):
            graph = graphs[topo]
            if graph.get_edge_data(a, b) is not None:
                link = graph[a][b]["link"]
                return link.bandwidth, link.latency, 1
            try:
                path = nx.shortest_path(graph, a, b, weight="weight")
            except nx.NetworkXNoPath:
                return None
            links = [graph[u][v]["link"] for u, v in zip(path, path[1:])]
            return (min(l.bandwidth for l in links),
                    sum(l.latency for l in links), len(links))

        return effective

    @staticmethod
    def ours(topo, a, b):
        try:
            link = topo.effective_link(a, b)
        except ConfigError:
            return None
        hops = (int(link.name[:-1].rsplit("x", 1)[1])
                if link.name.startswith("path(") else 1)
        return link.bandwidth, link.latency, hops

    @pytest.mark.parametrize("factory", [make_fc, make_pc, make_tacc, make_tc])
    def test_presets_every_pair(self, factory, monkeypatch):
        reference = self.reference(monkeypatch)
        for n in range(2, 33):
            if factory is make_pc and n % 2:
                continue
            topo = factory(n).topology
            for a in range(n):
                for b in range(n):
                    if a != b:
                        assert self.ours(topo, a, b) == \
                            reference(topo, a, b), (n, a, b)

    def test_sparse_graphs_with_equal_cost_routes(self, monkeypatch):
        """Two NVLink3 hops weigh exactly one NVLink2 hop, and most
        links share a class: ties everywhere, multi-hop everywhere."""
        reference = self.reference(monkeypatch)
        rng = random.Random(20230916)
        classes = [NVLINK3, NVLINK3, NVLINK2, PCIE4, INTER_NODE]
        multihop = 0
        for _ in range(80):
            n = rng.randint(4, 12)
            topo = Topology("rand", n)
            for _ in range(rng.randint(n - 2, 2 * n)):
                a, b = rng.sample(range(n), 2)
                topo.add_link(a, b, rng.choice(classes))
            for a in range(n):
                for b in range(n):
                    if a == b:
                        continue
                    got = self.ours(topo, a, b)
                    assert got == reference(topo, a, b), (topo.links(), a, b)
                    multihop += got is not None and got[2] > 1
            assert topo.is_connected() == all(
                self.ours(topo, 0, b) is not None for b in range(1, n))
        assert multihop > 1000


class TestPresets:
    @pytest.mark.parametrize("factory", [make_fc, make_pc, make_tacc, make_tc])
    def test_connected(self, factory):
        cluster = factory(8)
        assert cluster.topology.is_connected()
        assert cluster.num_devices == 8

    def test_fc_uniform_nvlink(self):
        fc = make_fc(8)
        for b in range(1, 8):
            assert fc.topology.link_between(0, b).name == NVLINK3.name

    def test_pc_pairs_faster_than_cross(self):
        pc = make_pc(8)
        paired = pc.topology.transfer_time(0, 1, 1e7)
        cross = pc.topology.transfer_time(0, 2, 1e7)
        assert paired < cross

    def test_pc_odd_devices_rejected(self):
        with pytest.raises(ConfigError):
            make_pc(7)

    def test_tacc_cross_node_slowest(self):
        tacc = make_tacc(6)  # 2 nodes of 3 GPUs
        intra = tacc.topology.transfer_time(0, 2, 1e7)
        inter = tacc.topology.transfer_time(2, 3, 1e7)
        assert inter > intra
        assert tacc.node_of(2) == 0 and tacc.node_of(3) == 1

    def test_ordering_across_clusters(self):
        """FC fastest; PC's unpaired hop slower; TACC's cross-node worst."""
        n = 1e7
        fc = make_fc(8).topology.transfer_time(3, 4, n)
        pc = make_pc(8).topology.transfer_time(3, 4, n)       # PCIe hop
        tacc = make_tacc(8).topology.transfer_time(2, 3, n)   # cross-node
        assert fc < pc < tacc

    def test_get_cluster_lookup(self):
        assert get_cluster("tacc", 8).name == "TACC"
        with pytest.raises(ConfigError, match="unknown cluster"):
            get_cluster("nope")

    def test_all_clusters_order(self):
        names = [c.name for c in all_clusters(8)]
        assert names == ["PC", "FC", "TACC", "TC"]

    def test_known_clusters_are_the_presets(self):
        """``config.KNOWN_CLUSTERS`` — what the CLI and the request
        decoder accept — names exactly the presets ``get_cluster``
        builds, in the paper's order."""
        from repro.cluster.presets import _FACTORIES
        from repro.config import KNOWN_CLUSTERS

        assert set(_FACTORIES) == set(KNOWN_CLUSTERS)
        assert [c.name for c in all_clusters(8)] == list(KNOWN_CLUSTERS)
        for name in KNOWN_CLUSTERS:
            assert get_cluster(name.lower(), 4).name == name


class TestClusterCosts:
    """The one cluster oracle: the model's stage seconds, and links,
    rings and ranks routed on the cluster's topology."""

    SC = stage_costs(bert_64(), 4, A100_40G)

    def test_link_is_the_topology_route(self):
        oracle = ClusterCosts(self.SC, make_pc(4))
        for (a, b), link in {(0, 1): NVLINK3, (0, 2): PCIE4}.items():
            assert oracle.link(a, b) == (
                link.transfer_time(self.SC.boundary_bytes), link.latency)

    def test_cross_node_link_is_slower(self):
        oracle = ClusterCosts(self.SC, make_tacc(6))
        in_node, across = oracle.link(0, 1), oracle.link(0, 3)
        assert in_node[0] < across[0]
        assert across[1] == INTER_NODE.latency

    def test_rank_map_spaces_by_tp(self):
        for tp in (1, 2):
            oracle = ClusterCosts(self.SC, make_fc(8), tp=tp)
            assert [oracle.global_rank(d) for d in range(4)] == [
                0, tp, 2 * tp, 3 * tp]

    def test_stage_tables_are_the_models_seconds(self):
        oracle = ClusterCosts(self.SC, make_fc(4))
        assert oracle.stage_durations() == (self.SC.forward,
                                            self.SC.backward)
        assert oracle.tensor_nbytes(3) == self.SC.boundary_bytes

    def test_collective_link_time_routes_the_topology(self):
        cluster = make_tacc(6)
        oracle = ClusterCosts(self.SC, cluster)
        assert oracle.collective_link_time(0, 4, 1e6) == (
            cluster.topology.transfer_time(0, 4, 1e6))
        assert oracle.collective_link_time(2, 2, 1e6) == 0.0


class TestRingTransfer:
    def test_single_rank_free(self):
        topo = make_fc(4).topology
        assert ring_transfer_chain(topo, [0], 1e9) == 0.0

    def test_grows_with_ring_size(self):
        topo = make_fc(8).topology
        two = ring_transfer_chain(topo, [0, 1], 1e9)
        four = ring_transfer_chain(topo, [0, 1, 2, 3], 1e9)
        assert two < four
