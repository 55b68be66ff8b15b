"""Road-network substrate + Net* cost models (paper Appendix D)."""
from __future__ import annotations

import numpy as np
import pytest

from repro.core.cma import cma
from repro.roadnet.graph import RoadNetwork
from repro.roadnet.netcosts import netedr_costs, neterp_costs, surs_costs
from repro.search.api import build_pair_costs
from tests.helpers import brute_force_best, full_distance, random_walk, walk_edges


@pytest.fixture(scope="module")
def net() -> RoadNetwork:
    return RoadNetwork(8, 8, seed=7)


def test_graph_shape_and_determinism(net):
    assert net.n_nodes == 64
    assert len(net.edges) == 2 * 8 * 7
    again = RoadNetwork(8, 8, seed=7)
    assert np.allclose(net.coords, again.coords)
    assert net.edges == again.edges


def test_dijkstra_identity_symmetry_triangle(net):
    rng = np.random.default_rng(0)
    for _ in range(10):
        u, v, w = (int(x) for x in rng.integers(0, net.n_nodes, 3))
        assert net.dijkstra(u)[u] == 0.0
        assert net.dijkstra(u)[v] == pytest.approx(net.dijkstra(v)[u])
        assert net.dijkstra(u)[w] <= net.dijkstra(u)[v] + net.dijkstra(v)[w] + 1e-9


def test_dijkstra_vs_bruteforce_bellman_ford(net):
    """Independent reference: Bellman–Ford from one source."""
    src = 5
    dist = np.full(net.n_nodes, np.inf)
    dist[src] = 0.0
    for _ in range(net.n_nodes):
        for u in range(net.n_nodes):
            for v, w in net.adj[u]:
                if dist[u] + w < dist[v]:
                    dist[v] = dist[u] + w
    assert np.allclose(net.dijkstra(src), dist)


def test_dist_matrix_matches_pointwise(net):
    us = np.array([0, 10, 20])
    vs = np.array([3, 30])
    M = net.dist_matrix(us, vs)
    for i, u in enumerate(us):
        for j, v in enumerate(vs):
            assert M[i, j] == pytest.approx(net.dijkstra(int(u))[int(v)])


def test_random_walk_is_connected_path(net):
    rng = np.random.default_rng(1)
    walk = random_walk(net, 30, rng)
    assert len(walk) == 30
    nbrs = [set(v for v, _ in net.adj[u]) for u in range(net.n_nodes)]
    for a, b in zip(walk[:-1], walk[1:]):
        assert int(b) in nbrs[int(a)]


def test_walk_edges_roundtrip(net):
    rng = np.random.default_rng(2)
    walk = random_walk(net, 12, rng)
    eids = walk_edges(net, walk)
    assert len(eids) == 11
    for (a, b), eid in zip(zip(walk[:-1], walk[1:]), eids):
        u, v, _ = net.edges[int(eid)]
        assert {int(a), int(b)} == {u, v}


@pytest.mark.parametrize("distance", ["NetERP", "NetEDR", "SURS"])
@pytest.mark.parametrize("seed", range(6))
def test_cma_exact_on_network_distances(net, distance, seed):
    """Net* are WED special cases: CMA must stay exact on them (App. D)."""
    rng = np.random.default_rng(seed)
    qw = random_walk(net, int(rng.integers(2, 6)), rng)
    dw = random_walk(net, int(rng.integers(4, 10)), rng)
    if distance == "SURS":
        q, d = walk_edges(net, qw), walk_edges(net, dw)
    else:
        q, d = qw, dw
    costs = build_pair_costs(distance, q, d, graph=net)
    got = cma("wed", costs)
    ref = brute_force_best("wed", costs)
    assert got[0] == pytest.approx(ref[0])


def test_netedr_unit_structure(net):
    q = np.array([1, 2, 3])
    d = np.array([3, 2, 1])
    c = netedr_costs(net, q, d)
    assert np.all(c.delete == 1) and np.all(c.insert == 1)
    assert c.sub[0, 2] == 0 and c.sub[1, 1] == 0 and c.sub[0, 0] == 1


def test_neterp_costs_use_network_distance(net):
    q = np.array([0, 9])
    d = np.array([5])
    c = neterp_costs(net, q, d, ref=0)
    assert c.sub[0, 0] == pytest.approx(net.dijkstra(0)[5])
    assert c.delete[0] == 0.0  # q[0] is the reference node
    assert c.insert[0] == pytest.approx(net.dijkstra(5)[0])


def test_surs_costs_edge_weights(net):
    w = net.edge_weights()
    q = np.array([0, 1])
    d = np.array([1, 2])
    c = surs_costs(net, q, d)
    assert c.sub[1, 0] == 0.0  # identical edge ⇒ free replacement
    assert c.sub[0, 1] == pytest.approx(w[0] + w[2])
    assert c.delete[0] == pytest.approx(w[0])
    assert c.insert[1] == pytest.approx(w[2])


def test_identical_walk_has_zero_distance_subtrajectory(net):
    rng = np.random.default_rng(9)
    dw = random_walk(net, 20, rng)
    qw = dw[5:11]
    for distance in ("NetERP", "NetEDR"):
        costs = build_pair_costs(distance, qw, dw, graph=net)
        dist, s, e = cma("wed", costs)
        assert dist == pytest.approx(0.0)
        # The returned window really is a zero-cost match.
        assert full_distance("wed", costs[:, s : e + 1]) == pytest.approx(0.0)
