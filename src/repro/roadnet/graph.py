"""Synthetic road-network substrate (paper Appendix D substitution).

The paper maps GPS datasets onto OSM road networks with RoutingKit and
evaluates NetERP / NetEDR / SURS over network distances. Neither the data
nor RoutingKit is available offline, so we build the closest synthetic
equivalent: a jittered grid road network with perturbed edge weights and
Dijkstra shortest-path distances (cached per source). Trajectories on it are
node or edge sequences, such as random walks — exercising exactly the same
code paths (graph-distance-backed WED cost models over node/edge sequences).
"""
from __future__ import annotations

import heapq

import numpy as np


class RoadNetwork:
    """Grid road network: ``width × height`` nodes, 4-neighbour edges.

    Node ids are ``y * width + x`` on a 1 km grid. Coordinates carry
    deterministic jitter; edge weights are Euclidean length × a
    perturbation in [1, 1.5) so shortest paths are not trivially Manhattan.
    """

    def __init__(self, width: int = 12, height: int = 12, *, seed: int = 7):
        self.width, self.height = width, height
        self.n_nodes = width * height
        rng = np.random.default_rng(seed)
        xs, ys = np.meshgrid(np.arange(width), np.arange(height))
        jitter = rng.uniform(-0.2, 0.2, size=(self.n_nodes, 2))
        self.coords = np.column_stack([xs.ravel(), ys.ravel()]).astype(np.float64) + jitter
        self.adj: list[list[tuple[int, float]]] = [[] for _ in range(self.n_nodes)]
        self.edges: list[tuple[int, int, float]] = []
        for y in range(height):
            for x in range(width):
                u = y * width + x
                for nx, ny in ((x + 1, y), (x, y + 1)):
                    if nx < width and ny < height:
                        v = ny * width + nx
                        w = float(
                            np.linalg.norm(self.coords[u] - self.coords[v])
                            * rng.uniform(1.0, 1.5)
                        )
                        self.adj[u].append((v, w))
                        self.adj[v].append((u, w))
                        self.edges.append((u, v, w))
        self._dist_cache: dict[int, np.ndarray] = {}

    def dijkstra(self, src: int) -> np.ndarray:
        """All shortest-path distances from ``src`` (cached)."""
        if src in self._dist_cache:
            return self._dist_cache[src]
        dist = np.full(self.n_nodes, np.inf)
        dist[src] = 0.0
        heap = [(0.0, src)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            for v, w in self.adj[u]:
                nd = d + w
                if nd < dist[v]:
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
        self._dist_cache[src] = dist
        return dist

    def dist_matrix(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """Pairwise network distances, shape ``(len(us), len(vs))``."""
        return np.stack([self.dijkstra(int(u))[np.asarray(vs, dtype=int)] for u in us])

    def edge_weights(self) -> np.ndarray:
        return np.asarray([w for _, _, w in self.edges])
