"""Route computation over a fabric graph.

PowerMANNA uses source routing: the sender prepends one route byte per
crossbar on the path, each naming that crossbar's output channel.  The
:class:`RouteTable` computes those bytes from the fabric's wiring graph
(a :class:`WiringGraph`, searched breadth first) and caches them.

Among equally short paths the searches pick one by a fixed visiting
order (insertion order of the graph's successor and predecessor maps),
so every route, and every figure built on it, is reproducible;
``tests/network/test_route_oracle.py`` pins that order to a reference
graph library's unweighted searches.
"""

from __future__ import annotations

from typing import (Callable, Dict, Hashable, Iterator, List, Optional, Set,
                    Tuple)

Edge = Tuple[Hashable, Hashable]


class _EdgeView:
    """``graph.edges``: iterates ``(u, v)`` in insertion order, and
    ``edges[u, v]`` is that edge's attribute dict."""

    def __init__(self, succ: Dict[Hashable, Dict[Hashable, dict]]):
        self._succ = succ

    def __iter__(self) -> Iterator[Edge]:
        for u, nbrs in self._succ.items():
            for v in nbrs:
                yield u, v

    def __getitem__(self, edge: Edge) -> dict:
        u, v = edge
        return self._succ[u][v]


class WiringGraph:
    """A directed wiring graph: crossbars and node interfaces as
    vertices, links as edges carrying port attributes.

    ``succ[u][v]`` and ``pred[v][u]`` share one attribute dict per edge.
    Vertices and edges keep insertion order, and re-adding an edge only
    updates its attributes.
    """

    def __init__(self) -> None:
        self.succ: Dict[Hashable, Dict[Hashable, dict]] = {}
        self.pred: Dict[Hashable, Dict[Hashable, dict]] = {}
        self.edges = _EdgeView(self.succ)

    def add_node(self, v: Hashable) -> None:
        if v not in self.succ:
            self.succ[v] = {}
            self.pred[v] = {}

    def add_edge(self, u: Hashable, v: Hashable, **attrs) -> None:
        self.add_node(u)
        self.add_node(v)
        data = self.succ[u].get(v, {})
        data.update(attrs)
        self.succ[u][v] = data
        self.pred[v][u] = data

    @property
    def nodes(self):
        return self.succ.keys()

    def __contains__(self, v: Hashable) -> bool:
        return v in self.succ

    def has_edge(self, u: Hashable, v: Hashable) -> bool:
        return v in self.succ.get(u, ())

    def successors(self, u: Hashable) -> Iterator[Hashable]:
        return iter(self.succ[u])

    def out_edges(self, u: Hashable, data: bool = False) -> Iterator:
        for v, attrs in self.succ[u].items():
            yield (u, v, attrs) if data else (u, v)

    def number_of_nodes(self) -> int:
        return len(self.succ)

    def number_of_edges(self) -> int:
        return sum(map(len, self.succ.values()))


VertexOk = Callable[[Hashable], bool]
EdgeOk = Callable[[Hashable, Hashable], bool]


def _meet(graph: WiringGraph, source: Hashable, target: Hashable,
          vertex_ok: VertexOk, edge_ok: EdgeOk):
    """Breadth first from both ends, a whole level at a time: grow the
    smaller fringe (the forward one on a tie) and stop at the first
    vertex both searches have reached.  Returns ``(pred, succ, meet)``,
    the two search trees and that vertex, or ``None``."""
    pred: Dict[Hashable, Optional[Hashable]] = {source: None}
    succ: Dict[Hashable, Optional[Hashable]] = {target: None}
    forward, reverse = [source], [target]
    while forward and reverse:
        if len(forward) <= len(reverse):
            level, forward = forward, []
            for v in level:
                for w in graph.succ[v]:
                    if vertex_ok(w) and edge_ok(v, w):
                        if w not in pred:
                            forward.append(w)
                            pred[w] = v
                        if w in succ:
                            return pred, succ, w
        else:
            level, reverse = reverse, []
            for v in level:
                for w in graph.pred[v]:
                    if vertex_ok(w) and edge_ok(w, v):
                        if w not in succ:
                            succ[w] = v
                            reverse.append(w)
                        if w in pred:
                            return pred, succ, w
    return None


def bidirectional_shortest_path(graph: WiringGraph, source: Hashable,
                                target: Hashable, vertex_ok: VertexOk,
                                edge_ok: EdgeOk) -> Optional[List[Hashable]]:
    """A shortest ``source`` -> ``target`` path over the vertices and
    edges the filters accept, or ``None`` if there is none (or either
    end is missing or rejected)."""
    for end in (source, target):
        if end not in graph.succ or not vertex_ok(end):
            return None
    if source == target:
        return [source]
    found = _meet(graph, source, target, vertex_ok, edge_ok)
    if found is None:
        return None
    pred, succ, w = found
    path: List[Hashable] = []
    while w is not None:
        path.append(w)
        w = pred[w]
    path.reverse()
    w = succ[path[-1]]
    while w is not None:
        path.append(w)
        w = succ[w]
    return path


def single_source_shortest_path(graph: WiringGraph, source: Hashable,
                                vertex_ok: VertexOk, edge_ok: EdgeOk
                                ) -> Dict[Hashable, List[Hashable]]:
    """Shortest paths from ``source`` to every vertex it reaches through
    accepted vertices and edges, found level by level in successor order.
    ``source`` itself is not filtered."""
    if source not in graph.succ:
        return {}
    paths = {source: [source]}
    level = [source]
    while level:
        next_level = []
        for v in level:
            for w in graph.succ[v]:
                if w not in paths and vertex_ok(w) and edge_ok(v, w):
                    paths[w] = paths[v] + [w]
                    next_level.append(w)
        level = next_level
    return paths


def shortest_path_lengths(graph: WiringGraph,
                          source: Hashable) -> Dict[Hashable, int]:
    """Hop count from ``source`` to every vertex it reaches."""
    lengths = {source: 0}
    level = [source]
    hops = 0
    while level:
        hops += 1
        next_level = []
        for v in level:
            for w in graph.succ[v]:
                if w not in lengths:
                    lengths[w] = hops
                    next_level.append(w)
        level = next_level
    return lengths


class NoRouteError(RuntimeError):
    """No path exists between the requested endpoints.

    Carries the endpoints and the failure state the search ran under
    (``src``/``dst``/``failed_edges``/``failed_vertices``), and the
    message summarises them — "no route" with no idea *why* is the least
    debuggable error a fault experiment can produce.
    """

    def __init__(self, message: str, src: Hashable = None,
                 dst: Hashable = None,
                 failed_edges: Optional[Set[Tuple[Hashable, Hashable]]] = None,
                 failed_vertices: Optional[Set[Hashable]] = None):
        super().__init__(message)
        self.src = src
        self.dst = dst
        self.failed_edges = set(failed_edges or ())
        self.failed_vertices = set(failed_vertices or ())


def _summarise(items: Set, limit: int = 4) -> str:
    shown = sorted(items, key=repr)[:limit]
    text = ", ".join(repr(item) for item in shown)
    more = len(items) - len(shown)
    return text + (f", ... {more} more" if more > 0 else "")


class RouteTable:
    """Shortest-path source routes over a wiring graph.

    Graph vertices are component keys (crossbars and node interfaces);
    every directed edge leaving a crossbar carries the ``out_port``
    attribute naming the output channel used.

    Fault awareness: failed edges/vertices are tracked *here* — callers
    report failures through :meth:`mark_edge_failed` /
    :meth:`mark_vertex_failed` rather than mutating the shared wiring
    graph — and every path computation avoids them, so marking a failure
    immediately reroutes all traffic that still has a surviving path.
    """

    def __init__(self, graph: WiringGraph):
        self.graph = graph
        self._cache: Dict[Tuple[Hashable, Hashable], List[int]] = {}
        self._path_cache: Dict[Tuple[Hashable, Hashable],
                               List[Hashable]] = {}
        self._failed_edges: Set[Tuple[Hashable, Hashable]] = set()
        self._failed_vertices: Set[Hashable] = set()
        #: Soft failures: edges the adaptive router wants avoided while
        #: their output port is congested.  They participate in the
        #: same liveness filter as failed edges but are owned by
        #: :meth:`set_congested_edges`, never by the fault API.
        self._congested_edges: Set[Tuple[Hashable, Hashable]] = set()
        #: Bumped on every invalidation; protocols compare it to detect
        #: that routes may have moved under them.
        self.version = 0
        #: Shortest-path searches actually run (cache misses); tests use
        #: it to prove the memo works and is dropped on invalidation.
        self.searches = 0

    def route_bytes(self, src: Hashable, dst: Hashable) -> List[int]:
        """Route-command bytes for a message from ``src`` to ``dst``.

        One byte per crossbar on the path, in traversal order.
        """
        key = (src, dst)
        cached = self._cache.get(key)
        if cached is not None:
            return list(cached)
        path = self.path(src, dst)
        route: List[int] = []
        for here, there in zip(path, path[1:]):
            if not self._is_crossbar(here):
                continue
            out_port = self.graph.edges[here, there].get("out_port")
            if out_port is None:
                raise NoRouteError(
                    f"edge {here} -> {there} lacks an out_port attribute")
            route.append(out_port)
        self._cache[key] = route
        return list(route)

    def path(self, src: Hashable, dst: Hashable) -> List[Hashable]:
        """The component path (src, crossbars..., dst).

        Intermediate hops are restricted to crossbars: a wormhole cannot
        pass *through* another node's link interface (that would be a
        software relay, which the hardware route bytes cannot express).

        Memoised until :meth:`invalidate` (which every ``mark_*_failed``
        and :meth:`clear_failures` calls), so repeated measurements over
        a large fabric pay one search per pair per failure epoch.
        """
        key = (src, dst)
        cached = self._path_cache.get(key)
        if cached is not None:
            return list(cached)

        def allowed(vertex: Hashable) -> bool:
            if vertex in self._failed_vertices:
                return False
            return self._is_crossbar(vertex) or vertex in (src, dst)

        self.searches += 1
        path = bidirectional_shortest_path(self.graph, src, dst, allowed,
                                           self._edge_alive)
        if path is None:
            detail = ""
            if self._failed_edges:
                detail += (f" with {len(self._failed_edges)} failed "
                           f"edge(s): {_summarise(self._failed_edges)}")
            if self._failed_vertices:
                joiner = " and" if detail else " with"
                detail += (f"{joiner} {len(self._failed_vertices)} failed "
                           f"vertex(es): "
                           f"{_summarise(self._failed_vertices)}")
            if not detail:
                detail = " (no failures marked; the graph never had one)"
            raise NoRouteError(
                f"no route from {src} to {dst}{detail}",
                src=src, dst=dst, failed_edges=self._failed_edges,
                failed_vertices=self._failed_vertices)
        self._path_cache[key] = path
        return list(path)

    def crossbars_on_path(self, src: Hashable, dst: Hashable) -> int:
        """How many crossbars a connection traverses (the paper's metric:
        at most three in the 256-processor system)."""
        return sum(1 for hop in self.path(src, dst) if self._is_crossbar(hop))

    def network_diameter_crossbars(self, endpoints: List[Hashable]) -> int:
        """Worst-case crossbar count over all endpoint pairs.

        Raises :class:`NoRouteError` if any pair is unreachable without a
        software relay.  For speed this sweep allows other endpoints as
        intermediate vertices; on the hierarchical topologies a node-transit
        path is always longer than the direct crossbar path, so the result
        is exact there (use :meth:`crossbars_on_path` for strict per-pair
        answers).
        """
        worst = 0
        crossbars = {v for v in self.graph.nodes if self._is_crossbar(v)}
        allowed = (crossbars | set(endpoints)) - self._failed_vertices
        for src in endpoints:
            paths = single_source_shortest_path(
                self.graph, src, allowed.__contains__, self._edge_alive)
            for dst in endpoints:
                if dst == src:
                    continue
                path = paths.get(dst)
                if path is None:
                    raise NoRouteError(f"no route from {src} to {dst}")
                hops = sum(1 for hop in path if self._is_crossbar(hop))
                worst = max(worst, hops)
        return worst

    def reachable_fraction(self, endpoints: List[Hashable]) -> float:
        """Fraction of ordered pairs connectable without a software relay."""
        total = reachable = 0
        for src in endpoints:
            for dst in endpoints:
                if src == dst:
                    continue
                total += 1
                try:
                    self.path(src, dst)
                    reachable += 1
                except NoRouteError:
                    pass
        return reachable / total if total else 1.0

    @staticmethod
    def _is_crossbar(key: Hashable) -> bool:
        return isinstance(key, tuple) and len(key) >= 1 and key[0] == "xbar"

    # -- failure reporting -------------------------------------------------

    def _edge_alive(self, u: Hashable, v: Hashable) -> bool:
        return ((u, v) not in self._failed_edges
                and (u, v) not in self._congested_edges)

    def mark_edge_failed(self, u: Hashable, v: Hashable) -> None:
        """Report a directed wiring edge as dead; future routes avoid it."""
        if not self.graph.has_edge(u, v):
            raise KeyError(f"no wiring edge {u} -> {v} to fail")
        self._failed_edges.add((u, v))
        self.invalidate()

    def mark_vertex_failed(self, vertex: Hashable) -> None:
        """Report a component (crossbar or endpoint) as dead."""
        if vertex not in self.graph:
            raise KeyError(f"no wiring vertex {vertex} to fail")
        self._failed_vertices.add(vertex)
        self.invalidate()

    def clear_failures(self) -> None:
        """Forget all reported failures (component repaired/replaced)."""
        self._failed_edges.clear()
        self._failed_vertices.clear()
        self.invalidate()

    def set_congested_edges(self,
                            edges: Set[Tuple[Hashable, Hashable]]) -> bool:
        """Replace the congested-edge set (soft failures).

        Invalidates the route/path memo only when the set actually
        changes, so an adaptive router re-asserting the same verdict
        between scans costs nothing.  Returns whether it changed.
        """
        edges = set(edges)
        if edges == self._congested_edges:
            return False
        self._congested_edges = edges
        self.invalidate()
        return True

    @property
    def congested_edges(self) -> Set[Tuple[Hashable, Hashable]]:
        return set(self._congested_edges)

    @property
    def failed_edges(self) -> Set[Tuple[Hashable, Hashable]]:
        return set(self._failed_edges)

    @property
    def failed_vertices(self) -> Set[Hashable]:
        return set(self._failed_vertices)

    def invalidate(self) -> None:
        """Drop cached routes (and bump :attr:`version`) so the next
        :meth:`route_bytes` recomputes against current failure state."""
        self._cache.clear()
        self._path_cache.clear()
        self.version += 1
