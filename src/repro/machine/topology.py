"""Interconnect topologies for the simulated multicomputer.

A topology only has to answer two questions for the simulator: how many
processors exist, and how many link hops separate two of them.  Closed
forms are used for the standard topologies; :class:`GraphTopology` falls
back to breadth-first hop counts over an arbitrary interconnect graph.
"""

from __future__ import annotations

from functools import lru_cache

from repro.util.errors import ValidationError


class Topology:
    """Abstract interconnect: ``n_procs`` nodes with a hop metric."""

    n_procs: int

    def hops(self, src: int, dst: int) -> int:
        """Number of link hops between ``src`` and ``dst``."""
        raise NotImplementedError

    def check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.n_procs:
            raise ValidationError(
                f"rank {rank} out of range for {type(self).__name__}({self.n_procs})"
            )

    def neighbors(self, rank: int) -> list[int]:
        """Ranks directly connected to ``rank`` (hops == 1)."""
        self.check_rank(rank)
        return [q for q in range(self.n_procs) if q != rank and self.hops(rank, q) == 1]

    def diameter(self) -> int:
        """Maximum hop distance over all processor pairs."""
        return max(
            self.hops(a, b) for a in range(self.n_procs) for b in range(self.n_procs)
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(n_procs={self.n_procs})"


class Complete(Topology):
    """Crossbar: every pair of distinct processors is one hop apart."""

    def __init__(self, n_procs: int):
        if n_procs <= 0:
            raise ValidationError("n_procs must be positive")
        self.n_procs = n_procs

    def hops(self, src: int, dst: int) -> int:
        self.check_rank(src)
        self.check_rank(dst)
        return 0 if src == dst else 1


class Line(Topology):
    """Open 1-D chain of processors."""

    def __init__(self, n_procs: int):
        if n_procs <= 0:
            raise ValidationError("n_procs must be positive")
        self.n_procs = n_procs

    def hops(self, src: int, dst: int) -> int:
        self.check_rank(src)
        self.check_rank(dst)
        return abs(src - dst)


class Ring(Topology):
    """Closed 1-D ring of processors."""

    def __init__(self, n_procs: int):
        if n_procs <= 0:
            raise ValidationError("n_procs must be positive")
        self.n_procs = n_procs

    def hops(self, src: int, dst: int) -> int:
        self.check_rank(src)
        self.check_rank(dst)
        d = abs(src - dst)
        return min(d, self.n_procs - d)


class Mesh2D(Topology):
    """Open 2-D mesh; ranks are row-major over ``rows x cols``."""

    def __init__(self, rows: int, cols: int):
        if rows <= 0 or cols <= 0:
            raise ValidationError("mesh dimensions must be positive")
        self.rows = rows
        self.cols = cols
        self.n_procs = rows * cols

    def coords(self, rank: int) -> tuple[int, int]:
        self.check_rank(rank)
        return divmod(rank, self.cols)

    def rank_of(self, r: int, c: int) -> int:
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            raise ValidationError(f"coords ({r},{c}) outside {self.rows}x{self.cols}")
        return r * self.cols + c

    def hops(self, src: int, dst: int) -> int:
        (r1, c1), (r2, c2) = self.coords(src), self.coords(dst)
        return abs(r1 - r2) + abs(c1 - c2)


class Torus2D(Mesh2D):
    """2-D mesh with wraparound links in both dimensions."""

    def hops(self, src: int, dst: int) -> int:
        (r1, c1), (r2, c2) = self.coords(src), self.coords(dst)
        dr = abs(r1 - r2)
        dc = abs(c1 - c2)
        return min(dr, self.rows - dr) + min(dc, self.cols - dc)


class Hypercube(Topology):
    """Binary hypercube of dimension ``dim`` (2**dim processors).

    This is the canonical 1989 interconnect; the substructured solver's
    shuffle mapping keeps every reduction-step exchange at one hop here.
    """

    def __init__(self, dim: int):
        if dim < 0:
            raise ValidationError("hypercube dimension must be >= 0")
        self.dim = dim
        self.n_procs = 1 << dim

    def hops(self, src: int, dst: int) -> int:
        self.check_rank(src)
        self.check_rank(dst)
        return (src ^ dst).bit_count()

    @staticmethod
    def for_procs(n_procs: int) -> "Hypercube":
        """Smallest hypercube holding ``n_procs`` processors."""
        if n_procs <= 0:
            raise ValidationError("n_procs must be positive")
        dim = (n_procs - 1).bit_length()
        return Hypercube(dim)


class GraphTopology(Topology):
    """Arbitrary interconnect given as a graph over ranks 0..n-1.

    Any undirected graph object with ``number_of_nodes()``, ``nodes``
    and ``neighbors(u)`` will do -- a networkx ``Graph``, typically.  The
    package itself never imports networkx: hop counts are one
    breadth-first search per source rank.
    """

    def __init__(self, graph):
        n = graph.number_of_nodes()
        if n == 0:
            raise ValidationError("topology graph is empty")
        if set(graph.nodes) != set(range(n)):
            raise ValidationError("graph nodes must be exactly range(n)")
        self.n_procs = n
        self._graph = graph
        if len(self._dist_from(0)) != n:
            raise ValidationError("topology graph must be connected")

    @lru_cache(maxsize=None)
    def _dist_from(self, src: int) -> dict[int, int]:
        dist, frontier, step = {src: 0}, [src], 0
        while frontier:
            step += 1
            nxt = []
            for u in frontier:
                for v in self._graph.neighbors(u):
                    if v not in dist:
                        dist[v] = step
                        nxt.append(v)
            frontier = nxt
        return dist

    def hops(self, src: int, dst: int) -> int:
        self.check_rank(src)
        self.check_rank(dst)
        return self._dist_from(src)[dst]

    def neighbors(self, rank: int) -> list[int]:
        self.check_rank(rank)
        return sorted(self._graph.neighbors(rank))
