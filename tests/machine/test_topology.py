"""Unit tests for interconnect topologies."""

import networkx as nx
import pytest

from repro.machine import Complete, Hypercube, Line, Mesh2D, Ring, Torus2D
from repro.machine.topology import GraphTopology
from repro.util.errors import ValidationError


def test_complete_hops():
    t = Complete(5)
    assert t.hops(0, 0) == 0
    assert t.hops(0, 4) == 1
    assert t.diameter() == 1


def test_line_hops():
    t = Line(6)
    assert t.hops(0, 5) == 5
    assert t.hops(3, 3) == 0
    assert t.neighbors(0) == [1]
    assert t.neighbors(3) == [2, 4]


def test_ring_wraps():
    t = Ring(8)
    assert t.hops(0, 7) == 1
    assert t.hops(0, 4) == 4
    assert t.diameter() == 4


def test_mesh2d_manhattan():
    t = Mesh2D(3, 4)
    assert t.n_procs == 12
    assert t.hops(t.rank_of(0, 0), t.rank_of(2, 3)) == 5
    assert t.coords(7) == (1, 3)


def test_torus2d_wraps_both_dims():
    t = Torus2D(4, 4)
    assert t.hops(t.rank_of(0, 0), t.rank_of(3, 3)) == 2
    assert t.hops(t.rank_of(0, 0), t.rank_of(2, 2)) == 4


def test_hypercube_popcount():
    t = Hypercube(3)
    assert t.n_procs == 8
    assert t.hops(0b000, 0b111) == 3
    assert t.hops(0b101, 0b100) == 1
    assert sorted(t.neighbors(0)) == [1, 2, 4]


def test_hypercube_for_procs_rounds_up():
    assert Hypercube.for_procs(5).n_procs == 8
    assert Hypercube.for_procs(8).n_procs == 8
    assert Hypercube.for_procs(1).n_procs == 1


def test_graph_topology_shortest_paths():
    g = nx.path_graph(4)
    t = GraphTopology(g)
    assert t.hops(0, 3) == 3
    assert t.neighbors(1) == [0, 2]


def test_graph_topology_rejects_disconnected():
    g = nx.Graph()
    g.add_nodes_from(range(4))
    g.add_edge(0, 1)
    g.add_edge(2, 3)
    with pytest.raises(ValidationError):
        GraphTopology(g)


def test_rank_bounds_checked():
    t = Ring(4)
    with pytest.raises(ValidationError):
        t.hops(0, 4)
    with pytest.raises(ValidationError):
        t.hops(-1, 0)


def test_mesh_coords_validated():
    t = Mesh2D(2, 2)
    with pytest.raises(ValidationError):
        t.rank_of(2, 0)


def test_import_repro_does_not_load_networkx():
    """GraphTopology takes an already-built graph and walks it itself:
    importing the package must not pay for networkx."""
    import os
    import subprocess
    import sys

    import repro

    src = os.path.dirname(os.path.dirname(repro.__file__))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro; print('networkx' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "False"
