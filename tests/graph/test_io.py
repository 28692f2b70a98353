"""Unit tests for graph file I/O."""

import io

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph import CSRGraph
from repro.graph.generators import grid2d, random_delaunay
from repro.graph.io import (
    read_coords,
    read_edgelist,
    read_metis,
    write_coords,
    write_edgelist,
    write_metis,
)
from tests.oracles.metis import read_metis_reference


class TestMetis:
    def roundtrip(self, g, **kw):
        buf = io.StringIO()
        write_metis(g, buf, **kw)
        buf.seek(0)
        return read_metis(buf)

    def test_roundtrip_plain(self):
        g = grid2d(5, 4).graph
        assert self.roundtrip(g) == g

    def test_roundtrip_weights(self):
        g = CSRGraph.from_edges(
            4,
            np.array([[0, 1], [1, 2], [2, 3]]),
            np.array([2.0, 3.0, 4.0]),
            vwgt=np.array([1.0, 2.0, 3.0, 4.0]),
        )
        g2 = self.roundtrip(g, vertex_weights=True, edge_weights=True)
        assert g2 == g

    def test_read_reference_format(self):
        # the example graph from the METIS manual (7 vertices, 11 edges)
        text = """\
% comment line
7 11
5 3 2
1 3 4
5 4 2 1
2 3 6 7
1 3 6
5 4 7
6 4
"""
        g = read_metis(io.StringIO(text))
        assert g.num_vertices == 7
        assert g.num_edges == 11
        assert sorted(g.neighbors(0).tolist()) == [1, 2, 4]

    def test_read_rejects_bad_edge_count(self):
        text = "2 5\n2\n1\n"
        with pytest.raises(GraphError):
            read_metis(io.StringIO(text))

    def test_read_rejects_missing_lines(self):
        with pytest.raises(GraphError):
            read_metis(io.StringIO("3 1\n2\n1\n"))

    @pytest.mark.parametrize("header", [
        "-3 2",        # negative n
        "3 -2",        # negative m
        "x 2",         # non-integer n
        "3 2.5",       # non-integer m
        "3 2 7",       # fmt digit other than 0/1
        "3 2 x",       # non-numeric fmt
        "3 2 0011",    # fmt longer than three digits
        "3 2 0 -1",    # negative ncon
        "3 2 0 y",     # non-integer ncon
        "3 2 0 1 junk",  # a field past ncon
        "3 2 0 1 1",     # five numeric fields
    ])
    def test_read_rejects_malformed_header(self, header):
        with pytest.raises(GraphError) as exc:
            read_metis(io.StringIO(header + "\n2\n1 3\n2\n"))
        assert repr(header) in str(exc.value)

    def test_read_empty_file(self):
        with pytest.raises(GraphError):
            read_metis(io.StringIO(""))

    def test_file_path_roundtrip(self, tmp_path):
        g = random_delaunay(80, seed=1).graph
        p = tmp_path / "g.graph"
        write_metis(g, p)
        assert read_metis(p) == g


class TestMetisStreaming:
    """The chunked streaming reader: parity with the pre-streaming
    reference at every chunk boundary, and the trailing-blank fix."""

    def _text(self, g, **kw):
        buf = io.StringIO()
        write_metis(g, buf, **kw)
        return buf.getvalue()

    @pytest.mark.parametrize("chunk_lines", [1, 3, 64, 65536])
    def test_chunk_boundaries_match_reference(self, chunk_lines):
        g = random_delaunay(150, seed=2).graph
        for kw in (
            {},
            {"vertex_weights": True},
            {"edge_weights": True},
            {"vertex_weights": True, "edge_weights": True},
        ):
            text = self._text(g, **kw)
            got = read_metis(io.StringIO(text), chunk_lines=chunk_lines)
            ref = read_metis_reference(io.StringIO(text))
            assert got == ref

    def test_accepts_trailing_blanks_and_comments(self):
        # the old strict len(lines)-1 != n check only survived trailing
        # blanks because it pre-stripped them; the streaming reader must
        # accept blanks and comments anywhere after the last vertex line
        text = "3 2\n2\n1 3\n2\n\n   \n% trailing comment\n\n"
        g = read_metis(io.StringIO(text))
        assert g.num_vertices == 3
        assert g.num_edges == 2

    def test_interior_comments_and_blanks(self):
        # comments are skipped anywhere and blanks before the header;
        # a blank vertex line is a vertex with no neighbours
        text = "% head\n\n4 2\n2\n% mid\n1 4\n\n2\n"
        g = read_metis(io.StringIO(text))
        assert sorted(g.neighbors(1).tolist()) == [0, 3]
        assert g.neighbors(2).tolist() == []
        assert g.neighbors(3).tolist() == [1]

    @pytest.mark.parametrize("chunk_lines", [1, 3, 65536])
    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_isolated_vertex_round_trips(self, chunk_lines, where):
        # a 6-vertex path with one vertex left out of it
        iso = {"first": 0, "middle": 3, "last": 6}[where]
        path = [v for v in range(7) if v != iso]
        g = CSRGraph.from_edges(7, np.column_stack([path[:-1], path[1:]]))
        for kw in ({}, {"vertex_weights": True}, {"edge_weights": True}):
            text = self._text(g, **kw)
            got = read_metis(io.StringIO(text), chunk_lines=chunk_lines)
            assert got == g
            assert got.neighbors(iso).tolist() == []

    def test_two_vertex_edge_plus_isolated_vertex(self):
        g = CSRGraph.from_edges(3, [[0, 1]])
        assert read_metis(io.StringIO(self._text(g))) == g

    def test_rejects_extra_vertex_lines(self):
        with pytest.raises(GraphError):
            read_metis(io.StringIO("2 1\n2\n1\n1\n"))

    def test_rejects_out_of_range_neighbor(self):
        with pytest.raises(GraphError):
            read_metis(io.StringIO("2 1\n3\n1\n"))

    def test_rejects_non_numeric_token(self):
        with pytest.raises(GraphError):
            read_metis(io.StringIO("2 1\n2\nx\n"))

    def test_rejects_fractional_neighbor_id(self):
        with pytest.raises(GraphError):
            read_metis(io.StringIO("2 1\n2\n1.5\n"))

    def test_rejects_bad_chunk_lines(self):
        with pytest.raises(GraphError):
            read_metis(io.StringIO("1 0\n\n"), chunk_lines=0)

    def test_no_neighbors_vertex_weight_only(self):
        # fmt=10 line with just the weight: counts as a vertex line
        text = "2 0 10\n5\n7\n"
        g = read_metis(io.StringIO(text))
        assert g.num_edges == 0
        assert g.vwgt.tolist() == [5.0, 7.0]


class TestEdgeList:
    def test_roundtrip(self):
        g = grid2d(4, 4).graph
        buf = io.StringIO()
        write_edgelist(g, buf)
        buf.seek(0)
        assert read_edgelist(buf, n=16) == g

    def test_comments_and_weights(self):
        text = "# header\n0 1 2.5\n1 2 1.0\n"
        g = read_edgelist(io.StringIO(text))
        assert g.num_vertices == 3
        assert g.total_edge_weight == pytest.approx(3.5)

    def test_empty(self):
        g = read_edgelist(io.StringIO(""), n=4)
        assert g.num_vertices == 4
        assert g.num_edges == 0


class TestCoords:
    def test_roundtrip(self, tmp_path):
        coords = np.random.default_rng(0).random((10, 2))
        p = tmp_path / "c.xy"
        write_coords(coords, p)
        back = read_coords(p)
        assert np.allclose(coords, back)

    def test_empty(self):
        assert read_coords(io.StringIO("")).shape == (0, 2)
