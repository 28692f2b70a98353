"""Zero vertex weights: coarsening rates their edges +inf without a warning.

The expansion*² rating divides by the endpoint weight product, clamped
to the smallest positive float, so an edge at a zero-weight vertex
overflows to +inf.  The overflow is intended; it must not surface as a
``RuntimeWarning`` (an error under ``python -W error``) from any
pipeline that coarsens.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.coarsen.matching import _edge_rating
from repro.core import ScalaPartConfig, run_parallel
from repro.core.scalapart import scalapart
from repro.graph import CSRGraph
from repro.graph.generators import random_delaunay

FAST = ScalaPartConfig(coarsest_iters=50, smooth_iters=5)


@pytest.fixture(scope="module")
def half_zero():
    """A 600-vertex mesh whose vertices 0–299 weigh nothing."""
    g = random_delaunay(600, seed=3).graph
    vwgt = np.ones(g.num_vertices)
    vwgt[:300] = 0.0
    return CSRGraph(g.indptr, g.indices, g.ewgt, vwgt)


def test_zero_weight_edges_rate_inf_silently(half_zero):
    # weight 4, as after two contractions: w² / tiny overflows
    g = half_zero
    src = g.edge_sources()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = _edge_rating(src, g.indices, 4.0 * g.ewgt, g.vwgt, np.uint64(1))
    zero = (g.vwgt[src] == 0) | (g.vwgt[g.indices] == 0)
    assert zero.any()
    assert np.isposinf(r[zero]).all()
    assert np.isfinite(r[~zero]).all()


@pytest.mark.parametrize("run", [
    lambda g: scalapart(g, config=FAST, seed=1),
    lambda g: run_parallel("ScalaPart", g, 4, config=FAST, seed=1),
    lambda g: run_parallel("KWay-Geometric", g, 4, k=8, config=FAST, seed=1),
], ids=["seq-scalapart", "sim-scalapart-p4", "sim-kway-geometric-k8"])
def test_pipelines_raise_no_warning(half_zero, run):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = run(half_zero)
    assert res.parts.shape == (half_zero.num_vertices,)
