"""Fixtures shared by the test modules."""
import pytest

from branelab import jets
from branelab.embeddings import Geometry


def dense(j):
    """Every coefficient of the jet ``j`` in slot order, each absent slot
    read through `Jet.coefficient` (zeros of the value's shape)."""
    return [j.coefficient(a) for a in jets._tables(j.nvars, j.order, j.eps)[0]]


def _rotated_normals_copy(geom, theta):
    """Copy of a codimension-2 geometry with its normal frame rotated by
    theta, a scalar jet on the same parameters or a constant."""
    assert geom.codim == 2
    n = geom.normals
    c, s = jets.cos(theta), jets.sin(theta)
    new = Geometry(geom.background, geom.X, params=geom.params,
                   embedding=geom.embedding)
    # every reader of the frame, at any order, reads a prefix of this one
    new._held["normal_frame"] = jets.jet_stack(
        [c * n[0] - s * n[1], s * n[0] + c * n[1]], template=geom.X)
    return new


@pytest.fixture
def rotated_normals_copy():
    return _rotated_normals_copy
