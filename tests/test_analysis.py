"""Tests for principal-component projection and cluster checks."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import spnpb
from spnpb.analysis import (
    cluster_distances,
    linearly_separable,
    nearest_row,
    pca_project,
)


def test_two_points_project_onto_connecting_line():
    res = pca_project([[0.0, 0.0], [2.0, 2.0]])
    assert_allclose(res.components[0], [1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-12)
    assert_allclose(res.explained, [1.0, 0.0], atol=1e-12)
    assert_allclose(res.projected[:, 0], [-np.sqrt(2), np.sqrt(2)], atol=1e-12)
    # second coordinate carries no variance
    assert_allclose(res.projected[:, 1], 0.0, atol=1e-12)


def test_axis_aligned_data_recovers_axes_in_variance_order():
    # x-variance 5, y-variance 0.25, zero covariance by construction
    pts = np.array([[-3.0, 0.5], [-1.0, -0.5], [1.0, -0.5], [3.0, 0.5]])
    res = pca_project(pts)
    assert_allclose(np.abs(res.components[0]), [1.0, 0.0], atol=1e-12)
    assert_allclose(np.abs(res.components[1]), [0.0, 1.0], atol=1e-12)
    assert_allclose(res.explained, [5.0 / 5.25, 0.25 / 5.25], rtol=1e-12)


def test_components_are_orthonormal_and_ordered():
    rng = np.random.default_rng(7)
    pts = rng.normal(size=(40, 5)) * np.array([3.0, 1.0, 0.5, 0.2, 0.1])
    res = pca_project(pts)
    gram = res.components @ res.components.T
    assert_allclose(gram, np.eye(2), atol=1e-10)
    assert res.explained[0] >= res.explained[1] >= 0.0
    assert res.explained.sum() <= 1.0 + 1e-12


def test_sign_convention_largest_entry_positive():
    rng = np.random.default_rng(11)
    pts = rng.normal(size=(25, 3))
    res = pca_project(pts)
    for row in res.components:
        assert row[np.argmax(np.abs(row))] > 0


def test_planar_projection_preserves_distances():
    # for 2-d input the projection is a pure rotation of centered points
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(12, 2))
    res = pca_project(pts)
    centered = pts - pts.mean(axis=0)
    assert_allclose(
        np.linalg.norm(res.projected, axis=1),
        np.linalg.norm(centered, axis=1),
        rtol=1e-12,
    )


def test_pca_rejects_degenerate_input():
    with pytest.raises(ValueError):
        pca_project([[1.0, 2.0]])
    with pytest.raises(ValueError):
        pca_project([[1.0], [2.0]])


def test_separable_clusters_are_detected():
    a = [[0.0, 0.0], [0.0, 1.0], [0.5, 0.5]]
    b = [[5.0, 0.0], [5.0, 1.0], [4.5, 0.5]]
    assert linearly_separable(a, b)
    assert linearly_separable(b, a)


def test_xor_configuration_is_not_separable():
    a = [[0.0, 0.0], [1.0, 1.0]]
    b = [[0.0, 1.0], [1.0, 0.0]]
    assert not linearly_separable(a, b)


def test_point_inside_hull_is_not_separable():
    a = [[0.5, 0.5]]
    b = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
    assert not linearly_separable(a, b)


def test_one_dimensional_points_separate_on_a_threshold():
    assert linearly_separable([[0.0], [1.0]], [[3.0], [4.0]])
    assert not linearly_separable([[0.0], [2.0]], [[1.0]])


def test_separability_rejects_empty_sets():
    with pytest.raises(ValueError):
        linearly_separable([], [[1.0, 2.0]])
    with pytest.raises(ValueError):
        linearly_separable([[1.0, 2.0]], [])


def test_cluster_distances_hand_oracle():
    pts = [[0.0, 0.0], [0.0, 1.0], [10.0, 0.0], [10.0, 1.0]]
    labels = ["a", "a", "b", "b"]
    intra, inter = cluster_distances(pts, labels)
    assert_allclose(intra, 1.0, rtol=1e-14)
    assert_allclose(inter, (20.0 + 2.0 * np.sqrt(101.0)) / 4.0, rtol=1e-14)


def test_cluster_distances_require_both_kinds_of_pair():
    with pytest.raises(ValueError):
        cluster_distances([[0.0, 0.0], [1.0, 0.0]], ["a", "a"])
    with pytest.raises(ValueError):
        cluster_distances([[0.0, 0.0], [1.0, 0.0]], ["a", "b"])


def test_nearest_row_basic_and_tie_goes_to_first():
    table = [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]
    assert nearest_row(table, [0.9, 1.2]) == 1
    assert nearest_row([[0.0, 0.0], [2.0, 0.0]], [1.0, 0.0]) == 0


def test_nearest_row_rejects_bad_table():
    with pytest.raises(ValueError):
        nearest_row(np.zeros((0, 2)), [0.0, 0.0])
    with pytest.raises(ValueError):
        nearest_row([1.0, 2.0], [0.0])


def test_separability_rejects_more_than_two_dimensions():
    with pytest.raises(ValueError):
        linearly_separable([[0.0, 0.0, 0.0]], [[1.0, 1.0, 1.0]])
    with pytest.raises(ValueError):  # sets of different dimension
        linearly_separable([[0.0, 0.0]], [[1.0]])


def test_scipy_is_never_loaded():
    # a fresh interpreter, since this process may already hold scipy; the
    # package is numpy-only, the separability check included
    script = (
        "import sys\n"
        "import spnpb, spnpb.cli, spnpb.experiments, spnpb.training, spnpb.evaluate\n"
        "from spnpb.analysis import linearly_separable\n"
        "print(linearly_separable([[0.0, 0.0], [0.0, 1.0]], [[2.0, 0.0], [2.0, 1.0]]),\n"
        "      linearly_separable([[0.0, 0.0], [1.0, 1.0]], [[0.0, 1.0], [1.0, 0.0]]))\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = str(Path(spnpb.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, env=env, check=True)
    assert out.stdout.splitlines() == ["True False", "[]"]
