"""Analysis of trained bias vectors: PCA projection and cluster checks."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class PcaResult:
    components: np.ndarray   # (2, d) orthonormal rows, leading variance first
    projected: np.ndarray    # (n, 2)
    explained: np.ndarray    # (2,) fractions of total variance


def pca_project(points):
    """Project points onto their top two principal components.

    Components are orthonormal eigenvectors of the covariance matrix,
    ordered by descending eigenvalue, each flipped so its largest-
    magnitude entry is positive (fixes the sign ambiguity).
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[0] < 2:
        raise ValueError("need at least two points to fit principal components")
    if points.shape[1] < 2:
        raise ValueError("points must have at least two dimensions")
    centered = points - points.mean(axis=0)
    cov = centered.T @ centered / points.shape[0]
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1][:2]
    components = eigvecs[:, order].T.copy()
    for row in components:
        if row[np.argmax(np.abs(row))] < 0:
            row *= -1.0
    total = float(eigvals.sum())
    explained = eigvals[order] / total if total > 0 else np.zeros(2)
    return PcaResult(
        components=components,
        projected=centered @ components.T,
        explained=explained,
    )


def linearly_separable(points_a, points_b):
    """True if a line (in 1-D, a threshold) strictly separates two point sets in d <= 2.

    The max-margin normal of two separable finite sets in the plane is
    parallel to the difference of two of the points (closest vertices) or
    perpendicular to it (a vertex against an edge).  So the sets separate
    if and only if one of those directions, over all pairs of the pooled
    points, leaves a strict gap between the two sets' projections.  It
    costs O(n^3) for n points, which suits a bias table's tens of rows.
    Points of more than two dimensions raise ValueError.
    """
    points_a = np.asarray(points_a, dtype=np.float64)
    points_b = np.asarray(points_b, dtype=np.float64)
    if len(points_a) == 0 or len(points_b) == 0:
        raise ValueError("both point sets must be non-empty")
    if points_a.ndim != 2 or points_b.ndim != 2 or points_a.shape[1] != points_b.shape[1] \
            or points_a.shape[1] > 2:
        raise ValueError(f"need two sets of points of one dimension d <= 2, got "
                         f"{points_a.shape} and {points_b.shape}")
    pooled = np.concatenate([points_a, points_b])
    turn = np.array([[0.0, 1.0], [-1.0, 0.0]])  # (x, y) -> (-y, x)
    for point in pooled:
        # every direction comes with its negation, so one orientation suffices
        normals = pooled - point
        if normals.shape[1] == 2:
            normals = np.concatenate([normals, normals @ turn])
        if np.any((points_a @ normals.T).max(axis=0) < (points_b @ normals.T).min(axis=0)):
            return True
    return False


def cluster_distances(points, labels):
    """Mean pairwise distance within groups and across groups.

    Returns (intra, inter) where intra averages distances between points
    sharing a label and inter averages distances between points that do
    not.
    """
    points = np.asarray(points, dtype=np.float64)
    intra, inter = [], []
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            dist = float(np.linalg.norm(points[i] - points[j]))
            (intra if labels[i] == labels[j] else inter).append(dist)
    if not intra or not inter:
        raise ValueError("need at least two groups with two members somewhere")
    return float(np.mean(intra)), float(np.mean(inter))


def nearest_row(table, query):
    """Index of the table row closest to query in Euclidean distance."""
    table = np.asarray(table, dtype=np.float64)
    if table.ndim != 2 or len(table) == 0:
        raise ValueError("table must be a non-empty 2-d array")
    return int(np.argmin(np.linalg.norm(table - np.asarray(query), axis=1)))
