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
    """True if a hyperplane strictly separates the two point sets.

    Solved as a feasibility LP: find (w, b) with w.x + b >= 1 on one side
    and <= -1 on the other (any strict separator can be rescaled to this).
    """
    points_a = np.asarray(points_a, dtype=np.float64)
    points_b = np.asarray(points_b, dtype=np.float64)
    if len(points_a) == 0 or len(points_b) == 0:
        raise ValueError("both point sets must be non-empty")
    d = points_a.shape[1]
    # constraints: -(w.a + b) <= -1  and  (w.b + b) <= -1
    a_ub = np.vstack([
        np.hstack([-points_a, -np.ones((len(points_a), 1))]),
        np.hstack([points_b, np.ones((len(points_b), 1))]),
    ])
    b_ub = -np.ones(len(points_a) + len(points_b))
    # imported here, its only use: scipy.optimize costs ≈40 MB and ≈0.4 s to load
    from scipy.optimize import linprog
    res = linprog(
        c=np.zeros(d + 1), A_ub=a_ub, b_ub=b_ub,
        bounds=[(None, None)] * (d + 1), method="highs",
    )
    return bool(res.success)


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
