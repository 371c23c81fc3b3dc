"""Two-dimensional embeddings (PCA, t-SNE), K-means clustering, and
cluster-count selection by the McClain-Rao index.

t-SNE is the exact O(n^2) formulation: per-point Gaussian bandwidths solved by
bisection to match the target perplexity, symmetrized affinities, Student-t
low-dimensional kernel, and gradient descent with momentum 0.5 and the
affinities exaggerated by EARLY_EXAGGERATION for the first EXAGGERATION_ITERS
iterations, then momentum 0.8; the learning rate is n/12. Both embedders
(`pca_project`, `tsne_embed`) return the (n, LAYOUT_DIM) layout alone. `select_k`
returns the k-means clustering of the k it chooses, with the McClain-Rao table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, DegenerateInputError

_MACHINE_EPS = 1e-12
EARLY_EXAGGERATION = 12.0
EXAGGERATION_ITERS = 250
LAYOUT_DIM = 2  # columns of the PCA and t-SNE layouts
LLOYD_MAX_ITERS = 300
KMEANS_RESTARTS = 10  # k-means++ seedings per fit; the lowest inertia wins
MCCLAIN_RAO_REL_TOL = 0.40  # select_k's parsimony tolerance


# ---------------------------------------------------------------------------
# PCA
# ---------------------------------------------------------------------------

def pca_project(X: np.ndarray) -> np.ndarray:
    """Project onto the top `LAYOUT_DIM` eigenvectors of the covariance; each
    component's largest-magnitude coordinate is made positive."""
    X = np.asarray(X, dtype=np.float64)
    n, d = X.shape
    if n < 2 or d < 2:
        raise ArgumentError(f"pca_project needs at least a 2x2 matrix, got {X.shape}")
    Xc = X - X.mean(axis=0)
    cov = Xc.T @ Xc / (n - 1)
    if np.trace(cov) <= _MACHINE_EPS:
        raise DegenerateInputError("pca_project: input has zero variance")
    components = np.linalg.eigh(cov)[1][:, ::-1][:, :LAYOUT_DIM]  # eigh sorts ascending
    peak = components[np.argmax(np.abs(components), axis=0), np.arange(LAYOUT_DIM)]
    return Xc @ (components * np.sign(peak))


# ---------------------------------------------------------------------------
# t-SNE
# ---------------------------------------------------------------------------

def _conditional_affinities(D_row: np.ndarray, beta: float) -> np.ndarray:
    p = np.exp(-D_row * beta)
    s = p.sum()
    return p / s if s > 0 else np.full_like(p, 1.0 / len(p))


def _solve_bandwidths(D: np.ndarray, perplexity: float) -> np.ndarray:
    """Bisection on per-point precision beta so row entropy matches log(perplexity)."""
    n = D.shape[0]
    target = np.log(perplexity)
    P = np.zeros((n, n))
    for i in range(n):
        row = np.delete(D[i], i)
        beta, lo, hi = 1.0, 0.0, np.inf
        for _ in range(60):
            p = _conditional_affinities(row, beta)
            entropy = -np.sum(p * np.log(np.maximum(p, _MACHINE_EPS)))
            if abs(entropy - target) < 1e-7:
                break
            if entropy > target:  # too flat -> increase beta
                lo = beta
                beta = beta * 2.0 if hi == np.inf else (beta + hi) / 2.0
            else:
                hi = beta
                beta = (lo + beta) / 2.0
        p = _conditional_affinities(row, beta)
        P[i, np.arange(n) != i] = p
    return P


def tsne_embed(X: np.ndarray, perplexity: float, iters: int, seed: int) -> np.ndarray:
    """The (n, 2) t-SNE layout of the rows of `X`."""
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    if n <= 3 * perplexity:
        raise ArgumentError(f"perplexity {perplexity} infeasible for n={n} "
                            "(need n > 3*perplexity)")
    sq = (X * X).sum(axis=1)
    D = np.maximum(sq[:, None] + sq[None, :] - 2.0 * X @ X.T, 0.0)
    cond = _solve_bandwidths(D, perplexity)
    P = (cond + cond.T) / (2.0 * n)
    P = np.maximum(P, _MACHINE_EPS)

    learning_rate = n / 12.0
    rng = np.random.default_rng(seed)
    Y = 1e-4 * rng.standard_normal((n, LAYOUT_DIM))
    velocity = np.zeros_like(Y)
    gains = np.ones_like(Y)
    for it in range(iters):
        exaggerate = EARLY_EXAGGERATION if it < EXAGGERATION_ITERS else 1.0
        momentum = 0.5 if it < EXAGGERATION_ITERS else 0.8
        ysq = (Y * Y).sum(axis=1)
        num = 1.0 / (1.0 + np.maximum(ysq[:, None] + ysq[None, :] - 2.0 * Y @ Y.T, 0.0))
        np.fill_diagonal(num, 0.0)
        Q = np.maximum(num / num.sum(), _MACHINE_EPS)
        PQ = (exaggerate * P - Q) * num
        grad = 4.0 * ((np.diag(PQ.sum(axis=1)) - PQ) @ Y)
        # per-coordinate adaptive gains, as in the reference implementation
        same_sign = np.sign(grad) == np.sign(velocity)
        gains = np.where(same_sign, gains * 0.8, gains + 0.2)
        gains = np.maximum(gains, 0.01)
        velocity = momentum * velocity - learning_rate * gains * grad
        Y = Y + velocity
    return Y


# ---------------------------------------------------------------------------
# K-means
# ---------------------------------------------------------------------------

@dataclass
class ClusterAssignment:
    labels: np.ndarray
    centroids: np.ndarray
    inertia: float


def _plus_plus_init(X: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = X.shape[0]
    centroids = [X[rng.integers(n)]]
    for _ in range(1, k):
        d2 = np.min(((X[:, None, :] - np.stack(centroids)[None]) ** 2).sum(axis=2), axis=1)
        total = d2.sum()
        if total <= 0:
            centroids.append(X[rng.integers(n)].copy())
            continue
        centroids.append(X[rng.choice(n, p=d2 / total)].copy())
    return np.stack(centroids)


def _lloyd(X: np.ndarray, centroids: np.ndarray):
    prev_inertia = np.inf
    labels = None
    for _ in range(LLOYD_MAX_ITERS):
        d2 = ((X[:, None, :] - centroids[None]) ** 2).sum(axis=2)
        new_labels = d2.argmin(axis=1)
        reseeded = False
        for c in range(centroids.shape[0]):  # reseed empty clusters at the worst point
            if not np.any(new_labels == c):
                far = int(d2[np.arange(len(X)), new_labels].argmax())
                new_labels[far] = c
                reseeded = True
        inertia = float(((X - centroids[new_labels]) ** 2).sum())
        if not reseeded and inertia > prev_inertia + 1e-9 * max(1.0, prev_inertia):
            raise AssertionError("k-means inertia increased across a Lloyd iteration")
        prev_inertia = np.inf if reseeded else inertia
        if labels is not None and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for c in range(centroids.shape[0]):
            centroids[c] = X[labels == c].mean(axis=0)
    inertia = float(((X - centroids[labels]) ** 2).sum())
    return labels, centroids, inertia


def kmeans(X: np.ndarray, k: int, seed: int) -> ClusterAssignment:
    """k-means++ seeding, Lloyd iterations to an assignment fixpoint (at most
    `LLOYD_MAX_ITERS`), best of `KMEANS_RESTARTS` runs by inertia."""
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    if k < 1 or k > n:
        raise ArgumentError(f"k={k} out of range for n={n}")
    best = None
    for r in range(KMEANS_RESTARTS):
        rng = np.random.default_rng([seed, r])
        labels, centroids, inertia = _lloyd(X, _plus_plus_init(X, k, rng))
        if best is None or inertia < best.inertia:
            best = ClusterAssignment(labels=labels, centroids=centroids, inertia=inertia)
    return best


def mcclain_rao(X: np.ndarray, labels: np.ndarray) -> float:
    """(mean within-cluster distance) / (mean between-cluster distance); lower is better."""
    X = np.asarray(X, dtype=np.float64)
    labels = np.asarray(labels)
    ks = np.unique(labels)
    if len(ks) < 2:
        raise ArgumentError("mcclain_rao needs at least 2 clusters")
    for c in ks:
        if not np.any(labels == c):
            raise ArgumentError(f"cluster {c} is empty")
    diff = X[:, None, :] - X[None, :, :]
    dist = np.sqrt((diff ** 2).sum(axis=2))
    same = labels[:, None] == labels[None, :]
    iu = np.triu_indices(len(X), k=1)
    within = dist[iu][same[iu]]
    between = dist[iu][~same[iu]]
    if len(within) == 0 or len(between) == 0:
        raise ArgumentError("mcclain_rao needs both within- and between-cluster pairs")
    return float((within.mean()) / (between.mean()))


def select_k(X: np.ndarray, k_range, seed: int) -> tuple[ClusterAssignment,
                                                          list[tuple[int, float]]]:
    """Run `kmeans` for each k and pick the cluster count by the McClain-Rao index.

    The index keeps decreasing when compact clusters are over-split (about 10%
    per extra k on tight blobs, more on t-SNE layouts), so the smallest k whose
    index lies within `MCCLAIN_RAO_REL_TOL` of the minimum is returned (a
    tolerance of 0 would give the raw argmin). Merging genuinely distinct
    clusters roughly doubles the index, so the parsimony tolerance does not mask
    true structure. The clustering of the chosen k comes back with the full
    (k, index) table, for reporting.
    """
    ks = sorted(set(int(k) for k in k_range))
    if not ks:
        raise ArgumentError("empty k range")
    n = len(X)
    if ks[0] < 2 or ks[-1] > n - 1:
        raise ArgumentError(f"k range {ks} outside [2, {n - 1}]")
    fits = [kmeans(X, k, seed=seed) for k in ks]
    table = [(k, mcclain_rao(X, fit.labels)) for k, fit in zip(ks, fits)]
    floor = min(v for _, v in table)
    best = next(i for i, (_, v) in enumerate(table) if v <= floor * (1.0 + MCCLAIN_RAO_REL_TOL))
    return fits[best], table


def adjusted_rand_index(labels_a, labels_b) -> float:
    """Chance-corrected agreement between two partitions of the same items."""
    a = np.asarray(labels_a)
    b = np.asarray(labels_b)
    if a.shape != b.shape:
        raise ArgumentError(f"label vectors differ in length: {a.shape} vs {b.shape}")
    n = len(a)
    cats_a, inv_a = np.unique(a, return_inverse=True)
    cats_b, inv_b = np.unique(b, return_inverse=True)
    table = np.zeros((len(cats_a), len(cats_b)))
    np.add.at(table, (inv_a, inv_b), 1)

    def comb2(x):
        return x * (x - 1) / 2.0

    sum_ij = comb2(table).sum()
    sum_a = comb2(table.sum(axis=1)).sum()
    sum_b = comb2(table.sum(axis=0)).sum()
    expected = sum_a * sum_b / comb2(n)
    max_index = (sum_a + sum_b) / 2.0
    if max_index == expected:
        return 1.0
    return float((sum_ij - expected) / (max_index - expected))
