"""Singular values, eigenvalues and null vectors, in closed form when small.

The paper's multiplicity functions have c <= 2, so the analysis mostly
solves 1 x 1 and 2 x 2 matrices: the blocks of the certificate search,
H(0)^T at the fixed cell (its eigenvalues and null vectors), and the 1 x 1
components of K (``block_eigenvalues`` solves K one strongly connected
component of its graph at a time).  LAPACK would solve them too, but its
first call pages in OpenBLAS, about 1-1.6 MB of peak RSS in a fresh
process, for arithmetic a few lines can do.  These kernels do it and
hand larger matrices to ``np.linalg``.  The package does not export them.
"""

from __future__ import annotations

import ctypes
import math
import os

import numpy as np


# Blocks per pass of the 2 x 2 singular values: a longer stack is solved
# a chunk at a time, so its temporaries stay a few times a chunk's bytes
# (about 12 MB) however deep the grid.  Every operation is per block, so
# the chunks change no bit.
_CHUNK = 1 << 16


def singular_values(blocks: np.ndarray) -> np.ndarray:
    """Per-cell singular values of a stack of blocks, descending.

    A 1 x 1 block's is its modulus.  A 2 x 2 block [[a, b], [c, d]] takes
    a closed form (Golub and Van Loan, Matrix Computations, 4th ed.,
    section 8.6): with p and r the squared column norms and
    q = |conj(a) b + conj(c) d|, sigma_max^2 = (p + r + hypot(p - r, 2q))/2
    adds only non-negative terms, and sigma_min = |ad - bc| / sigma_max.
    (The form (sqrt(F + 2|det|) + sqrt(F - 2|det|)) / 2, F = p + r, loses
    half the digits of two nearly tied values to the difference.)  Each
    block is first divided by the power of two at or above its largest
    modulus, exactly, so that no square overflows or underflows; the
    power is capped at 2^1023, the largest finite one, which also scales
    a block whose finite entries have a modulus past the float range.  A
    sigma_max past that range comes back infinite.
    """
    if blocks.shape[1:] == (1, 1):
        return np.abs(blocks[:, 0])
    if blocks.shape[1:] != (2, 2):
        return np.linalg.svd(blocks, compute_uv=False)
    if len(blocks) > _CHUNK:
        values = np.empty((len(blocks), 2))
        for start in range(0, len(blocks), _CHUNK):
            values[start : start + _CHUNK] = singular_values(blocks[start : start + _CHUNK])
        return values
    top = np.minimum(np.abs(blocks).max(axis=(1, 2)), np.finfo(np.float64).max)
    scale = np.ldexp(1.0, np.minimum(np.frexp(top)[1], 1023))
    a, b, c, d = (blocks[:, i, j] / scale for i in (0, 1) for j in (0, 1))
    p, r = np.abs(a) ** 2 + np.abs(c) ** 2, np.abs(b) ** 2 + np.abs(d) ** 2
    q = np.abs(np.conj(a) * b + np.conj(c) * d)
    smax = np.sqrt((p + r + np.hypot(p - r, 2.0 * q)) / 2.0)
    det = np.abs(a * d - b * c)
    smin = np.divide(det, smax, out=np.zeros_like(det), where=smax > 0)
    with np.errstate(over="ignore"):
        return np.stack([smax, np.minimum(smin, smax)], axis=1) * scale[:, None]


def _bundled_blas() -> tuple:
    """The get and set thread-count calls of the OpenBLAS numpy's wheel bundles.

    numpy 2 wheels carry scipy-openblas in ``numpy.libs`` (Linux, Windows)
    or in ``numpy/.dylibs`` (macOS).  A numpy that links a system BLAS,
    MKL or Accelerate (distribution, conda and source builds) has none,
    and this raises ``OSError``.
    """
    site = os.path.dirname(os.path.dirname(np.__file__))
    for folder in ("numpy.libs", os.path.join("numpy", ".dylibs")):
        path = os.path.join(site, folder)
        names = os.listdir(path) if os.path.isdir(path) else []
        for name in sorted(n for n in names if n.startswith("libscipy_openblas64_")):
            blas = ctypes.CDLL(os.path.join(path, name))
            get = getattr(blas, "scipy_openblas_get_num_threads64_", None)
            pin = getattr(blas, "scipy_openblas_set_num_threads64_", None)
            if get and pin:
                return get, pin
    raise OSError(f"cannot hold BLAS to one thread: numpy at {site} bundles no OpenBLAS")


def eigenvalues(matrix: np.ndarray) -> np.ndarray:
    """``np.linalg.eigvals`` on one BLAS thread; a finite 1 x 1 gives its entry.

    The entry is what eigvals returns for a modulus in about
    [6.7e-139, 1.5e138]; outside that range LAPACK rescales the matrix
    first and can round the last bit scaling back.  LAPACK's last bits
    follow the OpenBLAS thread count, so numpy's bundled OpenBLAS is held
    to one thread; without it (``_bundled_blas``) this raises ``OSError``.
    """
    if matrix.shape == (1, 1) and np.isfinite(matrix).all():
        return matrix[0]
    get, pin = _bundled_blas()
    threads = get()
    pin(1)
    try:
        return np.linalg.eigvals(matrix)
    finally:
        pin(threads)


def eigen_condition(matrix: np.ndarray) -> tuple[np.ndarray, float]:
    """The eigenvalues of a finite square matrix and cond_2 of its unit eigenvectors.

    ``np.linalg.eig`` and ``np.linalg.cond``, in closed form for 2 x 2.
    A triangular 2 x 2 matrix gives its diagonal, as LAPACK does.
    Otherwise, on the matrix divided exactly by the power of two at or
    above its largest modulus (at most 2^1023), the root of the
    characteristic polynomial that avoids cancellation comes first and
    the other is det / mu_1.
    For unit eigenvectors v_1, v_2, cond_2 = sqrt((1 + g) / (1 - g)) with
    g = |v_1^H v_2|: 1 for a scalar matrix and infinite for any other
    repeated eigenvalue, which is defective.
    """
    if matrix.shape != (2, 2):
        values, vectors = np.linalg.eig(matrix)
        return values, float(np.linalg.cond(vectors))
    scale = math.ldexp(1.0, min(math.frexp(float(np.abs(matrix).max()))[1], 1023))
    (a, b), (c, d) = (matrix / scale).tolist()
    if b == 0 or c == 0:
        values = np.array(matrix.diagonal(), dtype=np.complex128)
        mu1, mu2 = a, d
    else:
        half = (a + d) / 2
        root = np.sqrt(((a - d) / 2) ** 2 + b * c)
        mu1 = half + root if (half.conjugate() * root).real >= 0 else half - root
        mu2 = (a * d - b * c) / mu1 if mu1 != 0 else mu1
        values = np.array([mu1, mu2], dtype=np.complex128) * scale
    if b == 0 and c == 0 and a == d:
        return values, 1.0
    if mu1 == mu2:
        return values, math.inf
    (x1, y1), (x2, y2) = (_unit_eigenvector(a, b, c, d, mu) for mu in (mu1, mu2))
    g = abs(x1.conjugate() * x2 + y1.conjugate() * y2)
    return values, math.sqrt((1 + g) / (1 - g)) if g < 1 else math.inf


def _unit_eigenvector(a: complex, b: complex, c: complex, d: complex, mu: complex):
    """A unit vector that both rows of [[a - mu, b], [c, d - mu]] annihilate.

    Each row gives one candidate, (b, mu - a) or (mu - d, c); the longer
    is the accurate one when mu is close to a or to d.
    """
    x, y = max(((b, mu - a), (mu - d, c)), key=lambda v: math.hypot(abs(v[0]), abs(v[1])))
    n = math.hypot(abs(x), abs(y))
    return x / n, y / n


def null_vectors(matrix: np.ndarray, lam: complex, count: int) -> np.ndarray:
    """Rows v with (matrix - lam I) v smallest: ``count`` right singular vectors.

    The fixed cell's start values, from H(0)^T; a finite 1 x 1 matrix
    gives [[1]], the vh of svd for every one.
    """
    shift = lam.real if lam.imag == 0 else lam
    shifted = matrix - shift * np.eye(len(matrix))
    if shifted.shape == (1, 1) and np.isfinite(shifted).all():
        return np.conj(np.ones((1, 1), shifted.dtype))
    vh = np.linalg.svd(shifted)[2]
    return np.conj(vh[::-1][:count])


def strong_components(size: int, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The strongly connected component of each of ``size`` nodes, for the
    edges rows[t] -> cols[t] (``rows`` ascending), numbered in the order
    they close.

    Tarjan's algorithm (SIAM J. Comput. 1, 1972), its depth-first path
    kept on lists rather than the call stack; a node visited but not yet
    labelled is on Tarjan's stack.
    """
    heads = [0] + np.cumsum(np.bincount(rows, minlength=size)).tolist()
    succ = cols.tolist()
    index, low, label = [-1] * size, [0] * size, [-1] * size
    stack: list[int] = []
    visited = closed = 0
    for root in range(size):
        if index[root] >= 0:
            continue
        index[root] = low[root] = visited
        visited += 1
        stack.append(root)
        path, edges = [root], [heads[root]]
        while path:
            v, e = path[-1], edges[-1]
            if e < heads[v + 1]:
                edges[-1] = e + 1
                w = succ[e]
                if index[w] < 0:
                    index[w] = low[w] = visited
                    visited += 1
                    stack.append(w)
                    path.append(w)
                    edges.append(heads[w])
                elif label[w] < 0:
                    low[v] = min(low[v], index[w])
                continue
            path.pop()
            edges.pop()
            if path:
                low[path[-1]] = min(low[path[-1]], low[v])
            if low[v] == index[v]:
                w = -1
                while w != v:
                    w = stack.pop()
                    label[w] = closed
                closed += 1
    return np.array(label, dtype=np.int64)


def block_eigenvalues(
    label: np.ndarray, nontrivial: np.ndarray, rows: np.ndarray, cols: np.ndarray,
    weights: np.ndarray,
) -> np.ndarray:
    """The eigenvalues of the matrix with entries ``weights`` at (rows, cols),
    one per entry, from the diagonal blocks of its Frobenius normal form.

    ``label`` is each node's strongly connected component
    (``strong_components``).  Each component flagged in ``nontrivial`` is
    solved densely through ``eigenvalues``, in real arithmetic when its
    block is real; every node of the others gives an exact zero.
    """
    sizes = np.bincount(label, minlength=len(nontrivial))
    inner = label[rows] == label[cols]
    # Renumbered component by component, each block is a range of rows,
    # and sorted by row, each block's entries a range of entries.
    per_block = np.bincount(label[rows[inner]], minlength=len(nontrivial))
    rank = np.empty_like(label)
    rank[np.argsort(label, kind="stable")] = np.arange(len(label))
    order = np.argsort(rank[rows[inner]], kind="stable")
    rows, cols, weights = (a[inner][order] for a in (rank[rows], rank[cols], weights))
    ends, edges = np.cumsum(sizes), np.cumsum(per_block)
    values = [np.zeros(len(label) - int(sizes[nontrivial].sum()))]
    for c in np.flatnonzero(nontrivial).tolist():
        start, size = int(ends[c] - sizes[c]), int(sizes[c])
        part = slice(int(edges[c] - per_block[c]), int(edges[c]))
        block = np.zeros((size, size), dtype=np.complex128)
        block[rows[part] - start, cols[part] - start] = weights[part]
        values.append(eigenvalues(block.real if not np.any(block.imag) else block))
    return np.concatenate(values)
