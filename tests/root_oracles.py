"""Root-system functions that only the tests use, kept as oracles beside
them: root lengths, the highest short root, the -w0 diagram automorphism,
the sign and support of a root, and dim Z from a Z diagram alone."""

from functools import lru_cache
from typing import Dict, Tuple

from kacvmrt.diagrams import MarkedDynkinDiagram, parabolic_dimension
from kacvmrt.roots import CartanType, Root, cartan_matrix, positive_roots, simple_norms


def is_positive(r: Root) -> bool:
    return r.height > 0


def support(r: Root) -> Tuple[int, ...]:
    """1-based indices of the nonzero coefficients."""
    return tuple([i + 1 for i, c in enumerate(r.coeffs) if c != 0])


@lru_cache(maxsize=None)
def _gram(t: CartanType) -> Tuple[Tuple[int, ...], ...]:
    norms = simple_norms(t)
    a = cartan_matrix(t)
    n = t.rank
    # (alpha_i, alpha_j) = a[i][j] * |alpha_j|^2 / 2, an integer throughout.
    g = [[(a[i][j] * norms[j]) // 2 for j in range(n)] for i in range(n)]
    for i in range(n):
        g[i][i] = norms[i]
    return tuple([tuple(row) for row in g])


def root_norm(t: CartanType, r: Root) -> int:
    """Squared length of r in the normalisation of simple_norms."""
    g = _gram(t)
    c = r.coeffs
    return sum(c[i] * c[j] * g[i][j] for i in range(t.rank) for j in range(t.rank) if c[i] and c[j])


def highest_short_root(t: CartanType) -> Root:
    """The maximal short root; equals highest_root for simply-laced types."""
    short = min(simple_norms(t))
    cands = [r for r in positive_roots(t) if root_norm(t, r) == short]
    return cands[-1]


def minus_w0(t: CartanType) -> Dict[int, int]:
    """The diagram automorphism induced by -w0, as a node bijection.

    Identity except A_n (reversal), D_odd (fork-tip swap) and E6.
    """
    n = t.rank
    if t.family == "A":
        return {i: n + 1 - i for i in range(1, n + 1)}
    if t.family == "D" and n % 2 == 1:
        perm = {i: i for i in range(1, n + 1)}
        perm[n - 1], perm[n] = n, n - 1
        return perm
    if t.family == "E" and n == 6:
        return {1: 6, 2: 2, 3: 5, 4: 4, 5: 3, 6: 1}
    return {i: i for i in range(1, n + 1)}


def z_dimension(z: MarkedDynkinDiagram) -> int:
    """dim Z: positive roots over the crossed nodes, one sigma half only."""
    if z.sigma_pairs is not None:
        left = z.sigma_left_nodes()
        return parabolic_dimension(z.diagram.restrict(left), z.crossed & left)
    return parabolic_dimension(z.diagram, z.crossed)
