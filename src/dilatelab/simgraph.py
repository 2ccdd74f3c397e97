"""The similarity graph on ordered point pairs, walk counts, and edge bounds.

For a point set E and ratio r the graph has vertex set E x E, and two
distinct vertices (x, x') and (y, y') are adjacent when the norm of y' - x'
is r times the norm of y - x.  Walks in this graph encode scaled walk pairs;
the module also carries the exact generic walk-count floor (2e)^k / n^(k-1).
"""

from __future__ import annotations

from fractions import Fraction

from .configcount import (
    BRUTE_GUARD,
    Ratio,
    join,
    refused_checks,
    _nu_identity_scaled_walk_pairs,
    _paired_walk_sweep,
)
from .errors import TooLargeError
from .geometry import PointSet


class SimilarityGraph:
    """Immutable wrapper around the pair graph; adjacency is evaluated on the fly.

    Vertices are index pairs (i, j) into E.  The dense adjacency matrix is
    never materialized; edge counts come from the norm-pair profile and walk
    counts from the packed distance-class sweep of
    :func:`dilatelab.configcount._paired_walk_sweep`, the walk_dp kernel with
    its stationary-step rule swapped: a walk may keep x' = x but never the
    whole vertex, so the packed row V[x'] is subtracted.  Its lanes are sized
    for n^(2k), the most walks any vertex pair can end.  On construction the
    edge count is checked against nu_identity's 1-step pair count; a guard's
    refusal of it goes to configcount.refused_checks(E).
    """

    def __init__(self, E: PointSet, ratio: Ratio):
        self.E = E
        self.ratio = ratio
        self.vertex_count = len(E) ** 2
        # an ordered edge moves x, a 1-step scaled pair, or keeps x and moves y
        # along a null segment: 2e = S_1 + n (N_0 - n)
        try:
            s1 = _nu_identity_scaled_walk_pairs(E, ratio.r, 1)
        except TooLargeError as exc:  # a refused profile table only skips the check
            refused_checks(E)[("S_k", ratio.r, 1, "nu_identity")] = f"guard: {exc}"
            return
        if 2 * self.edge_count() != s1 + len(E) * E.norm_pair_counts[0] - self.vertex_count:
            raise AssertionError("internal error: edge count disagrees with the pair count")

    def adjacent(self, a: tuple[int, int], b: tuple[int, int]) -> bool:
        """The edge rule, evaluated on vertex index pairs."""
        if a == b:
            return False
        D = self.E.dist_table
        p = self.E.prime.p
        return D[a[1]][b[1]] == self.ratio.r * D[a[0]][b[0]] % p

    def degree_sum(self) -> int:
        counts = self.E.norm_pair_counts
        # self-pairs always satisfy the rule
        return join(counts, counts, self.ratio.r, self.E.prime.p) - self.vertex_count

    def edge_count(self) -> int:
        return self.degree_sum() // 2

    def count_walks(self, k: int) -> int:
        """Sequences of k+1 vertices with consecutive vertices adjacent.

        1^T (M - I)^k 1 for M = sum_s A_s (x) A_{rs}: at k <= 2 summed by
        degrees; at k = 3, where the set has few distances for its size
        (m^3 <= configcount.WALK_TABLE_FACTOR n^2), joined from the walk
        tables as J(Y_3, Y_3) - 3 J(Y_2, Y_2) + 3 J(Y_1, Y_1) - n^2, without
        a paired state; otherwise, or where a guard refuses the tables, by
        k - 2 paired-state steps.
        """
        if k < 1:
            raise ValueError("k must be at least 1")
        return _paired_walk_sweep(self.E, self.ratio.r, k, distinct_first=False)

    def edges_direct(self) -> list[tuple[tuple[int, int], tuple[int, int]]]:
        """All edges by scanning vertex pairs, refused past BRUTE_GUARD pairs; for small checks."""
        n = len(self.E)
        pairs = self.vertex_count * (self.vertex_count - 1) // 2
        if pairs > BRUTE_GUARD:
            raise TooLargeError(f"an edge scan of {pairs} vertex pairs refused, over {BRUTE_GUARD}")
        vertices = [(i, j) for i in range(n) for j in range(n)]
        out = []
        for a_pos, a in enumerate(vertices):
            for b in vertices[a_pos + 1 :]:
                if self.adjacent(a, b):
                    out.append((a, b))
        return out

    def export_edges(self, path) -> None:
        """Write the edge list as `u v` lines, vertices as `x1,..|x1',..`."""
        pts = self.E.points

        def label(vertex):
            first = ",".join(str(c) for c in pts[vertex[0]])
            second = ",".join(str(c) for c in pts[vertex[1]])
            return f"{first}|{second}"

        with open(path, "w", encoding="utf-8") as fh:
            for a, b in self.edges_direct():
                fh.write(f"{label(a)} {label(b)}\n")


def ms_lower_bound(n: int, e: int, k: int) -> Fraction:
    """The generic walk-count floor (2e)^k / n^(k-1) for n-vertex simple graphs."""
    if n < 1:
        raise ValueError("the graph needs at least one vertex")
    return Fraction((2 * e) ** k, n ** (k - 1))
