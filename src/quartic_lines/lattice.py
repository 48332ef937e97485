"""Integer Gram matrices of line configurations and their span invariants.

Lines on a smooth quartic (a K3 surface) are (-2)-classes meeting pairwise
in 0 or 1 points, so an intersection graph determines an integer Gram
matrix.  The classes may be dependent; the span discriminant is the
determinant of a Gram basis of the abstract lattice they generate,
corrected by the squared index of the chosen basis sublattice.  All
arithmetic is exact, fraction-free over the integers; no floating point.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from .errors import InconsistencyError, UsageError
from .geometry import IntersectionGraph


def _eliminate(rows: Sequence[Sequence[int]], stop: Optional[int] = None
               ) -> Tuple[List[int], List[int], int]:
    """Fraction-free (Bareiss 1968) row echelon form over the integers.

    Rows are taken in the given order.  Each is reduced by the pivot rows
    kept before it and is kept itself when a nonzero entry remains, so the
    kept rows are the greedy independent subset and every other row lies
    in their rational span; with `stop`, the pass ends once that many rows
    are kept.  After k pivots each entry is a (k+1)-minor of the input,
    so every division is exact; it is checked all the same.
    Returns (ids of the kept rows, their pivot columns, last pivot); the
    last pivot is the minor on those rows and columns (1 if none)."""
    echelon: List[Tuple[List[int], int]] = []
    ids: List[int] = []
    last = 1
    for i, row in enumerate(rows):
        row = list(row)
        prev = 1
        for piv, c in echelon:
            p, f = piv[c], row[c]
            row = [p * a - f * b for a, b in zip(row, piv)]
            if any(a % prev for a in row):
                raise InconsistencyError(
                    "inexact division in fraction-free elimination")
            row = [a // prev for a in row]
            prev = p
        col = next((c for c, a in enumerate(row) if a), None)
        if col is not None:
            echelon.append((row, col))
            ids.append(i)
            last = row[col]
            if len(ids) == stop:
                break
    return ids, [c for _, c in echelon], last


def _hnf_determinant(rows: List[List[int]], r: int) -> int:
    """Absolute determinant of the full-rank integer lattice generated by
    the given vectors in Z^r (product of the Hermite-form pivots)."""
    work = [row[:] for row in rows if any(row)]
    det = 1
    for col in range(r):
        idx = [i for i in range(len(work)) if work[i][col]]
        if not idx:  # pragma: no cover - caller guarantees full rank
            raise InconsistencyError("integer lattice not of full rank")
        # euclidean reduction within the column
        while len(idx) > 1:
            idx.sort(key=lambda i: abs(work[i][col]))
            base = work[idx[0]]
            for i in idx[1:]:
                q = work[i][col] // base[col]
                work[i] = [a - q * b for a, b in zip(work[i], base)]
            idx = [i for i in idx if work[i][col]]
        pivot_row = work[idx[0]]
        det *= abs(pivot_row[col])
        work = [work[i] for i in range(len(work))
                if i != idx[0] and any(work[i])]
    return det


@dataclass
class GramLattice:
    """n generators with a symmetric integer pairing matrix."""
    gram: Tuple[Tuple[int, ...], ...]
    _rank_cache: Optional[int] = field(default=None, repr=False)
    _disc_cache: Optional[Tuple[int, int, Tuple[int, ...]]] = field(
        default=None, repr=False)

    def __post_init__(self):
        n = len(self.gram)
        g = tuple(tuple(int(x) for x in row) for row in self.gram)
        if any(len(row) != n for row in g):
            raise UsageError("Gram matrix must be square")
        if any(g[i][j] != g[j][i] for i in range(n) for j in range(n)):
            raise UsageError("Gram matrix must be symmetric")
        object.__setattr__(self, "gram", g)
        if n > 22 and self.rank() > 22:
            raise InconsistencyError(
                "rank exceeds 22, impossible inside the K3 Picard lattice")

    @property
    def n(self) -> int:
        return len(self.gram)

    def rank(self) -> int:
        if self._rank_cache is None:
            object.__setattr__(self, "_rank_cache",
                               len(_eliminate(self.gram)[0]))
        return self._rank_cache

    def _span_data(self, subset: Optional[Sequence[int]] = None
                   ) -> Tuple[int, int, Tuple[int, ...]]:
        """(discriminant, index, basis) for the greedy basis taken in the
        given preference order, then in generator order."""
        r = self.rank()
        if r == 0:
            return 0, 1, ()
        g = self.gram
        order = list(subset) if subset is not None else []
        seen = set(order)
        order += [i for i in range(self.n) if i not in seen]
        # rank()'s full pass puts every generator in the span of any r
        # independent ones, so the pass stops at the r-th kept row
        kept = _eliminate([g[i] for i in order], r)[0]
        basis = [order[k] for k in kept]
        if len(basis) != r:
            raise InconsistencyError(
                f"generators span rank {len(basis)} in one order and {r} "
                "in another; rank computation inconsistent")
        # a symmetric matrix is nonsingular on a maximal independent set
        # of its rows; the pivot columns permute the basis columns
        kept, cols, last = _eliminate([[g[a][b] for b in basis]
                                       for a in basis])
        if len(kept) != r:  # pragma: no cover - see above
            raise InconsistencyError("singular basis Gram")
        inversions = sum(a > b for a, b in itertools.combinations(cols, 2))
        d0 = -last if inversions % 2 else last
        # pairing with the basis maps the span injectively onto the lattice
        # of columns of G[basis, *], and the basis sublattice onto the
        # columns of G[basis, basis], of covolume |d0|
        covolume = _hnf_determinant([[g[j][b] for b in basis]
                                     for j in range(self.n)], r)
        index, rem = divmod(abs(d0), covolume)
        if rem:  # pragma: no cover - the basis columns are among them
            raise InconsistencyError("index is not integral")
        disc, rem = divmod(d0, index * index)
        if rem:
            raise InconsistencyError("discriminant not divisible by index^2")
        return disc, index, tuple(basis)

    def span_discriminant(self, subset: Optional[Sequence[int]] = None
                          ) -> int:
        """Discriminant of the abstract lattice the generators span."""
        if subset is not None:
            return self._span_data(subset)[0]
        if self._disc_cache is None:
            object.__setattr__(self, "_disc_cache", self._span_data())
        return self._disc_cache[0]

    def span_index(self) -> int:
        """Index of the chosen basis sublattice inside the full span."""
        self.span_discriminant()
        return self._disc_cache[1]

    def basis_ids(self) -> Tuple[int, ...]:
        """Generator indices of the chosen nonsingular basis."""
        self.span_discriminant()
        return self._disc_cache[2]

    def random_subset_check(self, trials: int = 5, seed: int = 0) -> bool:
        """The discriminant must not depend on the basis choice."""
        ref = self.span_discriminant()
        rng = random.Random(seed)
        order = list(range(self.n))
        for _ in range(trials):
            rng.shuffle(order)
            if self.span_discriminant(order) != ref:
                raise InconsistencyError(
                    "span discriminant depends on the basis choice")
        return True

    def hyperbolicity_sign_check(self) -> bool:
        """For a spanning set inside the K3 Picard lattice the signature is
        (1, r-1), so the discriminant sign must be (-1)^(r-1)."""
        r = self.rank()
        if r < 2:
            return True
        disc = self.span_discriminant()
        expected = 1 if (r - 1) % 2 == 0 else -1
        if (1 if disc > 0 else -1) != expected:
            raise InconsistencyError(
                f"discriminant sign {disc} incompatible with signature "
                f"(1, {r - 1})")
        return True

    def to_json(self) -> dict:
        return {"generators": self.n, "rank": self.rank(),
                "discriminant": self.span_discriminant(),
                "index": self.span_index(),
                "basis-line-ids": list(self.basis_ids())}


def gram_from_graph(graph: IntersectionGraph) -> GramLattice:
    """Diagonal -2 (K3 adjunction for a line), off-diagonal 0/1 adjacency."""
    n = len(graph)
    gram = tuple(tuple(-2 if i == j else int(graph.adj[i][j])
                       for j in range(n)) for i in range(n))
    return GramLattice(gram)
