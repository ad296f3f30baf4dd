"""Lattices over Z_(p), the rationals with denominator prime to p.

A lattice here is a finitely generated Z_(p)-submodule of Q^k, kept in a
canonical echelon form: pivot entries are exact powers of p on strictly
increasing columns, rows below a pivot are zero in its column, and
entries above a pivot are the canonical representatives mod p^a Z_(p).
Two lattices are equal iff their canonical forms are identical, so no
p-adic precision is involved anywhere.

A p that is not a prime, a vector of the wrong length, and a comparison
of lattices with another p or dimension raise ValueError.
"""

from __future__ import annotations

from fractions import Fraction

from .cyclotomic import INF, padic_valuation
from .linalg import is_prime


def canonical_residue(x: Fraction, p: int, a: int) -> Fraction:
    """The canonical representative of x modulo p^a Z_(p).

    Unique value m * p^b with b = v_p(x), 0 <= m < p^(a-b) and m prime
    to p; zero when v_p(x) >= a.
    """
    b = padic_valuation(x, p)
    if b >= a:
        return Fraction(0)
    y = x / Fraction(p) ** b
    mod = p ** (a - b)
    m = y.numerator * pow(y.denominator, -1, mod) % mod
    return Fraction(m) * Fraction(p) ** b


def _row(dim: int, v) -> list:
    """v as a list of Fractions; ValueError unless it has dim entries."""
    row = [Fraction(x) for x in v]
    if len(row) != dim:
        raise ValueError(f"a vector of length {len(row)} in a lattice of dimension {dim}")
    return row


class PLattice:
    __slots__ = ("p", "dim", "rows", "pivots")

    def __init__(self, p: int, dim: int, rows, pivots):
        self.p = p
        self.dim = dim
        self.rows = tuple(tuple(r) for r in rows)
        self.pivots = tuple(pivots)

    @staticmethod
    def from_generators(p: int, dim: int, generators) -> "PLattice":
        if not is_prime(p):
            raise ValueError(f"p = {p} is not a prime")
        pool = []
        for v in generators:
            row = _row(dim, v)
            if any(row):
                pool.append(row)
        basis = []
        pivots = []
        for col in range(dim):
            cand = [i for i, r in enumerate(pool) if r[col]]
            if not cand:
                continue
            piv = pool.pop(min(cand, key=lambda i: padic_valuation(pool[i][col], p)))
            a = padic_valuation(piv[col], p)
            unit = piv[col] / Fraction(p) ** a
            piv = [x / unit for x in piv]
            for r in pool:
                if r[col]:
                    q = r[col] / piv[col]
                    assert padic_valuation(q, p) >= 0
                    for t in range(dim):
                        r[t] -= q * piv[t]
            pool = [r for r in pool if any(r)]
            basis.append(piv)
            pivots.append(col)
        # reduce entries above each pivot to their canonical residues
        for i in range(len(basis)):
            col = pivots[i]
            a = padic_valuation(basis[i][col], p)
            for j in range(i):
                x = basis[j][col]
                if x:
                    target = canonical_residue(x, p, a)
                    q = (x - target) / basis[i][col]
                    assert padic_valuation(q, p) >= 0
                    for t in range(dim):
                        basis[j][t] -= q * basis[i][t]
        return PLattice(p, dim, basis, pivots)

    # -- structure ---------------------------------------------------------

    @property
    def rank(self) -> int:
        return len(self.rows)

    def pivot_valuations(self) -> list:
        return [padic_valuation(self.rows[i][c], self.p)
                for i, c in enumerate(self.pivots)]

    def contains_vector(self, v) -> bool:
        w = _row(self.dim, v)
        for i, col in enumerate(self.pivots):
            if w[col]:
                q = w[col] / self.rows[i][col]
                if padic_valuation(q, self.p) < 0:
                    return False
                for t in range(self.dim):
                    w[t] -= q * self.rows[i][t]
        return not any(w)

    def _same_space(self, other: "PLattice") -> None:
        if (other.p, other.dim) != (self.p, self.dim):
            raise ValueError(
                f"lattices over Z_({self.p}) in dimension {self.dim} and "
                f"over Z_({other.p}) in dimension {other.dim}"
            )

    def contains(self, other: "PLattice") -> bool:
        self._same_space(other)
        return all(self.contains_vector(r) for r in other.rows)

    def __eq__(self, other):
        return (
            isinstance(other, PLattice)
            and self.p == other.p
            and self.dim == other.dim
            and self.pivots == other.pivots
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.p, self.dim, self.pivots, self.rows))

    def __repr__(self):
        vals = self.pivot_valuations()
        return f"PLattice(p={self.p}, pivots={list(self.pivots)}, p_powers={vals})"

    # -- operations -----------------------------------------------------------

    def scaled(self, s) -> "PLattice":
        s = Fraction(s)
        return PLattice.from_generators(
            self.p, self.dim, [[s * x for x in row] for row in self.rows]
        )

    def index_valuation(self, sub: "PLattice"):
        """v_p of the module index [self : sub], INF if ranks differ;
        ValueError unless sub is a sublattice of self."""
        if not self.contains(sub):
            raise ValueError("index of a lattice that is not a sublattice")
        if sub.rank != self.rank:
            return INF
        return sum(sub.pivot_valuations()) - sum(self.pivot_valuations())
