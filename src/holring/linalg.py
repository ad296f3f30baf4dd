"""Exact linear algebra on lists of ints.

The one home of the matrix routines the library runs: linear
combinations of rows, the fraction-free (Bareiss) determinant over Z,
and over a prime field F_q the reduced row echelon form, the kernel, the
characteristic polynomial and the roots of a polynomial, and over Z the
char polynomial (by CRT) and the adjugate.  Matrices are lists of rows;
F_q routines take any ints and reduce mod q on output.  Dixon's
character tables, the regular-determinant oracle, the p-saturation of
the maximal-order center and the blocks of `rednorm` with a
representation all run on these.  The bottom layer also holds the exact
primality test `is_prime` that the CRT primes and every prime argument
use; it imports no other holring module.
"""

from __future__ import annotations

import itertools
import operator


def lincomb(coeffs, rows) -> list:
    """sum_r coeffs[r] * rows[r], for rows of ints or Fractions of one
    width."""
    out = [0] * len(rows[0])
    for x, row in zip(coeffs, rows):
        if x:
            out = [a + x * r for a, r in zip(out, row)]
    return out


def det_bareiss(m: list) -> int:
    """Determinant of a square integer matrix, by fraction-free
    elimination (Bareiss, Math. Comp. 22, 1968): every division is exact."""
    a = [list(row) for row in m]
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if not a[k][k]:
            swap = next((r for r in range(k + 1, n) if a[r][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def fq_matvec(rows, vec, q):
    """rows * vec for rows given as their nonzero (column, value) pairs."""
    return [sum(x * vec[t] for t, x in row) % q for row in rows]


def fq_rref(rows, q):
    """(reduced row echelon rows, pivot columns) of the row space, for
    rows of any ints; the pivots ascend and the rows are reduced mod q."""
    m = [list(r) for r in rows]
    n = len(m)
    pivots = []
    row = 0
    for col in range(len(m[0])):
        sel = next((r for r in range(row, n) if m[r][col] % q), None)
        if sel is None:
            continue
        m[row], m[sel] = m[sel], m[row]
        inv = pow(m[row][col], q - 2, q)
        m[row] = [x * inv % q for x in m[row]]
        for r in range(n):
            if r != row and m[r][col] % q:
                f = m[r][col]
                m[r] = [(a - f * b) % q for a, b in zip(m[r], m[row])]
        pivots.append(col)
        row += 1
        if row == n:
            break
    return m[:row], pivots


def fq_kernel(mat, q):
    """Basis of the right kernel of mat."""
    n_cols = len(mat[0])
    rref, pivots = fq_rref(mat, q)
    free = [c for c in range(n_cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * n_cols
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = (-rref[r][fc]) % q
        basis.append(v)
    return basis


def fq_charpoly(mat, q):
    """Characteristic polynomial det(xI - mat), ascending coefficients.

    Reduces mat to Hessenberg form by similarity, then runs the Hessenberg
    recurrence (Cohen, A Course in Computational Algebraic Number Theory,
    Alg. 2.2.9).  The entries are reduced mod q first, so a pivot is
    nonzero in F_q; any q works, including q below the dimension."""
    h = [[x % q for x in row] for row in mat]
    n = len(h)
    for m in range(1, n - 1):
        sel = next((i for i in range(m, n) if h[i][m - 1]), None)
        if sel is None:
            continue
        if sel != m:
            h[m], h[sel] = h[sel], h[m]
            for row in h:
                row[m], row[sel] = row[sel], row[m]
        inv = pow(h[m][m - 1], q - 2, q)
        for i in range(m + 1, n):
            u = h[i][m - 1] * inv % q
            if u:
                h[i] = [(a - u * b) % q for a, b in zip(h[i], h[m])]
                for row in h:
                    row[m] = (row[m] + u * row[i]) % q
    # polys[m] = det(xI - h[:m, :m]); each new one is x * polys[m - 1]
    # minus the Hessenberg column m - 1 against the earlier ones
    polys = [[1]]
    for m in range(1, n + 1):
        new = [0] + polys[m - 1]
        for t, c in enumerate(polys[m - 1]):
            new[t] -= h[m - 1][m - 1] * c
        sub = 1
        for i in range(m - 1, 0, -1):
            sub = sub * h[i][i - 1] % q
            f = h[i - 1][m - 1] * sub
            for t, c in enumerate(polys[i - 1]):
                new[t] -= f * c
        polys.append([c % q for c in new])
    return polys[n]


def fq_roots(f, q):
    """The distinct roots of f in F_q, ascending, by evaluating f at each
    element of F_q."""
    roots = []
    for x in range(q):
        acc = 0
        for c in reversed(f):
            acc = (acc * x + c) % q
        if not acc:
            roots.append(x)
    return roots


# Miller-Rabin on the 13 prime bases 2..41 is exact below this bound
# (Sorenson and Webster, Math. Comp. 86, 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin test; ValueError for n at or above
    _MR_BOUND, where the bases no longer prove the answer."""
    if n >= _MR_BOUND:
        raise ValueError(f"{n} is too large for an exact primality test "
                         f"(the bound is {_MR_BOUND})")
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


_PRIMES = [2**61 - 1]  # the primes below 2^61 found so far, descending


def crt_primes():
    """The primes below 2^61, descending, without end; each found once."""
    for i in itertools.count():
        n = _PRIMES[-1]
        while i == len(_PRIMES):
            n -= 2
            if is_prime(n):
                _PRIMES.append(n)
        yield _PRIMES[i]


def crt_lift(residues, bound: int) -> list:
    """The ints v with |v| <= bound whose images mod q are the list
    residues(q), joined over the primes of `crt_primes` until their product
    exceeds 2 * bound, and read in balanced form."""
    modulus, values = 1, None
    for q in crt_primes():
        r = residues(q)
        inv = pow(modulus, -1, q)
        values = [v + modulus * ((x - v) * inv % q) for v, x in zip(values or [0] * len(r), r)]
        modulus *= q
        if modulus > 2 * bound:
            return [v - modulus if 2 * v > modulus else v for v in values]


def charpoly_int(m: list) -> list:
    """det(xI - m) for a square int matrix, ascending int coefficients.

    Coefficient k is +-the sum of the C(N, k) principal minors of size
    N - k, each at most B^(N - k) (Hadamard), B the largest column l1
    norm; `crt_lift` joins `fq_charpoly` up to their sum (B + 1)^N."""
    b = max(sum(map(abs, col)) for col in zip(*m))
    return crt_lift(lambda q: fq_charpoly(m, q), (b + 1) ** len(m))


def adjugate_int(m: list) -> list:
    """adj(m), with adj(m) m = m adj(m) = det(m) I, for a square int matrix.

    Fraction-free Gauss-Jordan on [m | I] (Bareiss, Math. Comp. 22, 1968),
    every division exact, leaves det(P m) m^-1 on the right for the row
    swaps P; columns left of the pivot are done and not updated.  When no
    pivot is left, m is singular and adj(m) = (-1)^(N+1) sum_j c_j m^(j-1)
    for charpoly_int(m) = sum_j c_j x^j (Cayley-Hamilton), by Horner."""
    n = len(m)
    a = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    sign, prev = 1, 1
    for k in range(n):
        sel = next((r for r in range(k, n) if a[r][k]), None)
        if sel is None:
            c = charpoly_int(m)
            acc = [[int(i == j) for j in range(n)] for i in range(n)]
            for j in range(n - 1, 0, -1):
                acc = [[sum(map(operator.mul, row, col)) + c[j] * (i == t) for t, col in enumerate(zip(*m))]
                       for i, row in enumerate(acc)]
            return [[(-1) ** (n + 1) * x for x in row] for row in acc]
        if sel != k:
            a[k], a[sel], sign = a[sel], a[k], -sign
        pivot, p = a[k], a[k][k]
        for i, row in enumerate(a):
            if i != k:
                f = row[k]
                row[k:] = [(p * x - f * y) // prev for x, y in zip(row[k:], pivot[k:])]
        prev = p
    return [[sign * x for x in row[n:]] for row in a]
