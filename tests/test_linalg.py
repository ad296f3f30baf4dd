import itertools
import random
from fractions import Fraction

from holring import linalg
from holring.linalg import (
    adjugate_int,
    charpoly_int,
    crt_lift,
    crt_primes,
    det_bareiss,
    fq_charpoly,
    fq_kernel,
    fq_roots,
    fq_rref,
    lincomb,
)


def _det_mod(mat, q):
    m = [list(r) for r in mat]
    det = 1
    for c in range(len(m)):
        sel = next((r for r in range(c, len(m)) if m[r][c] % q), None)
        if sel is None:
            return 0
        if sel != c:
            m[c], m[sel] = m[sel], m[c]
            det = -det
        det = det * m[c][c] % q
        inv = pow(m[c][c], q - 2, q)
        for r in range(c + 1, len(m)):
            f = m[r][c] * inv
            m[r] = [(a - f * b) % q for a, b in zip(m[r], m[c])]
    return det % q


def test_charpoly_is_det_x_minus_m_at_every_point():
    rng = random.Random(15)
    q = 7
    cases = [
        [[3 if s == t else 0 for t in range(5)] for s in range(5)],  # scalar
        [[1 if t == s + 1 else 0 for t in range(6)] for s in range(6)],  # nilpotent
        [[0, 0, 1], [0, 2, 0], [5, 0, 4]],  # h[1][0] = 0: needs the row swap
    ]
    # repeated eigenvalues: P diag(2, 2, 2, 5, 5) P^-1 with P unipotent
    p = [[1 if s == t else (rng.randrange(q) if t > s else 0) for t in range(5)]
         for s in range(5)]
    p_inv = [[0] * 5 for _ in range(5)]
    for col in range(5):
        e = [1 if s == col else 0 for s in range(5)]
        for s in reversed(range(5)):
            p_inv[s][col] = (e[s] - sum(p[s][t] * p_inv[t][col]
                                        for t in range(s + 1, 5))) % q
    diag = [2, 2, 2, 5, 5]
    cases.append([[sum(p[s][u] * diag[u] * p_inv[u][t] for u in range(5)) % q
                   for t in range(5)] for s in range(5)])
    for n in range(1, 9):
        cases.append([[rng.randrange(q) for _ in range(n)] for _ in range(n)])
    for mat in cases:
        n = len(mat)
        f = fq_charpoly(mat, q)
        assert len(f) == n + 1 and f[-1] == 1
        for x in range(q):
            shifted = [[((x if s == t else 0) - mat[s][t]) % q for t in range(n)]
                       for s in range(n)]
            assert sum(c * x**i for i, c in enumerate(f)) % q == _det_mod(shifted, q)
    assert fq_roots(fq_charpoly(cases[3], q), q) == [2, 5]
    assert fq_roots(fq_charpoly(cases[1], q), q) == [0]


def test_charpoly_reduces_its_input_before_choosing_pivots():
    # the 7 below h[1][0] is 0 in F_7, so it is no pivot: the row swap
    # brings up the 1 beneath it
    mat = [[0, 0, 1], [7, 0, 0], [1, 1, 0]]
    assert fq_charpoly(mat, 7) == fq_charpoly([[x % 7 for x in row] for row in mat], 7) == [0, 6, 0, 1]


# small matrices over F_5, so row spaces and kernels can be listed in full
Q = 5


def _small_cases():
    rng = random.Random(27)
    cases = [
        [[0, 0, 0], [0, 0, 0]],  # zero
        [[1 if s == t else 0 for t in range(4)] for s in range(4)],  # identity
        [[1, 2, 3], [2, 4, 6], [0, 0, 0]],  # rank 1
        [[0, 1, 2, 3], [0, 2, 4, 1], [0, 3, 1, 4]],  # rank 2, zero first column
        [[-3, 7, 10], [12, -1, 5]],  # entries outside 0..q-1
    ]
    for rows, cols in [(1, 4), (2, 3), (3, 3), (3, 4), (4, 2), (4, 4)]:
        cases.append([[rng.randrange(Q) for _ in range(cols)] for _ in range(rows)])
    # rank-deficient: a third row that is a combination of the first two
    a, b = ([rng.randrange(Q) for _ in range(4)] for _ in range(2))
    cases.append([a, b, [(2 * x + 3 * y) % Q for x, y in zip(a, b)]])
    return cases


def _span(rows, width):
    """Every F_Q combination of the rows, listed."""
    return {
        tuple(sum(c * r[t] for c, r in zip(coeffs, rows)) % Q for t in range(width))
        for coeffs in itertools.product(range(Q), repeat=len(rows))
    }


def _matvec(mat, v):
    return [sum(x * y for x, y in zip(row, v)) % Q for row in mat]


def test_rref_is_reduced_with_the_same_row_space():
    for mat in _small_cases():
        width = len(mat[0])
        rref, pivots = fq_rref(mat, Q)
        assert len(rref) == len(pivots)
        assert pivots == sorted(set(pivots))
        for r, (row, pc) in enumerate(zip(rref, pivots)):
            assert all(0 <= x < Q for x in row)
            assert row[pc] == 1 and not any(row[:pc])
            assert all(rref[s][pc] == 0 for s in range(len(rref)) if s != r)
        assert _span(rref, width) == _span(mat, width), mat


def test_rref_of_zero_and_identity():
    assert fq_rref([[0, 0], [0, 0]], Q) == ([], [])
    ident = [[1 if s == t else 0 for t in range(3)] for s in range(3)]
    assert fq_rref(ident, Q) == (ident, [0, 1, 2])


def test_kernel_is_annihilated_and_rank_plus_nullity_is_n():
    for mat in _small_cases():
        n = len(mat[0])
        kernel = fq_kernel(mat, Q)
        for v in kernel:
            assert _matvec(mat, v) == [0] * len(mat)
        rank = len(fq_rref(mat, Q)[0])
        assert rank + len(kernel) == n
        # the kernel has Q^nullity vectors, and its basis spans them all
        every = {v for v in itertools.product(range(Q), repeat=n) if not any(_matvec(mat, v))}
        assert _span(kernel, n) == every, mat


def _det_fraction(m):
    """Gaussian elimination over Fractions."""
    a = [[Fraction(x) for x in row] for row in m]
    n = len(a)
    det = Fraction(1)
    for c in range(n):
        sel = next((r for r in range(c, n) if a[r][c]), None)
        if sel is None:
            return Fraction(0)
        if sel != c:
            a[c], a[sel] = a[sel], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return det


def test_bareiss_matches_fraction_elimination():
    rng = random.Random(7)
    cases = [
        [[-4]],  # 1 x 1
        [[1, 2, 3], [2, 4, 6], [1, 0, 1]],  # singular
        [[0, 2, 1], [3, 1, 0], [1, 1, 1]],  # zero leading pivot: needs a swap
        [[1, 1, 2], [1, 1, 5], [2, 3, 1]],  # zero pivot at step 1
        [[0, 0], [0, 0]],
    ]
    for n in range(1, 7):
        for _ in range(4):
            cases.append([[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)])
    for mat in cases:
        det = det_bareiss(mat)
        assert isinstance(det, int)
        assert det == _det_fraction(mat), mat
    assert det_bareiss(cases[1]) == 0
    assert det_bareiss(cases[2]) == -4


def test_lincomb_over_ints_and_fractions():
    rows = [[1, 2, 3], [0, -1, 4], [5, 5, 5]]
    assert lincomb([2, 0, -1], rows) == [-3, -1, 1]
    assert lincomb([0, 0, 0], rows) == [0, 0, 0]
    half = Fraction(1, 2)
    out = lincomb([half, 3], [[Fraction(2, 3), 1], [Fraction(1, 9), 0]])
    assert out == [Fraction(2, 3), half]
    assert all(isinstance(x, Fraction) for x in out)


# ------------------------------------------------------ over Z, by CRT


def _int_cases():
    """Seeded int matrices: random, singular, rank N - 1, nilpotent and
    scalar, of sizes 1..6."""
    rng = random.Random(61)
    cases = [[[0]], [[-7]], [[0, 0], [0, 0]]]
    for n in range(1, 7):
        cases.append([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
        sing = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        sing[-1] = [2 * x - y for x, y in zip(sing[0], sing[-1 if n == 1 else 1])]
        cases.append(sing)
        if n > 1:  # rank n - 1: an n x (n - 1) times an (n - 1) x n product
            u = [[rng.randint(-3, 3) for _ in range(n - 1)] for _ in range(n)]
            v = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n - 1)]
            cases.append(_matmul(u, v))
        cases.append([[rng.randint(-5, 5) if t > s else 0 for t in range(n)] for s in range(n)])
        cases.append([[-4 if s == t else 0 for t in range(n)] for s in range(n)])
    return cases


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def test_crt_primes_descend_below_2_61():
    first = list(itertools.islice(crt_primes(), 4))
    assert first[0] == 2**61 - 1
    assert first == sorted(first, reverse=True) and first[-1] > 2**60
    for q in first:
        assert all(pow(b, q - 1, q) == 1 for b in (2, 3, 5, 7))


def test_crt_lift_recovers_signed_values_at_the_bound():
    bound = 3**100
    values = [bound, -bound, 0, 1, -1, bound // 7]
    assert crt_lift(lambda q: [v % q for v in values], bound) == values


def test_charpoly_int_is_det_x_minus_m_at_every_point():
    for mat in _int_cases():
        n = len(mat)
        coeffs = charpoly_int(mat)
        assert len(coeffs) == n + 1 and coeffs[n] == 1
        assert all(isinstance(c, int) for c in coeffs)
        for x in range(-3, 4):
            xm = [[(x if s == t else 0) - mat[s][t] for t in range(n)] for s in range(n)]
            assert sum(c * x**k for k, c in enumerate(coeffs)) == _det_fraction(xm), mat


def test_charpoly_int_joins_several_primes(monkeypatch):
    # entries near 10^6 in a 6 x 6 matrix: det alone is near 2^130
    rng = random.Random(62)
    mat = [[rng.randint(-10**6, 10**6) for _ in range(6)] for _ in range(6)]
    primes = []

    def counted(m, q):
        primes.append(q)
        return fq_charpoly(m, q)

    monkeypatch.setattr(linalg, "fq_charpoly", counted)
    coeffs = charpoly_int(mat)
    assert len(set(primes)) >= 2
    assert coeffs[0] == _det_fraction(mat)  # (-1)^6 det
    assert -coeffs[5] == sum(mat[s][s] for s in range(6))


def test_adjugate_times_m_is_det_times_identity():
    for mat in _int_cases():
        n = len(mat)
        adj = adjugate_int(mat)
        det = _det_fraction(mat)
        scalar = [[det if s == t else 0 for t in range(n)] for s in range(n)]
        assert _matmul(adj, mat) == scalar and _matmul(mat, adj) == scalar, mat
        assert all(isinstance(x, int) for row in adj for x in row)


def test_adjugate_of_singular_matrices():
    # rank n - 2 or less: adj = 0; rank n - 1: adj has rank one and is
    # not 0; a 1 x 1 matrix has adj [1] even at 0
    assert adjugate_int([[0]]) == [[1]]
    assert adjugate_int([[0, 0], [0, 0]]) == [[0, 0], [0, 0]]
    nil = [[0, 1, 0], [0, 0, 1], [0, 0, 0]]
    assert adjugate_int(nil) == [[0, 0, 1], [0, 0, 0], [0, 0, 0]]
    assert adjugate_int([[1, 2, 3], [2, 4, 6], [3, 6, 9]]) == [[0] * 3] * 3
