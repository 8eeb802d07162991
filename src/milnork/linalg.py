"""Dense linear algebra over Z/l for small matrices.

Matrices are tuples of row tuples with entries reduced mod l.  Everything
here is exact; l is assumed prime throughout.
"""

from itertools import combinations


def identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat(rows, l):
    return tuple(tuple(e % l for e in row) for row in rows)


def mat_vec(A, v, l):
    return tuple(sum(a * b for a, b in zip(row, v)) % l for row in A)


def mat_mul(A, B, l):
    if not B:
        return tuple(() for _ in A)
    cols = list(zip(*B))
    return tuple(
        tuple(sum(a * b for a, b in zip(row, col)) % l for col in cols) for row in A
    )


def transpose(A):
    return tuple(zip(*A)) if A else ()


def sub_vec(u, v, l):
    return tuple((a - b) % l for a, b in zip(u, v))


def rref(A, l):
    """Row-reduce A mod l.  Returns (rows, pivot column indices)."""
    rows = [list(r) for r in A]
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] % l), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = pow(rows[r][c], -1, l)
        rows[r] = [(x * inv) % l for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(x - f * y) % l for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return tuple(tuple(row) for row in rows[:r]), tuple(pivots)


def rank(A, l):
    return len(rref(A, l)[0])


def nullspace(A, l):
    """Basis of the right kernel of A, as row vectors."""
    if not A:
        return ()
    ncols = len(A[0])
    R, pivots = rref(A, l)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [0] * ncols
        v[f] = 1
        for row, p in zip(R, pivots):
            v[p] = (-row[f]) % l
        basis.append(tuple(v))
    return tuple(basis)


def presolve(A, l):
    """Factor the full-column-rank system A x = b once; the returned function
    solves for each right-hand side in quadratic time, returning None when b
    is outside the column space."""
    m = len(A)
    n = len(A[0]) if A else 0
    aug = tuple(tuple(A[i]) + tuple(1 if j == i else 0 for j in range(m))
                for i in range(m))
    R, pivots = rref(aug, l)
    pivots = [p for p in pivots if p < n]
    if len(pivots) != n:
        raise ValueError("presolve needs full column rank")
    # full column rank: the reduced left block is an identity on pivot rows,
    # so U b reads off the solution and the trailing rows test membership
    U = tuple(row[n:] for row in R)

    def solve_one(b):
        x = [0] * n
        for r in range(len(U)):
            ub = sum(u * v for u, v in zip(U[r], b)) % l
            if r < n:
                x[r] = ub
            elif ub:
                return None
        return tuple(x)

    return solve_one


def inverse(A, l):
    n = len(A)
    unit = identity(n)
    aug = tuple(tuple(A[i]) + unit[i] for i in range(n))
    R, pivots = rref(aug, l)
    if tuple(pivots)[:n] != tuple(range(n)):
        raise ValueError("matrix not invertible mod %d" % l)
    return tuple(row[n:] for row in R[:n])


def is_invertible(A, l):
    return len(A) > 0 and rank(A, l) == len(A) == len(A[0])


class Subspace:
    """Subspace of (Z/l)^n in reduced row echelon form."""

    def __init__(self, n, vectors, l):
        self.n = n
        self.l = l
        rows = [v for v in vectors if any(x % l for x in v)]
        self.basis, self._pivots = rref(tuple(rows), l)

    @property
    def dim(self):
        return len(self.basis)

    def reduce(self, v):
        """The canonical representative of v modulo the subspace: v with
        the pivot coordinates of the basis cleared."""
        v = [x % self.l for x in v]
        for row, p in zip(self.basis, self._pivots):
            if v[p]:
                f = v[p]
                v = [(a - f * b) % self.l for a, b in zip(v, row)]
        return tuple(v)

    def contains(self, v):
        return not any(self.reduce(v))

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.n == other.n
            and self.basis == other.basis
        )

    def annihilator(self):
        """All v with <v, w> = 0 for every w in the subspace."""
        if not self.basis:
            return Subspace(self.n, identity(self.n), self.l)
        return Subspace(self.n, nullspace(self.basis, self.l), self.l)


# Wedge-square coordinates: basis e_i ^ e_j for i < j in lexicographic order.

def wedge_dim(n):
    return n * (n - 1) // 2


def wedge_index(i, j, n):
    if not 0 <= i < j < n:
        raise ValueError("wedge index wants i < j")
    return i * (2 * n - i - 1) // 2 + (j - i - 1)


def wedge_vec(u, v, n, l):
    return tuple((u[i] * v[j] - u[j] * v[i]) % l for i, j in combinations(range(n), 2))


def wedge_map(phi, n, l):
    """Matrix of the induced map on wedge squares, acting on wedge coordinates.

    phi is n x n acting on column vectors; the result is wedge_dim(n) square.
    """
    cols = []
    for i, j in combinations(range(n), 2):
        u = tuple(phi[r][i] for r in range(n))
        v = tuple(phi[r][j] for r in range(n))
        cols.append(wedge_vec(u, v, n, l))
    return transpose(tuple(cols))
