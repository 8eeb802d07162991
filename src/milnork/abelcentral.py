"""Abelian-by-central mod-l group fragments.

Groups are carried as (rank, relation subspace) data: the abelianization is
(Z/l)^n, the commutator pairing is the wedge square reduced modulo the
declared relations, and words are collected explicitly when a concrete
normal form is wanted.  The cohomological side is checked against an honest
2-cocycle solver on the finite elementary abelian group.
"""

import itertools
from math import comb, isqrt

from . import linalg


class BadSymbol(ValueError):
    pass


class TooLarge(ValueError):
    pass


class NotCompatible(ValueError):
    pass


class Mismatch(ValueError):
    def __init__(self, witness):
        self.witness = witness
        super().__init__("kernel mismatch at %r" % (witness,))


class AbcGroup:
    """A finitely generated abelian-by-central fragment: free rank n, prime
    l, and a declared subspace of the wedge square that the commutator map
    kills.  For l = 2 the central part tracked is the commutator span only.
    """

    def __init__(self, rank, ell, relations=()):
        self.rank = rank
        self.ell = ell
        self.wdim = linalg.wedge_dim(rank)
        self.relations = linalg.Subspace(self.wdim, relations, ell)

    def central_reduce(self, wvec):
        """Canonical coset representative modulo the relation subspace."""
        return self.relations.reduce(wvec)


def parse_word(text, rank):
    """Words like "x1 x2 x1^-1 x2^-1" or "x1*x3^2" into letter pairs."""
    letters = []
    for chunk in text.replace("*", " ").split():
        body = chunk
        exp = 1
        if "^" in chunk:
            body, e = chunk.split("^", 1)
            exp = int(e)
        if not body.startswith("x"):
            raise BadSymbol("unknown generator %r" % chunk)
        try:
            idx = int(body[1:]) - 1
        except ValueError:
            raise BadSymbol("unknown generator %r" % chunk)
        if not 0 <= idx < rank:
            raise BadSymbol("generator index out of range in %r" % chunk)
        sign = 1 if exp >= 0 else -1
        for _ in range(abs(exp)):
            letters.append((idx, sign))
    return letters


def word_normal_form(word, G):
    """Collect a word into (abelian exponent vector, central commutator part).

    Adjacent letters are swapped into sorted order, each transposition
    contributing a commutator; for odd l the l-th powers of generators are
    then discarded, since they die in the second Zassenhaus quotient.  For
    l = 2 only the commutator span is tracked, so squares are dropped from
    the reported central part as well.
    """
    if isinstance(word, str):
        word = parse_word(word, G.rank)
    n, l = G.rank, G.ell
    letters = []
    for idx, sign in word:
        if not 0 <= idx < n or sign not in (1, -1):
            raise BadSymbol("bad letter (%r, %r)" % (idx, sign))
        letters.append((idx, sign))
    central = [0] * G.wdim
    # insertion collection: move each letter left to its sorted position
    collected = []
    for idx, sign in letters:
        pos = len(collected)
        while pos > 0 and collected[pos - 1][0] > idx:
            j, s = collected[pos - 1]
            # swapping x_j^s past x_idx^sign contributes s*sign*[x_j, x_idx]
            w = linalg.wedge_index(idx, j, n)
            central[w] = (central[w] - s * sign) % l
            pos -= 1
        collected.insert(pos, (idx, sign))
    abelian = [0] * n
    for idx, sign in collected:
        abelian[idx] = (abelian[idx] + sign) % l
    return tuple(abelian), G.central_reduce(central)


# ---------------------------------------------------------------------------
# Brute-force second cohomology of elementary abelian groups.
# ---------------------------------------------------------------------------

class H2Result:
    def __init__(self, n, ell, dim, basis, col_index):
        self.n = n
        self.ell = ell
        self.dim = dim
        self.basis = basis          # column-value vectors spanning H^2 reps
        self._col_index = col_index

    def cocycle(self, xvec):
        """Reconstruct the full 2-cocycle from its column values, peeling
        the second argument one basis vector at a time:
        f(g, h+e_j) = f(g, h) + f(g+h, e_j) - f(h, e_j)."""
        n, l = self.n, self.ell

        def f(g, h):
            total = 0
            gg = tuple(g)
            pp = tuple(0 for _ in range(n))
            for j in range(n):
                for _ in range(h[j] % l):
                    total += xvec[self._col_index[(gg, j)]]
                    total -= xvec[self._col_index[(pp, j)]]
                    gg = _add_basis(gg, j, l)
                    pp = _add_basis(pp, j, l)
            return total % l

        return f


def _add_basis(g, j, l):
    out = list(g)
    out[j] = (out[j] + 1) % l
    return tuple(out)


def h2_brute_force(n, ell):
    """Dimension and basis of the degree-two cohomology of (Z/l)^n with
    trivial mod-l coefficients, by solving the 2-cocycle linear system.

    Normalized cocycles are determined by their values on pairs (g, e_j);
    peeling the last basis vector of the second argument turns the cocycle
    identity into linear conditions on those column values, and the identity
    for a general third argument follows by induction on its length.  The
    coboundaries are divided out exactly.

    The system is built one block of rows per generator e_k, plus the
    normalization rows, and reduced into a running echelon basis in float64
    (see `_echelon`); the blocks of the other first arguments g lie in the
    span of these.  Read the column (p, j) as the edge p -> p + e_j of the
    Cayley graph and T_g as the translation of 1-chains by g.  The row
    (g, h, j) is then (T_g - 1) gamma_{h,j}, where gamma_{h,j} =
    P_h + (h, j) - P_{h+e_j} and P_h is the peeling path from 0 to h.  The
    peeling paths form a spanning tree, so the gamma_{h,j}, the fundamental
    cycles of its non-tree edges, span the cycle space Z_1, and T_g maps
    Z_1 to itself.  Block g thus spans (T_g - 1) Z_1, and from
    (T_{g+e_k} - 1) z = (T_{e_k} - 1)(T_g z) + (T_g - 1) z, induction on the
    word length of g puts every block in the span of the generator blocks.
    The reduced echelon form of a row space is unique, so the result is
    that of the full system.

    The blocks are built unreduced: S has 0/1 entries, so a block row lies
    in -2..2, and its product with the basis (entries in 0..l-1) stays
    within ncols * 2 * (l - 1) + 2, with ncols = n * l^n.  Every other
    product is of entries in 0..l-1 and stays within
    ncols * (l - 1)^2 + (l - 1), the bound of the merge.  Inside the budget
    l^n <= 243 both are below 240^2 * 1215 + 240 < 2^52, so every float
    operation and every reduction (`_mod`) is exact.  Raises ValueError for
    n < 0 or l not prime, and TooLarge beyond the budget.
    """
    if not isinstance(n, int) or n < 0:
        raise ValueError("n must be a nonnegative integer, not %r" % (n,))
    if not isinstance(ell, int) or ell < 2:
        raise ValueError("l must be a prime, not %r" % (ell,))
    if n >= 8 or ell ** n > 243:
        raise TooLarge("group of order %d**%d is beyond the brute-force "
                       "budget" % (ell, n))
    if any(ell % q == 0 for q in range(2, isqrt(ell) + 1)):
        raise ValueError("l must be a prime, not %r" % (ell,))
    import numpy as np

    l = ell
    elements = list(itertools.product(range(l), repeat=n))
    size = len(elements)
    ncols = size * n
    # column (g, j) holds f(g, e_j); group elements are indexed in
    # lexicographic order, so e_j has index l^(n-1-j)
    weights = l ** np.arange(n - 1, -1, -1, dtype=np.intp)
    digits = np.array(elements, dtype=np.intp).reshape(size, n)
    add = ((digits[:, None, :] + digits[None, :, :]) % l) @ weights
    neg = ((-digits) % l) @ weights
    step = add[:, weights]                  # step[h, j] = h + e_j
    # index h * n + j of the pair (h, j): a row of a block, or a column
    hj = np.arange(ncols)
    hh = np.repeat(np.arange(size), n)
    jj = np.tile(np.arange(n), size)
    # S[h] = P(0, h) sums the columns (p, j) of the steps p -> p + e_j on
    # the peeling path from 0 to h; the path to h is the path to h - e_j*
    # followed by one step in the last nonzero coordinate j*; a path visits
    # each step once, so S is 0/1 and int8 holds it and the blocks
    S = np.zeros((size, ncols), dtype=np.int8)
    for h in range(1, size):
        last = n - 1 - int(np.flatnonzero(digits[h, ::-1])[0])
        prev = h - int(weights[last])
        S[h] = S[prev]
        S[h, prev * n + last] += 1

    def blocks():
        # f(0, e_j) = 0 for a normalized cocycle
        yield np.eye(n, ncols)
        # g = e_0, ..., e_{n-1}: every other block lies in their span
        for g in weights:
            # hat(g, h) = P(g, h) - P(0, h), where P(g, h) is P(0, h) with
            # every column (p, j) moved to (g + p, j)
            hat = S[:, add[hh, neg[g]] * n + jj] - S
            # f(g, h) + f(g+h, e_j) - f(h, e_j) - f(g, h+e_j) = 0
            rows = (hat[:, None, :] - hat[step]).reshape(ncols, ncols)
            rows[hj, add[g, hh] * n + jj] += 1
            rows[hj, hj] -= 1
            yield rows[rows.any(axis=1)].astype(np.float64)

    R, pivots = _echelon(blocks(), ncols, l)
    # cocycles: the kernel, one vector per non-pivot column
    free = np.setdiff1d(np.arange(ncols), pivots)
    Z = np.zeros((len(free), ncols))
    Z[np.arange(len(free)), free] = 1
    Z[:, pivots] = _mod(-R[:, free].T, l)
    # coboundary columns: delta c (g, e_j) = c(g) + c(e_j) - c(g + e_j),
    # one per normalized 1-cochain c = [h], h != 0 (index 0)
    D = np.zeros((ncols, size), dtype=np.int64)
    np.add.at(D, (hj, hh), 1)
    np.add.at(D, (hj, weights[jj]), 1)
    np.add.at(D, (hj, step[hh, jj]), -1)
    B, bpivots = _echelon([D[:, 1:].T.astype(np.float64)], ncols, l)
    dim_h2 = len(Z) - len(B)
    # quotient basis: the cocycles that are independent of the coboundaries
    # and of the cocycles before them, i.e. the pivot columns of the
    # cocycles reduced modulo the coboundaries and set side by side
    Y = _mod(Z - Z[:, bpivots] @ B, l)
    _, chosen = _echelon([Y.T.copy()], len(Z), l)
    basis = [tuple(int(x) for x in Z[i]) for i in chosen]
    col_index = {(g, j): i * n + j
                 for i, g in enumerate(elements) for j in range(n)}
    return H2Result(n, ell, dim_h2, basis, col_index)


def _echelon(blocks, ncols, l):
    """The reduced row echelon basis over F_l, and its pivot columns, of the
    rows of a stream of float64 blocks of integers.

    The basis R is kept reduced, with entries in 0..l-1.  Each block C is
    first reduced against it as C - C[:, pivots] @ R, on the non-pivot
    columns only since the pivot columns cancel, and only then modulo l,
    so a block needs no reduction of its own: with entries of absolute
    value at most b, that product stays within ncols * b * (l - 1) + b,
    which `_mod` must reduce exactly.  The rows left over go through
    Gauss-Jordan and are merged back.  The reduced echelon form of a row
    space is unique, so the order of the rows does not change the result.
    """
    import numpy as np

    R = np.zeros((0, ncols))
    pivots = np.zeros(0, dtype=np.intp)
    free = np.arange(ncols)
    R_free = R
    for C in blocks:
        if not len(free):
            break
        C = _mod(C[:, free] - C[:, pivots] @ R_free, l)
        C = C[C.any(axis=1)]
        if not len(C):
            continue
        new, at = _gauss_jordan(C, l)
        new_pivots = free[at]
        N = np.zeros((len(new), ncols))
        N[:, free] = new
        R = np.vstack([_mod(R - R[:, new_pivots] @ N, l), N])
        pivots = np.concatenate([pivots, new_pivots])
        order = np.argsort(pivots)
        R, pivots = R[order], pivots[order]
        free = np.setdiff1d(free, new_pivots)
        R_free = R[:, free]
    return R, pivots


def _gauss_jordan(A, l):
    """Reduced row echelon form of a float64 matrix with entries in 0..l-1,
    in place; returns the nonzero rows and their pivot columns."""
    import numpy as np

    nrows, ncols = A.shape
    r = 0
    pivots = []
    for c in range(ncols):
        if r == nrows:
            break
        nz = np.flatnonzero(A[r:, c])
        if not len(nz):
            continue
        p = r + int(nz[0])
        if p != r:
            A[[r, p]] = A[[p, r]]
        inv = pow(int(A[r, c]), -1, l)
        if inv != 1:
            A[r, c:] = _mod(A[r, c:] * inv, l)
        hits = np.flatnonzero(A[:, c])
        hits = hits[hits != r]
        if len(hits):
            A[hits, c:] = _mod(A[hits, c:] - np.outer(A[hits, c], A[r, c:]), l)
        pivots.append(c)
        r += 1
    return A[:r], np.array(pivots, dtype=np.intp)


def _mod(C, l):
    """C mod l, in place, for a float64 array of integers x with
    |x| <= 2^53 - 2l; returns C.

    The quotient q = floor(x * (1/l)) is off by at most one, since the two
    roundings err by less than |x / l| * 2^-52 < 1, so |q * l| < |x| + 2l
    is exact, and one correction each way lands every entry in 0..l-1.
    Float `%` calls fmod per entry; this is a few vector multiplies.
    """
    import numpy as np

    q = C * (1.0 / l)
    np.floor(q, out=q)
    q *= l
    C -= q
    np.add(C, l, out=C, where=C < 0)
    np.subtract(C, l, out=C, where=C >= l)
    return C


def h2_predicted_dim(n, ell):
    """The presentation count: wedge plus Bockstein summands for odd l, the
    symmetric square for l = 2."""
    if ell == 2:
        return comb(n + 1, 2)
    return comb(n, 2) + n


# ---------------------------------------------------------------------------
# Upsilon and the duality with the multiplication fragment.
# ---------------------------------------------------------------------------

class UpsilonMap:
    """Dual of the commutator pairing: functionals on the central quotient
    land in the wedge square of the dual of the abelianization.  The
    commutator map on wedge coordinates is the quotient projection, so its
    dual is composition, the transpose acting on functionals: Upsilon(f)
    is f itself on wedge coordinates, for f that kills the relations."""

    def __init__(self, G):
        self.G = G

    def pairing_identity_holds(self):
        """<Upsilon(f), u ^ v> = f([u, v]) for basis functionals f and basis
        vectors u, v.  The two sides differ by f at u ^ v minus its
        reduction, a vector of the relation span that these differences
        span, so the identity holds exactly when every basis functional
        kills every relation basis vector."""
        G = self.G
        return all(sum(a * b for a, b in zip(f, r)) % G.ell == 0
                   for f in G.relations.annihilator().basis or ()
                   for r in G.relations.basis)


def upsilon(G):
    return UpsilonMap(G)


class MultFragment:
    """A finite fragment of the degree-two multiplication: the wedge square
    of a declared span of degree-one classes, modulo a known kernel."""

    def __init__(self, n, ell, kernel_vectors=()):
        self.n = n
        self.ell = ell
        self.kernel = linalg.Subspace(linalg.wedge_dim(n), kernel_vectors, ell)


def duality_check(mult, G):
    """The kernel of the commutator pairing must equal the kernel of the
    multiplication fragment, exactly as subspaces; the inclusion of the one
    is dual to the surjection of the other.  The commutator map on wedge
    coordinates is the reduction modulo the relations, so its kernel is
    the relation subspace."""
    if mult.n != G.rank or mult.ell != G.ell:
        raise NotCompatible("fragment shapes disagree")
    R, W = G.relations, mult.kernel
    if R == W:
        return {"passed": True, "kernel_dim": R.dim}
    for v in R.basis:
        if not W.contains(v):
            raise Mismatch(v)
    # R lies in W and differs from it, so some vector of W lies outside R
    raise Mismatch(next(v for v in W.basis if not R.contains(v)))


# ---------------------------------------------------------------------------
# The Kummer bridge on finite fragments.
# ---------------------------------------------------------------------------

def kummer_bridge(phi, mult_K, mult_L, pairing_K=None, pairing_L=None):
    """Transport an isomorphism of degree-one fragments, compatible with the
    degree-two multiplication, to the dual isomorphism of the group-side
    fragments through the declared pairings.

    The defining identity is pairing_L(sigma, phi x) = pairing_K(psi sigma, x).
    Raises NotCompatible when phi does not match the two kernels.
    """
    n, l = mult_K.n, mult_K.ell
    if mult_L.n != n or mult_L.ell != l:
        raise NotCompatible("fragment shapes disagree")
    phi = linalg.mat(phi, l)
    if not linalg.is_invertible(phi, l):
        raise NotCompatible("phi is not invertible")
    wphi = linalg.wedge_map(phi, n, l)
    for v in mult_K.kernel.basis:
        img = linalg.mat_vec(wphi, v, l)
        if not mult_L.kernel.contains(img):
            raise NotCompatible("phi does not send the kernel into the kernel")
    # wphi is injective and sends the one kernel into the other, so its
    # inverse sends the other back exactly when their dimensions agree
    if mult_K.kernel.dim != mult_L.kernel.dim:
        raise NotCompatible("phi inverse does not send the kernel back")
    BK = linalg.mat(pairing_K, l) if pairing_K is not None else linalg.identity(n)
    BL = linalg.mat(pairing_L, l) if pairing_L is not None else linalg.identity(n)
    if not (linalg.is_invertible(BK, l) and linalg.is_invertible(BL, l)):
        raise NotCompatible("pairings must be perfect")
    # sigma^T BL (phi x) = (psi sigma)^T BK x for all sigma, x
    psi = linalg.transpose(
        linalg.mat_mul(linalg.mat_mul(BL, phi, l), linalg.inverse(BK, l), l))
    return psi
