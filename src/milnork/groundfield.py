"""Exact arithmetic in a computable algebraic closure of F_p and in the
rational function field over it.

The closure is modelled by finite fields F_{p^m} glued along a divisibility
spine: every instantiated level divides the top spine level, and all
embeddings are solved through the top, which makes them compatible by
construction.  Elements never leave exact arithmetic.
"""

import random
from math import comb, gcd

from . import linalg


class LevelError(ValueError):
    """Embedding requested between incomparable tower levels."""


class ZeroError(ZeroDivisionError):
    """Root or inverse of zero requested."""


class ZeroPolyError(ValueError):
    """Root finding on the zero polynomial."""


class ZeroInputError(ValueError):
    """Valuation of the zero function requested."""


class _Infinity:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance


INF = _Infinity()


def _lcm(a, b):
    return a * b // gcd(a, b)


def is_prime(n):
    """Exact primality of an integer, by trial division."""
    return n >= 2 and _prime_factors(n) == [n]


def _prime_factors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _sqrt_mod(a, p):
    """A square root of a modulo the odd prime p (a prime to p), or None
    when a is not a square: Tonelli-Shanks with the least non-residue, so
    deterministic."""
    a %= p
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = next(z for z in range(2, p) if pow(z, (p - 1) // 2, p) == p - 1)
    c, t, r = pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (s - i - 1), p)
        s, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


# ---------------------------------------------------------------------------
# The tower.
# ---------------------------------------------------------------------------

class FieldTower:
    """A compatible tower of finite fields modelling the closure of F_p.

    Levels are instantiated lazily.  The spine is a divisibility chain of
    levels 1 | M_1 | M_2 | ...; whenever a level m outside the chain is
    needed, the top grows to lcm(top, m) first.  Each level m stores the
    image of its power-basis generator inside the top field, so embeddings
    between comparable levels are solved exactly through the top.

    Level 1 is the prime field.  One dense polynomial stack over the levels
    (the _lp_* methods) finds the moduli, grows the spine and finds roots.
    Growing the spine draws from the tower's own stream (_rng); a level
    inside the top draws from a stream keyed by the level and the top, and
    each root find draws its probes from a stream keyed by its polynomial.
    So the record, which lists the levels in level order, depends only on
    how the spine grew and which levels were built inside each top: a root
    find that builds the minimal level of a root moves no modulus.
    """

    def __init__(self, p, seed=0):
        if not is_prime(p):
            raise ValueError("p must be prime")
        self.p = p
        self.seed = seed
        self._rng = random.Random(("tower", p, seed).__repr__())
        # level m -> its monic modulus, a little-endian int list of length m+1
        self._levels = {1: [0, 1]}
        self._spine = [1]
        self._gen_top = {1: (0,)}  # image of the level generator in the top
        self._embed_solvers = {}   # level -> (top, solver data)

    # -- public -------------------------------------------------------------

    @property
    def top(self):
        return self._spine[-1]

    def levels(self):
        return sorted(self._levels)

    def zero(self):
        return GroundElem(self, 1, (0,))

    def one(self):
        return GroundElem(self, 1, (1,))

    def from_int(self, k):
        return GroundElem(self, 1, (k % self.p,))

    def element(self, level, coeffs):
        # checked before the level is built: a large level is costly to build
        if len(coeffs) != level:
            raise ValueError("coefficient vector must have length %d" % level)
        if not all(type(c) is int for c in coeffs):
            raise ValueError("coefficients must be integers")
        self.ensure_level(level)
        return GroundElem(self, level, tuple(c % self.p for c in coeffs))

    def element_from_index(self, level, k):
        """The k-th element of F_{p^level} in base-p digit order."""
        self.ensure_level(level)
        digits = []
        for _ in range(level):
            digits.append(k % self.p)
            k //= self.p
        return GroundElem(self, level, tuple(digits))

    def ensure_level(self, m):
        if m in self._levels:
            return
        if self.top % m:
            self._grow_spine(_lcm(self.top, m))
        if m in self._levels:
            return
        # a level inside the top draws from a stream of its own, so building
        # it moves no other level's modulus
        T = self.top
        rng = random.Random(repr(("level", self.p, self.seed, m, T)))
        f = [c for (c,) in self._find_irreducible_over(1, m, rng)]
        # the generator's image: a root of f in the top field
        self._levels[m] = f
        self._gen_top[m] = self._lp_root([(c,) + (0,) * (T - 1) for c in f], T, rng)

    def snapshot(self):
        """Deterministic record of all tower choices made so far."""
        return {
            "p": self.p,
            "seed": self.seed,
            "spine": list(self._spine),
            "levels": [{"level": m, "modulus": list(self._levels[m])}
                       for m in sorted(self._levels)],
        }

    # -- level arithmetic (coefficient tuples) ------------------------------

    def _add(self, level, a, b):
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def _sub(self, level, a, b):
        p = self.p
        return tuple((x - y) % p for x, y in zip(a, b))

    def _neg(self, level, a):
        p = self.p
        return tuple((-x) % p for x in a)

    def _mul(self, level, a, b):
        p = self.p
        if level == 1:
            return (a[0] * b[0] % p,)
        # schoolbook product, then reduction by the monic modulus from the top
        f = self._levels[level]
        out = [0] * (2 * level - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        for k in range(2 * level - 2, level - 1, -1):
            c = out[k] % p
            if c:
                for i in range(level):
                    out[k - level + i] -= c * f[i]
        return tuple(x % p for x in out[:level])

    def _inv(self, level, a):
        if not any(a):
            raise ZeroError("inverse of zero")
        if level == 1:
            return (pow(a[0], -1, self.p),)
        return self._pow(level, a, self.p ** level - 2)

    def _pow(self, level, a, e):
        if e < 0:
            a = self._inv(level, a)
            e = -e
        result = tuple([1] + [0] * (level - 1))
        while e:
            if e & 1:
                result = self._mul(level, result, a)
            a = self._mul(level, a, a)
            e >>= 1
        return result

    # -- spine and embeddings ------------------------------------------------

    def _grow_spine(self, new_top):
        old = self.top
        e = new_top // old
        p = self.p
        # irreducible g of degree e over the old top field
        g = self._find_irreducible_over(old, e, self._rng)
        # elements of the composite ring are length-e lists of old-top vectors
        zero_old = tuple([0] * old)
        one_old = tuple([1] + [0] * (old - 1))
        x_old = self._gen_vector(old)
        # search a primitive element z = y + c * x_old
        for idx in range(p ** old):
            c = self.element_from_index(old, idx).coeffs
            z = [self._mul(old, c, x_old), one_old] + [zero_old] * (e - 2)
            flat_rows = []
            power = [one_old] + [zero_old] * (e - 1)
            for k in range(new_top):
                flat_rows.append(tuple(v for blk in power for v in blk))
                power = self._lp_mod(self._lp_mul(power, z, old), g, old)
                power += [zero_old] * (e - len(power))
            # minimal polynomial: solve flat(z^new_top) = sum c_k flat(z^k)
            target = tuple(v for blk in power for v in blk)
            # columns are z^k in the tensor basis; singular when z is not
            # primitive
            try:
                zinv = linalg.inverse(linalg.transpose(tuple(flat_rows)), p)
            except ValueError:
                continue
            sol = linalg.mat_vec(zinv, target, p)
            minpoly = [(-s) % p for s in sol] + [1]
            self._levels[new_top] = minpoly
            # refresh generator images: everything factored through the old top
            new_gen = {}
            for m, v in self._gen_top.items():
                flat = tuple(list(v) + [0] * (new_top - old))
                new_gen[m] = tuple(linalg.mat_vec(zinv, flat, p))
            new_gen[new_top] = self._gen_vector(new_top)
            self._gen_top = new_gen
            self._spine.append(new_top)
            self._embed_solvers.clear()
            return
        raise ArithmeticError("no primitive element found while growing the tower")

    def _gen_vector(self, level):
        if level == 1:
            return (0,)
        return tuple(1 if i == 1 else 0 for i in range(level))

    def _find_irreducible_over(self, level, degree, rng):
        """Random monic irreducible of given degree over F_{p^level}."""
        one = tuple([1] + [0] * (level - 1))
        q = self.p ** level
        while True:
            g = [tuple(self.element_from_index(level, rng.randrange(q)).coeffs)
                 for _ in range(degree)] + [one]
            if self._lpoly_irreducible(g, level):
                return g

    # dense polynomials over a level: little-endian lists of coefficient
    # tuples; level 1 is F_p, so this is the one polynomial stack

    def _lp_trim(self, a):
        while a and not any(a[-1]):
            a.pop()
        return a

    def _lp_mul(self, a, b, level):
        if not a or not b:
            return []
        zero = tuple([0] * level)
        out = [zero] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if any(ai):
                for j, bj in enumerate(b):
                    out[i + j] = self._add(level, out[i + j], self._mul(level, ai, bj))
        return self._lp_trim(out)

    def _lp_monic(self, a, level):
        if not a:
            return []
        inv = self._inv(level, a[-1])
        return [self._mul(level, inv, c) for c in a]

    def _lp_divmod(self, a, f, level):
        """Quotient and remainder of a by the monic f."""
        a = list(a)
        df = len(f) - 1
        q = [tuple([0] * level)] * max(0, len(a) - df)
        while len(a) - 1 >= df:
            c = a[-1]
            k = len(a) - 1 - df
            q[k] = c
            if any(c):
                for i in range(df):
                    a[k + i] = self._sub(level, a[k + i], self._mul(level, c, f[i]))
            a.pop()
        return self._lp_trim(q), self._lp_trim(a)

    def _lp_mod(self, a, f, level):
        return self._lp_divmod(a, f, level)[1]

    def _lp_divexact(self, a, f, level):
        return self._lp_divmod(a, self._lp_monic(list(f), level), level)[0]

    def _lp_gcd(self, a, b, level):
        a, b = self._lp_trim(list(a)), self._lp_trim(list(b))
        while b:
            bm = self._lp_monic(list(b), level)
            r = self._lp_mod(a, bm, level)
            a, b = b, r
        return self._lp_monic(a, level) if a else []

    def _lp_powmod(self, base, e, f, level):
        one = tuple([1] + [0] * (level - 1))
        result = [one]
        base = self._lp_mod(list(base), f, level)
        while e:
            if e & 1:
                result = self._lp_mod(self._lp_mul(result, base, level), f, level)
            base = self._lp_mod(self._lp_mul(base, base, level), f, level)
            e >>= 1
        return result

    def _lp_sub(self, a, b, level):
        zero = tuple([0] * level)
        n = max(len(a), len(b))
        a = list(a) + [zero] * (n - len(a))
        b = list(b) + [zero] * (n - len(b))
        return self._lp_trim([self._sub(level, x, y) for x, y in zip(a, b)])

    def _lpoly_irreducible(self, f, level):
        n = len(f) - 1
        q = self.p ** level
        one = tuple([1] + [0] * (level - 1))
        zero = tuple([0] * level)
        x = [zero, one]
        h = self._lp_powmod(x, q ** n, f, level)
        if self._lp_sub(h, x, level):
            return False
        for r in _prime_factors(n):
            h = self._lp_powmod(x, q ** (n // r), f, level)
            d = self._lp_gcd(self._lp_sub(h, x, level), f, level)
            if len(d) - 1 > 0:
                return False
        return True

    # -- roots of dense polynomials over a level -----------------------------

    def _cz_probe(self, h, d, level, rng):
        """A Cantor-Zassenhaus splitting polynomial for h, all of whose
        irreducible factors over F_q, q = p^level, have degree d: for an a
        drawn from rng, the absolute trace of a*x modulo h at p = 2, and
        (x + a)^((q^d - 1)/2) - 1 modulo h otherwise."""
        q = self.p ** level
        one = tuple([1] + [0] * (level - 1))
        zero = tuple([0] * level)
        a = tuple(self.element_from_index(level, rng.randrange(q)).coeffs)
        if self.p != 2:
            s = self._lp_powmod([a, one], (q ** d - 1) // 2, h, level)
            return self._lp_sub(s, [one], level)
        cur = acc = [zero, a]
        for _ in range(level * d - 1):
            cur = self._lp_powmod(cur, 2, h, level)
            acc = self._lp_sub(acc, cur, level)  # in characteristic 2, + is -
        return acc

    def _lp_root(self, g, level, rng):
        """A root of g in F_{p^level}; g must split over that field."""
        one = tuple([1] + [0] * (level - 1))
        zero = tuple([0] * level)
        g = self._lp_monic(self._lp_trim(list(g)), level)
        # restrict to roots living in the field
        x = [zero, one]
        xq = self._lp_powmod(x, self.p ** level, g, level)
        g = self._lp_gcd(self._lp_sub(xq, x, level), g, level)
        if len(g) - 1 < 1:
            raise ArithmeticError("polynomial has no root in the requested field")
        while len(g) - 1 > 1:
            d = self._lp_gcd(self._cz_probe(g, 1, level, rng), g, level)
            if 0 < len(d) - 1 < len(g) - 1:
                g = d if len(d) <= (len(g) + 1) // 2 + 1 else self._lp_divexact(g, d, level)
        return self._neg(level, g[0])

    def _dense_roots(self, dense, level):
        """All roots of a dense polynomial over F_{p^level} in the closure,
        each at its minimal level, with multiplicities, in compress_key
        order.  A quadratic over F_p, p odd, is solved in closed form
        (_quadratic_roots).  Every other polynomial is split into its
        squarefree parts, whose roots are split off by probes drawn from a
        stream of this root find's own."""
        dense = self._lp_trim(list(dense))
        if level == 1 and len(dense) == 3 and self.p != 2:
            roots = self._quadratic_roots(*(c for (c,) in dense))
        else:
            rng = random.Random(repr(("roots", self.p, self.seed, level, dense)))
            roots = [(z.compress(), m)
                     for g, m in self._squarefree_parts(dense, level)
                     for z in self._squarefree_roots(g, level, rng)]
        # compressed roots: (level, coeffs) is their compress_key
        return sorted(roots, key=lambda r: (r[0].level, r[0].coeffs))

    def _quadratic_roots(self, c, b, a):
        """The roots of a x^2 + b x + c over F_p, p odd, as (-b +- r)/2a
        with r^2 = D = b^2 - 4ac.  A square D has r in F_p.  Otherwise the
        roots live at level 2: if x^2 + m1 x + m0 is its modulus, with root
        alpha, then (2 alpha + m1)^2 = m1^2 - 4 m0, a non-square, so
        r = s (2 alpha + m1) with s^2 = D / (m1^2 - 4 m0) in F_p."""
        p = self.p
        half = pow(2 * a, -1, p)
        d = (b * b - 4 * a * c) % p
        if not d:
            return [(GroundElem(self, 1, (-b * half % p,)), 2)]
        s = _sqrt_mod(d, p)
        if s is not None:
            return [(GroundElem(self, 1, ((r - b) * half % p,)), 1) for r in (s, -s)]
        self.ensure_level(2)
        m0, m1, _ = self._levels[2]
        s = _sqrt_mod(d * pow(m1 * m1 - 4 * m0, -1, p), p)
        return [(GroundElem(self, 2, ((r * m1 - b) * half % p, 2 * r * half % p)), 1)
                for r in (s, -s)]

    def _squarefree_parts(self, dense, level):
        """The squarefree decomposition of a nonconstant dense polynomial
        over F_{p^level}: pairwise coprime monic squarefree factors g with
        their multiplicities m, f = lc(f) prod g^m.  Yun's loop of gcds
        (Yun, On square-free decomposition algorithms, SYMSAC 1976; von zur
        Gathen and Gerhard, Modern Computer Algebra, ch. 14) peels off the
        factors of multiplicity prime to p; what is left is a p-th power,
        whose p-th root is decomposed in turn.  No probe, no draw."""
        p = self.p
        f = self._lp_monic(list(dense), level)
        deriv = [tuple(k * x % p for x in f[k]) for k in range(1, len(f))]
        c = self._lp_gcd(f, deriv, level)
        w = self._lp_divexact(f, c, level)
        parts, i = [], 1
        while len(w) > 1:
            y = self._lp_gcd(w, c, level)
            if len(y) < len(w):
                parts.append((self._lp_divexact(w, y, level), i))
            w, c, i = y, self._lp_divexact(c, y, level), i + 1
        if len(c) > 1:
            root = [GroundElem(self, level, c[k]).pth_root().coeffs
                    for k in range(0, len(c), p)]
            parts += [(g, m * p) for g, m in self._squarefree_parts(root, level)]
        return parts

    def _squarefree_roots(self, sf, level, rng):
        """Roots of a squarefree dense polynomial over F_{p^level}, by
        distinct-degree and then equal-degree factorization, with probes
        drawn from rng."""
        q = self.p ** level
        x = [tuple([0] * level), tuple([1] + [0] * (level - 1))]
        sf = self._lp_monic(list(sf), level)
        roots = []
        d = 1
        w = list(x)
        while len(sf) - 1 >= 1:
            if 2 * d > len(sf) - 1:
                # the remaining factor is irreducible
                roots.extend(self._roots_of_irreducible(sf, level, len(sf) - 1, rng))
                break
            w = self._lp_powmod(w, q, sf, level)
            gd = self._lp_gcd(self._lp_sub(w, x, level), sf, level)
            if len(gd) - 1 > 0:
                for factor in self._equal_degree_split(gd, d, level, rng):
                    roots.extend(self._roots_of_irreducible(factor, level, d, rng))
                sf = self._lp_divexact(sf, gd, level)
                w = self._lp_mod(w, sf, level) if len(sf) - 1 >= 1 else w
            d += 1
        return roots

    def _equal_degree_split(self, g, d, level, rng):
        """The irreducible factors of g, all of degree d over F_{p^level}."""
        work, out = [g], []
        while work:
            h = work.pop()
            if len(h) - 1 == d:
                out.append(h)
                continue
            split = self._lp_gcd(self._cz_probe(h, d, level, rng), h, level)
            if 0 < len(split) - 1 < len(h) - 1:
                work += [split, self._lp_divexact(h, split, level)]
            else:
                work.append(h)
        return out

    def _roots_of_irreducible(self, g, level, d, rng):
        if d == 1:
            return [GroundElem(self, level, self._neg(level, self._lp_monic(list(g), level)[0]))]
        target = level * d
        self.ensure_level(target)
        glift = [self._lift(GroundElem(self, level, c), target).coeffs for c in g]
        roots = [GroundElem(self, target, self._lp_root(glift, target, rng))]
        q = self.p ** level
        for _ in range(d - 1):
            roots.append(roots[-1] ** q)
        return roots

    def _lift(self, x, M):
        m = x.level
        if m == M:
            return x
        if m == 1:
            # every level is F_p[z]/(f) in the power basis of z, so an
            # element of F_p is its own constant coefficient
            return GroundElem(self, M, x.coeffs + (0,) * (M - 1))
        T = self.top
        val = self._eval_gen(x)
        if M == T:
            return GroundElem(self, T, val)
        solver = self._embed_solver(M)
        coeffs = solver(val)
        if coeffs is None:
            raise LevelError("element does not lie in the target subfield")
        return GroundElem(self, M, coeffs)

    def _eval_gen(self, x):
        """Coordinates of x in the top field."""
        T = self.top
        if x.level == T:
            return x.coeffs
        g = self._gen_top[x.level]
        acc = tuple([0] * T)
        for c in reversed(x.coeffs):
            acc = self._mul(T, acc, g)
            acc = tuple((a + (c if i == 0 else 0)) % self.p for i, a in enumerate(acc))
        return acc

    def _embed_solver(self, M):
        T = self.top
        key = (M, T)
        cached = self._embed_solvers.get(key)
        if cached is not None:
            return cached
        g = self._gen_top[M]
        cols = []
        pw = tuple([1] + [0] * (T - 1))
        for _ in range(M):
            cols.append(pw)
            pw = self._mul(T, pw, g)
        A = linalg.transpose(tuple(cols))
        solver = linalg.presolve(A, self.p)
        self._embed_solvers[key] = solver
        return solver

    def common_level(self, x, y):
        m = _lcm(x.level, y.level)
        self.ensure_level(m)
        return self._lift(x, m), self._lift(y, m)


class GroundElem:
    """An element of the algebraic closure, living at a definite level."""

    __slots__ = ("tower", "level", "coeffs")

    def __init__(self, tower, level, coeffs):
        self.tower = tower
        self.level = level
        self.coeffs = tuple(coeffs)

    def is_zero(self):
        return not any(self.coeffs)

    def __bool__(self):
        return any(self.coeffs)

    def is_one(self):
        return self.coeffs[0] == 1 and not any(self.coeffs[1:])

    def _binop(self, other, op):
        if isinstance(other, int):
            other = self.tower.from_int(other)
        if self.level == other.level:
            return GroundElem(self.tower, self.level,
                              op(self.level, self.coeffs, other.coeffs))
        a, b = self.tower.common_level(self, other)
        return GroundElem(self.tower, a.level, op(a.level, a.coeffs, b.coeffs))

    def __add__(self, other):
        return self._binop(other, self.tower._add)

    def __radd__(self, other):
        return self.__add__(other)

    def __sub__(self, other):
        return self._binop(other, self.tower._sub)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        return self._binop(other, self.tower._mul)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __neg__(self):
        return GroundElem(self.tower, self.level, self.tower._neg(self.level, self.coeffs))

    def __truediv__(self, other):
        if isinstance(other, int):
            other = self.tower.from_int(other)
        return self * other.inverse()

    def inverse(self):
        return GroundElem(self.tower, self.level, self.tower._inv(self.level, self.coeffs))

    def __pow__(self, e):
        return GroundElem(self.tower, self.level, self.tower._pow(self.level, self.coeffs, e))

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.tower.from_int(other)
        if not isinstance(other, GroundElem):
            return NotImplemented
        if self.level == other.level:
            return self.coeffs == other.coeffs
        a, b = self.tower.common_level(self, other)
        return a.coeffs == b.coeffs

    def __hash__(self):
        return hash(self.compress_key())

    def compress(self):
        """The same element at its minimal level of definition."""
        m = self.level
        p = self.tower.p
        for d in sorted(d for d in range(1, m) if m % d == 0):
            if self ** (p ** d) == self:
                # a subfield of the level need not be built yet
                self.tower.ensure_level(d)
                val = self.tower._eval_gen(self)
                sol = self.tower._embed_solver(d)(val)
                if sol is not None:
                    return GroundElem(self.tower, d, sol)
        return self

    def compress_key(self):
        c = self.compress()
        return (c.level, c.coeffs)

    def pth_root(self):
        return self ** (self.tower.p ** (self.level - 1))


# ---------------------------------------------------------------------------
# Sparse multivariate polynomials and rational functions.
# ---------------------------------------------------------------------------

class SparsePoly:
    """Polynomial in d variables, exponent-vector keyed, zero-free terms."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms):
        self.nvars = nvars
        clean = {}
        for exp, c in terms.items():
            if c:
                clean[tuple(exp)] = c
        self.terms = clean

    @classmethod
    def zero(cls, nvars):
        return cls(nvars, {})

    @classmethod
    def constant(cls, nvars, c):
        return cls(nvars, {tuple([0] * nvars): c})

    @classmethod
    def variable(cls, nvars, i, one):
        exp = [0] * nvars
        exp[i] = 1
        return cls(nvars, {tuple(exp): one})

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return all(not any(e) for e in self.terms)

    def constant_value(self, tower):
        if self.is_zero():
            return tower.zero()
        (exp, c), = self.terms.items()
        if any(exp):
            raise ValueError("not a constant")
        return c

    def vars_used(self):
        used = set()
        for e in self.terms:
            for i, x in enumerate(e):
                if x:
                    used.add(i)
        return used

    def degree_in(self, i):
        if not self.terms:
            return -1
        return max(e[i] for e in self.terms)

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            if e in out:
                s = out[e] + c
                if s:
                    out[e] = s
                else:
                    del out[e]
            else:
                out[e] = c
        return SparsePoly(self.nvars, out)

    def __neg__(self):
        return SparsePoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, GroundElem):
            if not other:
                return SparsePoly.zero(self.nvars)
            return SparsePoly(self.nvars, {e: c * other for e, c in self.terms.items()})
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                c = c1 * c2
                if e in out:
                    s = out[e] + c
                    if s:
                        out[e] = s
                    else:
                        del out[e]
                elif c:
                    out[e] = c
        return SparsePoly(self.nvars, out)

    def __eq__(self, other):
        if not isinstance(other, SparsePoly):
            return NotImplemented
        if set(self.terms) != set(other.terms):
            return False
        return all(c == other.terms[e] for e, c in self.terms.items())

    def key(self):
        return tuple(sorted((e, c.level, c.coeffs) for e, c in self.terms.items()))

    def __hash__(self):
        return hash(self.key())

    def leading(self):
        """Lexicographically largest exponent and its coefficient."""
        e = max(self.terms)
        return e, self.terms[e]

    def order_in(self, i):
        if not self.terms:
            raise ZeroInputError("order of the zero polynomial")
        return min(e[i] for e in self.terms)

    def hasse_derivatives(self, i, a):
        """D^0, D^1, ... up to the degree in t_i, where the Hasse derivative
        D^k f(a) = sum_m C(m, k) f_m a^(m-k), f_m the coefficient of t_i^m,
        is the t_i^k coefficient of f(t_i + a), from ground products alone.
        A coefficient is summed over m in the order in which f first uses
        t_i^m, and a running sum that cancels is dropped, so its level is
        the lcm of the levels added since it last turned nonzero (f_m for
        m = k, f_m and a for m > k): the level that expanding f(t_i + a)
        by polynomial products gives, which residues and centres keep."""
        tower = a.tower
        groups = {}
        for e, c in self.terms.items():
            groups.setdefault(e[i], []).append((e[:i] + (0,) + e[i + 1:], c))
        apow = [tower.one()]
        for k in range(max(groups, default=-1) + 1):
            out = {}
            for m, group in groups.items():
                b = comb(m, k) % tower.p
                if not b:
                    continue
                while len(apow) <= m - k:
                    apow.append(apow[-1] * a)
                scale = apow[m - k] if b == 1 else tower.from_int(b) * apow[m - k]
                for r, c in group:
                    v = c if m == k else c * scale
                    if r in out:
                        s = out[r] + v
                        if s:
                            out[r] = s
                        else:
                            del out[r]
                    else:
                        out[r] = v
            yield SparsePoly(self.nvars, out)

    def shift_var(self, i, a):
        """Substitute t_i -> t_i + a: the sum of t_i^k D^k f(a)."""
        if not a:
            return self
        return SparsePoly(self.nvars, {
            r[:i] + (k,) + r[i + 1:]: c
            for k, d in enumerate(self.hasse_derivatives(i, a))
            for r, c in d.terms.items()})

    def scale_exponent(self, i, e):
        """Substitute t_i -> t_i^e."""
        out = {}
        for exp, c in self.terms.items():
            ne = list(exp)
            ne[i] = ne[i] * e
            out[tuple(ne)] = c
        return SparsePoly(self.nvars, out)

    def reverse_in(self, i):
        """Coefficient reversal in t_i: t_i^k -> t_i^(D-k), D the degree in
        t_i."""
        D = self.degree_in(i)
        out = {}
        for exp, c in self.terms.items():
            ne = list(exp)
            ne[i] = D - ne[i]
            out[tuple(ne)] = c
        return SparsePoly(self.nvars, out)

    def derivative(self, i):
        out = {}
        for exp, c in self.terms.items():
            k = exp[i]
            if k == 0:
                continue
            kc = c.tower.from_int(k)
            if not kc:
                continue
            ne = list(exp)
            ne[i] = k - 1
            # t^e -> t^(e - e_i) is injective, so no two terms meet
            out[tuple(ne)] = c * kc
        return SparsePoly(self.nvars, out)

    def all_exponents_divisible(self, q):
        return all(all(x % q == 0 for x in e) for e in self.terms)

    def pth_root(self, p):
        """Inverse of the Frobenius on polynomials with p-divisible exponents."""
        out = {}
        for exp, c in self.terms.items():
            out[tuple(x // p for x in exp)] = c.pth_root()
        return SparsePoly(self.nvars, out)

    def compose_rat(self, funcs):
        """Substitute variable i -> funcs[i] (RatFuncs) in a nonzero
        polynomial; returns a RatFunc."""
        nv = funcs[0].num.nvars if funcs else self.nvars
        result = None
        for exp, c in self.terms.items():
            term = RatFunc(SparsePoly.constant(nv, c), SparsePoly.constant(nv, c.tower.one()))
            for i, k in enumerate(exp):
                if k:
                    term = term * funcs[i] ** k
            result = term if result is None else result + term
        return result

    def _any_tower(self):
        for c in self.terms.values():
            return c.tower
        raise ValueError("empty polynomial has no tower reference")

    def __repr__(self):
        bits = []
        for e, c in sorted(self.terms.items()):
            mono = "*".join("t%d^%d" % (i, k) for i, k in enumerate(e) if k)
            bits.append("%r%s" % (list(c.coeffs), ("*" + mono) if mono else ""))
        return "SparsePoly(%s)" % " + ".join(bits)


class RatFunc:
    """Quotient of sparse polynomials in canonical form.

    The canonical form divides out the common monomial content and scales so
    the denominator's lexicographically leading coefficient is one.  Equality
    is decided exactly by cross multiplication.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            self.num = num
            self.den = SparsePoly.constant(num.nvars, den._any_tower().one())
            return
        # monomial content over numerator and denominator jointly
        nv = num.nvars
        mins = [None] * nv
        for poly in (num, den):
            for e in poly.terms:
                for i, x in enumerate(e):
                    mins[i] = x if mins[i] is None else min(mins[i], x)
        if any(mins):
            def strip(poly):
                return SparsePoly(nv, {
                    tuple(x - m for x, m in zip(e, mins)): c
                    for e, c in poly.terms.items()
                })
            num, den = strip(num), strip(den)
        _, lead = den.leading()
        if not lead.is_one():
            inv = lead.inverse()
            num = num * inv
            den = den * inv
        self.num = num
        self.den = den

    @classmethod
    def zero_of(cls, nvars, tower):
        return cls(SparsePoly.zero(nvars), SparsePoly.constant(nvars, tower.one()))

    @classmethod
    def from_poly(cls, poly, tower):
        return cls(poly, SparsePoly.constant(poly.nvars, tower.one()))

    def is_zero(self):
        return self.num.is_zero()

    def __bool__(self):
        return not self.num.is_zero()

    def is_one(self):
        return self.num == self.den

    def is_constant(self):
        return self.num.is_constant() and self.den.is_constant()

    def constant_value(self, tower):
        return self.num.constant_value(tower) / self.den.constant_value(tower)

    def vars_used(self):
        return self.num.vars_used() | self.den.vars_used()

    def __add__(self, other):
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other):
        return RatFunc(self.num * other.den - other.num * self.den, self.den * other.den)

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __mul__(self, other):
        if isinstance(other, GroundElem):
            return RatFunc(self.num * other, self.den)
        return RatFunc(self.num * other.num, self.den * other.den)

    def __truediv__(self, other):
        if isinstance(other, GroundElem):
            return RatFunc(self.num, self.den * other)
        if other.is_zero():
            raise ZeroDivisionError("division by the zero function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of the zero function")
        return RatFunc(self.den, self.num)

    def __pow__(self, e):
        if e < 0:
            return self.inverse() ** (-e)
        nv = self.num.nvars
        tower = self.den._any_tower()
        result = RatFunc.from_poly(SparsePoly.constant(nv, tower.one()), tower)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __eq__(self, other):
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def key(self):
        return (self.num.key(), self.den.key())

    def __hash__(self):
        return hash(self.key())

    def compose(self, funcs):
        """Substitute variable i -> funcs[i]."""
        tower = self.den._any_tower()
        num = self.num.compose_rat(funcs) if not self.num.is_zero() else None
        den = self.den.compose_rat(funcs)
        if num is None:
            return RatFunc.zero_of(funcs[0].num.nvars, tower)
        return num / den

    def frobenius_strip(self, p):
        """Remove p-th power structure: returns (g, k) with self = g^(p^k)."""
        g, k = self, 0
        while (not g.is_constant()
               and g.num.all_exponents_divisible(p)
               and g.den.all_exponents_divisible(p)):
            g = RatFunc(g.num.pth_root(p), g.den.pth_root(p))
            k += 1
        return g, k

    def __repr__(self):
        return "RatFunc(%r / %r)" % (self.num, self.den)


# ---------------------------------------------------------------------------
# Coordinate valuations and the rational function field context.
# ---------------------------------------------------------------------------

class CoordValuation:
    """The divisorial valuation t_i = a, or the pole valuation of t_i."""

    __slots__ = ("var", "center", "nvars")

    def __init__(self, var, center, nvars):
        self.var = var
        self.center = center  # GroundElem or INF
        self.nvars = nvars

    @property
    def at_infinity(self):
        return self.center is INF

    def __eq__(self, other):
        if not isinstance(other, CoordValuation):
            return NotImplemented
        if self.var != other.var or self.nvars != other.nvars:
            return False
        if self.at_infinity or other.at_infinity:
            return self.at_infinity and other.at_infinity
        return self.center == other.center

    def __hash__(self):
        c = "inf" if self.at_infinity else self.center.compress_key()
        return hash((self.var, c, self.nvars))


def _lowest_hasse(poly, i, a):
    """The order of a nonzero poly at t_i = a and its residue there: the
    least k with D^k poly(a) != 0, and that derivative.  At a = 0 these are
    the lowest power of t_i and its coefficient; a poly that does not use
    t_i is its own residue, of order 0."""
    if not a:
        k = poly.order_in(i)
        return k, SparsePoly(poly.nvars, {e[:i] + (0,) + e[i + 1:]: c
                                          for e, c in poly.terms.items()
                                          if e[i] == k})
    if not any(e[i] for e in poly.terms):
        return 0, poly
    return next((k, d) for k, d in enumerate(poly.hasse_derivatives(i, a))
                if d.terms)


class FunctionField:
    """The rational function field over the tower in a fixed number of variables."""

    def __init__(self, tower, nvars):
        self.tower = tower
        self.nvars = nvars

    @property
    def p(self):
        return self.tower.p

    def var(self, i):
        return RatFunc.from_poly(self._var_poly(i), self.tower)

    def _var_poly(self, i):
        if not 0 <= i < self.nvars:
            raise ValueError("variable index out of range")
        return SparsePoly.variable(self.nvars, i, self.tower.one())

    def const(self, c):
        if isinstance(c, int):
            c = self.tower.from_int(c)
        return RatFunc.from_poly(SparsePoly.constant(self.nvars, c), self.tower)

    def zero(self):
        return RatFunc.zero_of(self.nvars, self.tower)

    def one(self):
        return self.const(1)

    def valuation(self, var, center):
        if isinstance(center, int):
            center = self.tower.from_int(center)
        return CoordValuation(var, center, self.nvars)

    def uniformizer(self, v):
        """1/t_i at the pole valuation, t_i - c at the valuation t_i = c.

        Both are built directly in canonical form, equal term for term (and
        level for level) to one() / var(i) and var(i) - const(c): the
        denominator is already monic and the constant term carries no
        monomial content to strip."""
        nv, one = self.nvars, self.tower.one()
        t = self._var_poly(v.var)
        if v.at_infinity:
            return RatFunc(SparsePoly.constant(nv, one), t)
        if v.center:
            t = t - SparsePoly.constant(nv, v.center)
        return RatFunc(t, SparsePoly.constant(nv, one))

    def order_and_residue(self, f, v):
        """Order of f at the coordinate valuation v and the residue function.

        The residue is f / pi^n evaluated on the divisor, a nonzero element
        of the residue function field in the remaining variables.  The pole
        valuation is handled by the substitution t_i -> 1/s followed by s = 0.
        At a centre a, the order of the numerator (and of the denominator) is
        its least k with D^k(a) != 0, and that Hasse derivative is its
        residue (_lowest_hasse).
        """
        if f.is_zero():
            raise ZeroInputError("the zero function has no order")
        i, a, num, den, n = v.var, v.center, f.num, f.den, 0
        if v.at_infinity:
            a, num, den = self.tower.zero(), num.reverse_in(i), den.reverse_in(i)
            n = f.den.degree_in(i) - f.num.degree_in(i)
        k, rnum = _lowest_hasse(num, i, a)
        d, rden = _lowest_hasse(den, i, a)
        return n + k - d, RatFunc(rnum, rden)

    def univariate_roots(self, f):
        """All roots of a one-variable polynomial in the closure, with
        multiplicities, in compress_key order.  The sum of the
        multiplicities is the degree."""
        dense = self._dense(f)
        return self.tower._dense_roots(*dense) if dense else []

    def root_multiplicities(self, f):
        """The multiplicity of each squarefree part of a one-variable
        polynomial, read off its squarefree decomposition: every root of
        the polynomial has one of them, and no root is found."""
        dense = self._dense(f)
        return [m for _, m in self.tower._squarefree_parts(*dense)] if dense else []

    def _dense(self, f):
        """A one-variable polynomial as a dense coefficient list over the
        lcm of its coefficients' levels, with that level; None when it is
        constant."""
        if f.is_zero():
            raise ZeroPolyError("roots of the zero polynomial")
        used = f.vars_used()
        if len(used) > 1:
            raise ValueError("univariate root finding needs one variable")
        if not used:
            return None
        (i,) = used
        level = 1
        for c in f.terms.values():
            level = _lcm(level, c.level)
        self.tower.ensure_level(level)
        dense = [tuple([0] * level) for _ in range(f.degree_in(i) + 1)]
        for e, c in f.terms.items():
            dense[e[i]] = self.tower._lift(c, level).coeffs
        return dense, level
