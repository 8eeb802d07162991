"""JSON encodings for the domain types and canonical serialization.

All emitted JSON is canonical: sorted keys, compact separators, one trailing
newline; byte-identical output is part of the pipeline contract.
"""

import json

from . import linalg
from .groundfield import INF, RatFunc, SparsePoly, is_prime
from .kmilnor import Certificate, ParshinChain, Symbol


SCHEMA_VERSION = 1

# The highest tower level an input element may name.  Building a level
# means finding an irreducible of that degree, whose cost grows steeply: at
# p = 7 on one core of a 2-core Linux host, 0.09 s at level 16, 1.1 s at
# 24 and 6.5 s at 32.  Levels the tower reaches by itself (roots, lcms) are
# not capped.
MAX_INPUT_LEVEL = 16
# The highest exponent an input polynomial may give a variable.  Root
# finding, which places the chain centres of a certificate search, walks a
# dense polynomial of that degree, and its time grows steeply at a root of
# high multiplicity: for t^d at p = 7 on one core of a 2-core Linux host,
# 0.05 s at d = 256, 1.0 s at 1024 and 11 s at 4096.  Exponents that
# arithmetic reaches by itself (products, powers) are not capped.
MAX_INPUT_DEGREE = 256
# The highest rank an input abc group may declare.  Its wedge square has
# rank * (rank - 1) / 2 coordinates, and abc-verify row-reduces the
# annihilator of the relations, a basis of nearly that many vectors: with
# one relation at l = 3 on one core of a 2-core Linux host, 0.13 s at rank
# 16, 0.64 s at 20 and 1.6 s at 24.
MAX_INPUT_RANK = 16
# The most variables an input may declare (--vars, or the pipeline
# configuration's vars).  The automatic universe of the coordinates is the
# costliest run so small an input asks for: its pipeline took, at p = 7 on
# one core of a 2-core Linux host, 0.25 s at 10 variables, 2.0 s at 12 and
# 9 s at 13.  Five coordinates as the universe took 0.12 s at 256.
MAX_INPUT_VARS = 10
# The most subgroups an automatic universe may ask for: its coordinates, if
# it takes them, and its bertini_samples pencils.  The pipeline's cost grows
# steeply with them, and faster with more variables: at p = 7 on one core of
# a 2-core Linux host, the five coordinates with 10 samples took 0.34 s,
# with 15 1.4 s and with 20 3.9 s; the ten coordinates with 5 samples took
# 4.2 s, with 6 6.0 s, and with 10 gave no answer within 60 s; 15 samples
# in ten variables without the coordinates took 5.6 s.
MAX_AUTO_UNIVERSE = 15


class InputError(ValueError):
    """Malformed JSON input: a missing field, a wrong type, or a value the
    domain type rejects, such as a zero denominator."""


def field(data, name, what, kind=None):
    """data[name], of type kind when one is given; InputError otherwise."""
    try:
        value = data[name]
    except (KeyError, TypeError):
        raise InputError("%s has no %r field" % (what, name)) from None
    if kind is not None and (not isinstance(value, kind)
                             or kind is int and isinstance(value, bool)):
        raise InputError("the %r field of %s must be a %s"
                         % (name, what, kind.__name__))
    return value


def modulus(data, what):
    """The 'ell' field: a prime; InputError otherwise."""
    ell = field(data, "ell", what, int)
    if not is_prime(ell):
        raise InputError("the 'ell' field of %s must be a prime" % what)
    return ell


def int_matrix(value, what, rows=None, cols=None):
    """A list of lists of integers, booleans not among them, as a tuple of
    tuples, with the given number of rows and of columns when those are
    given; InputError otherwise."""
    if not (isinstance(value, list) and all(
            isinstance(row, list) and all(type(v) is int for v in row)
            for row in value)):
        raise InputError("%s must be a list of lists of integers" % what)
    if rows is not None and len(value) != rows:
        raise InputError("%s must have %d rows" % (what, rows))
    if cols is not None and any(len(row) != cols for row in value):
        raise InputError("the rows of %s must have %d entries" % (what, cols))
    return tuple(tuple(row) for row in value)


def canonical_json(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def plain(obj):
    """obj with every dict key a string and every tuple or set a list, as
    canonical_json takes it."""
    if isinstance(obj, dict):
        return {str(k): plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        return [plain(x) for x in obj]
    return obj


def encode_ground(x):
    return {"level": x.level, "coeffs": list(x.coeffs)}


def decode_ground(tower, data):
    level = field(data, "level", "a ground element", int)
    if not 1 <= level <= MAX_INPUT_LEVEL:
        raise InputError("a ground element needs a level from 1 to %d"
                         % MAX_INPUT_LEVEL)
    return tower.element(level, field(data, "coeffs", "a ground element", list))


def encode_poly(f):
    terms = [{"exp": list(e), "coef": encode_ground(c)}
             for e, c in sorted(f.terms.items())]
    return {"vars": f.nvars, "terms": terms}


def decode_poly(ff, data):
    nvars = field(data, "vars", "a polynomial", int)
    if nvars != ff.nvars:
        raise InputError("a polynomial must have %d vars, not %d"
                         % (ff.nvars, nvars))
    terms = {}
    for t in field(data, "terms", "a polynomial", list):
        exp = field(t, "exp", "a polynomial term", list)
        if len(exp) != nvars or not all(type(k) is int and k >= 0
                                        for k in exp):
            raise InputError("an exponent must be a list of %d non-negative "
                             "integers" % nvars)
        if max(exp, default=0) > MAX_INPUT_DEGREE:
            raise InputError("an exponent may not exceed %d"
                             % MAX_INPUT_DEGREE)
        terms[tuple(exp)] = decode_ground(ff.tower,
                                          field(t, "coef", "a polynomial term"))
    return SparsePoly(nvars, terms)


def encode_ratfunc(f):
    return {"num": encode_poly(f.num), "den": encode_poly(f.den)}


def decode_ratfunc(ff, data):
    num = decode_poly(ff, field(data, "num", "a rational function"))
    den = decode_poly(ff, field(data, "den", "a rational function"))
    if den.is_zero():
        raise InputError("a rational function needs a nonzero denominator")
    return RatFunc(num, den)


def encode_symbol(s):
    return [encode_ratfunc(e) for e in s.entries]


def decode_symbol(ff, data):
    return Symbol([decode_ratfunc(ff, e) for e in data])


def encode_center(c):
    return "inf" if c is INF else encode_ground(c)


def decode_center(tower, data):
    return INF if data == "inf" else decode_ground(tower, data)


def encode_chain(chain):
    return {
        "steps": [{"var": v.var, "center": encode_center(v.center)}
                  for v in chain.steps],
        "uniformizers": [encode_ratfunc(u) for u in chain.uniformizers],
        "ram_indices": list(chain.ram_indices),
        "covers": [{"var": var, "exp": e, "center": encode_center(c)}
                   for var, e, c in chain.covers],
    }


def decode_valuation(ff, data, what):
    """The valuation t_var = center that data names, its variable in
    0..vars-1; InputError otherwise."""
    var = field(data, "var", what, int)
    if not 0 <= var < ff.nvars:
        raise InputError("%s names a variable outside 0..%d"
                         % (what, ff.nvars - 1))
    return ff.valuation(var, decode_center(ff.tower,
                                           field(data, "center", what)))


def decode_chain(ff, data):
    what = "a Parshin chain"
    steps = [decode_valuation(ff, s, "a chain step")
             for s in field(data, "steps", what, list)]
    unis = [decode_ratfunc(ff, u)
            for u in field(data, "uniformizers", what, list)]
    covers = []
    for c in field(data, "covers", what, list) if "covers" in data else []:
        v = decode_valuation(ff, c, "a cover")
        e = field(c, "exp", "a cover", int)
        if e <= 0 or e % ff.p == 0:
            raise InputError("a cover exponent must be positive and prime "
                             "to %d" % ff.p)
        covers.append((v.var, e, v.center))
    ram = field(data, "ram_indices", what, list)
    if len(ram) != len(steps) or not all(type(e) is int and e > 0
                                         for e in ram):
        raise InputError("%s needs one positive integer ram index per step"
                         % what)
    return ParshinChain(ff, steps, unis, tuple(ram), covers=covers)


def encode_certificate(cert):
    out = {
        "statement": encode_symbol(cert.statement),
        "chain": encode_chain(cert.chain),
        "value": cert.value,
        "ell": cert.ell,
    }
    if cert.transform is not None:
        out["transform"] = [list(row) for row in cert.transform]
    return out


def decode_certificate(ff, data):
    what = "a certificate"
    statement = decode_symbol(ff, field(data, "statement", what, list))
    chain = decode_chain(ff, field(data, "chain", what, dict))
    transform = data.get("transform")
    if transform is not None:
        transform = int_matrix(transform, "the transform of %s" % what,
                               ff.nvars, ff.nvars)
    return Certificate(statement, chain, field(data, "value", what, int),
                       modulus(data, what), transform=transform)


def decode_abc_group(data):
    from .abelcentral import AbcGroup

    what = "a group fragment"
    rank = field(data, "rank", what, int)
    if not 0 <= rank <= MAX_INPUT_RANK:
        raise InputError("%s needs a rank from 0 to %d"
                         % (what, MAX_INPUT_RANK))
    return AbcGroup(rank, modulus(data, what),
                    int_matrix(data.get("relations", []),
                               "the relations of %s" % what,
                               cols=linalg.wedge_dim(rank)))
