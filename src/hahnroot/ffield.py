"""Exact arithmetic in finite fields F_{p^k} with on-demand tower enlargement.

A field is described by an immutable :class:`FieldCtx` holding a prime p, an
extension degree k and a monic irreducible modulus over F_p; elements are
coefficient vectors with respect to that modulus.  Contexts are canonical:
``field_ctx(p, k)`` always picks the same modulus (the first irreducible in
lex order on coefficient vectors), so independently computed towers agree.

Fields of order at most ``_TABLE_ORDER`` compute by table lookup: when it
is made, a context builds one interned :class:`FF` per element and log/exp
(Zech) tables over a primitive element, so every operation indexes a list;
``sparse_addmul``, the one multiply-add on sparse Laurent polynomials (the
engine's Taylor data and ``RatFun``'s sides, whose products are
``sparse_mul``), indexes the same tables without an operator call per term.
Larger fields multiply coefficient vectors as polynomials modulo the
modulus.

Enlarging a tower never mutates a context.  ``enlarge`` builds the bigger
field and returns an :class:`Embedding` that callers apply to every live
value; ``poly_roots`` does this internally and reports the context its
roots live in.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import product

from . import intpoly

# Fields of at most this order get interned elements and log/exp tables.
_TABLE_ORDER = 1024

# The largest tower degree k that ``poly_roots`` builds.  Above the tables
# an element op costs O(k^2) Python steps: X^17+t over F_3 (k = 16) answers
# in about 1.5 s, X^300+t over F_3 (k = 20) did not answer in 20 s.
_TOWER_DEGREE_LIMIT = 16

# Miller-Rabin with these bases (the first 12 primes) is exact for every
# n < _PRIME_LIMIT (Sorenson and Webster, Math. Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_PRIME_LIMIT = 318665857834031151167461


class FieldError(ValueError):
    pass


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; exact for n < _PRIME_LIMIT."""
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class FieldCtx:
    """F_{p^k} presented as F_p[s]/(modulus), modulus monic irreducible.

    Immutable, and equal and hashed by (p, k, modulus).  A context builds
    its lookup tables ``_tables`` (None above the cap) when it is made:
    every context the kernel makes computes in its field, and a plain slot
    keeps the hot ``_tables`` read on the interpreter's fast path, which a
    ``__getattr__`` hook would leave.  ``identity`` is built on first read.
    """

    __slots__ = ("p", "k", "modulus", "_hash", "_tables", "_identity")

    def __init__(self, p: int, k: int, modulus: tuple[int, ...]):
        init = object.__setattr__
        init(self, "p", p)
        init(self, "k", k)
        init(self, "modulus", modulus)
        init(self, "_hash", hash((p, k, modulus)))
        init(self, "_tables", _Tables(self) if p**k <= _TABLE_ORDER else None)
        init(self, "_identity", None)

    def __setattr__(self, name, value):
        raise AttributeError("field contexts are immutable")

    def __delattr__(self, name):
        raise AttributeError("field contexts are immutable")

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not FieldCtx:
            return NotImplemented
        return (self.p, self.k, self.modulus) == (other.p, other.k, other.modulus)

    def __hash__(self) -> int:
        return self._hash

    @property
    def order(self) -> int:
        return self.p**self.k

    @property
    def has_tables(self) -> bool:
        """Whether the field computes by table lookup (order at most 1024)."""
        return self._tables is not None

    @property
    def identity(self) -> "Embedding":
        """The identity embedding of this field, built on first read."""
        if self._identity is None:
            object.__setattr__(self, "_identity", Embedding(self, self, self.gen))
        return self._identity

    @property
    def zero(self) -> "FF":
        t = self._tables
        return t.zero if t is not None else _plain(self, (0,) * self.k)

    @property
    def one(self) -> "FF":
        t = self._tables
        return t.one if t is not None else _plain(self, (1,) + (0,) * (self.k - 1))

    @property
    def gen(self) -> "FF":
        if self.k == 1:
            return self.from_int((-self.modulus[0]) % self.p)
        return FF(self, tuple(1 if i == 1 else 0 for i in range(self.k)))

    def from_int(self, n: int) -> "FF":
        t = self._tables
        if t is not None:
            return t.ints[n % self.p]
        return _plain(self, (n % self.p,) + (0,) * (self.k - 1))

    def from_coeffs(self, coeffs) -> "FF":
        cs = [c % self.p for c in coeffs]
        if len(cs) > self.k:
            cs = intpoly.mod(cs, list(self.modulus), self.p)
        cs += [0] * (self.k - len(cs))
        return FF(self, tuple(cs))

    def elements(self):
        """All elements of a field with tables (order at most 1024) in
        canonical (lex on coefficient vector) order, made on demand."""
        by_coeffs = self._tables.by_coeffs
        return (by_coeffs[c] for c in product(range(self.p), repeat=self.k))

    @property
    def label(self) -> str:
        if self.k == 1:
            return f"F_{self.p}"
        return f"F_{self.p}[s]/({coeffs_text(self.modulus)})"

    def describe(self) -> str:
        if self.k == 1:
            return self.label
        return f"F_{self.order} = {self.label}"

    def __repr__(self) -> str:
        return f"FieldCtx({self.describe()})"


def coeffs_text(coeffs, var: str = "s") -> str:
    """The polynomial in var with these ascending coefficients, ints or
    field elements, highest power first, a coefficient whose text holds '+'
    in parentheses: a modulus's text, a tower element's and a branch
    equation's."""
    parts = []
    i = len(coeffs)
    for c in reversed(coeffs):
        i -= 1
        if c:
            cs = str(c)
            if "+" in cs:
                cs = f"({cs})"
            if not i:
                parts.append(cs)
            elif cs == "1":
                parts.append(var if i == 1 else f"{var}^{i}")
            else:
                parts.append(f"{cs}*{var}" if i == 1 else f"{cs}*{var}^{i}")
    return "+".join(parts) or "0"


@lru_cache(maxsize=None)
def field_ctx(p: int, k: int = 1) -> FieldCtx:
    """The canonical context for F_{p^k}."""
    if p >= _PRIME_LIMIT:
        raise FieldError(f"p = {p} is too large: primes below {_PRIME_LIMIT} are supported")
    if not _is_prime(p):
        raise FieldError(f"{p} is not prime")
    if k < 1:
        raise FieldError("extension degree must be positive")
    return FieldCtx(p, k, intpoly.smallest_irreducible(p, k))


class FF:
    """An element of F_{p^k}, as a length-k vector over F_p.

    In a field with tables (order at most ``_TABLE_ORDER``) every element is
    interned: ``FF(ctx, coeffs)`` returns the context's one object of that
    value, which carries its discrete log ``_log`` (see :class:`_Tables`)
    and its tables ``_t``.  Above the cap ``_t`` is None and the arithmetic
    works on ``coeffs``.  Equality and hashing go by value either way.
    """

    __slots__ = ("ctx", "coeffs", "_t", "_log", "_nz")

    def __new__(cls, ctx: FieldCtx, coeffs: tuple[int, ...]) -> "FF":
        coeffs = tuple(coeffs)
        t = ctx._tables
        if t is None:
            return _plain(ctx, coeffs)
        x = t.by_coeffs.get(coeffs)
        if x is None:
            raise FieldError(f"{coeffs} is not a reduced coefficient vector of {ctx.label}")
        return x

    def __setattr__(self, name, value):
        raise AttributeError("field elements are immutable")

    def __bool__(self) -> bool:
        return self._nz

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not FF:
            return NotImplemented
        return self.coeffs == other.coeffs and self.ctx == other.ctx

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "FF") -> "FF":
        t = self._t
        if t is not None:
            i = self._log
            return t.exp[i + t.zech[other._log - i]]
        p = self.ctx.p
        return _plain(self.ctx, tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "FF") -> "FF":
        t = self._t
        if t is not None:
            i = self._log
            j = t.exp[other._log + t.half]._log  # the log of -other
            return t.exp[i + t.zech[j - i]]
        p = self.ctx.p
        return _plain(self.ctx, tuple((a - b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "FF":
        t = self._t
        if t is not None:
            return t.exp[self._log + t.half]
        p = self.ctx.p
        return _plain(self.ctx, tuple((-a) % p for a in self.coeffs))

    def __mul__(self, other: "FF") -> "FF":
        t = self._t
        if t is not None:
            return t.exp[self._log + other._log]
        ctx = self.ctx
        if ctx.k == 1:
            return _plain(ctx, ((self.coeffs[0] * other.coeffs[0]) % ctx.p,))
        # intpoly only reads its operands, so the tuples go in uncopied
        prod = intpoly.mul(self.coeffs, other.coeffs, ctx.p)
        prod = intpoly.mod(prod, ctx.modulus, ctx.p)
        prod += [0] * (ctx.k - len(prod))
        return _plain(ctx, tuple(prod))

    def inverse(self) -> "FF":
        if not self._nz:
            raise ZeroDivisionError("inverting zero field element")
        t = self._t
        if t is not None:
            return t.exp[t.n - self._log]
        ctx = self.ctx
        if ctx.k == 1:
            return _plain(ctx, (pow(self.coeffs[0], ctx.p - 2, ctx.p),))
        # extended Euclid against the modulus
        a, b = list(self.coeffs), list(ctx.modulus)
        sa: list[int] = [1]
        sb: list[int] = []
        while b:
            q, r = intpoly.divmod_(a, b, ctx.p)
            a, b = b, r
            sa, sb = sb, intpoly.sub(sa, intpoly.mul(q, sb, ctx.p), ctx.p)
        inv = intpoly.scal(sa, pow(a[0], ctx.p - 2, ctx.p), ctx.p)
        return ctx.from_coeffs(inv)

    def __truediv__(self, other: "FF") -> "FF":
        t = self._t
        if t is not None:
            if not other._nz:
                raise ZeroDivisionError("inverting zero field element")
            return t.exp[self._log - other._log + t.n]
        return self * other.inverse()

    def __pow__(self, e: int) -> "FF":
        t = self._t
        if t is not None and self._nz:
            return t.exp[self._log * e % t.n]
        if e < 0:
            return self.inverse() ** (-e)
        result = self.ctx.one
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def frobenius(self, times: int = 1) -> "FF":
        t = self._t
        if t is not None:
            if not self._nz:
                return self
            return t.exp[self._log * t.frob[times % self.ctx.k] % t.n]
        out = self
        for _ in range(times):
            out = out**self.ctx.p
        return out

    def degree(self) -> int:
        """Degree of this element over F_p (its Frobenius orbit size)."""
        x = self.frobenius()
        d = 1
        while x != self:
            x = x.frobenius()
            d += 1
        return d

    def as_int(self) -> int:
        """The value as an integer, for prime-field elements only."""
        if any(self.coeffs[1:]):
            raise FieldError("element is not in the prime field")
        return self.coeffs[0]

    def sort_key(self) -> tuple[int, ...]:
        return self.coeffs

    def __str__(self) -> str:
        c = self.coeffs
        return str(c[0]) if len(c) == 1 else coeffs_text(c)

    def __repr__(self) -> str:
        return f"FF({self}, {self.ctx.label})"


_SLOTS = tuple(FF.__dict__[name].__set__ for name in FF.__slots__)


def _element(ctx: FieldCtx, coeffs: tuple[int, ...], t: "_Tables | None", log) -> FF:
    x = object.__new__(FF)
    set_ctx, set_coeffs, set_t, set_log, set_nz = _SLOTS
    set_ctx(x, ctx)
    set_coeffs(x, coeffs)
    set_t(x, t)
    set_log(x, log)
    set_nz(x, any(coeffs))
    return x


def _plain(ctx: FieldCtx, coeffs: tuple[int, ...]) -> FF:
    """An element of a field without tables."""
    return _element(ctx, coeffs, None, None)


class _Tables:
    """Interned elements and log/exp (Zech) tables of one small field.

    With alpha the primitive element and n = q - 1, a nonzero element
    alpha^i has log i in [0, n) and zero has log 2n.  ``exp`` lists
    the powers alpha^0 .. alpha^(n-1) twice and then 2n + 1 zeros, so that
    ``exp[i + j]`` is the product and ``exp[i - j + n]`` the quotient for any
    logs i, j, zero included.  ``zech[d]`` (d = j - i, negative indices
    counting from the end) is the log c with alpha^i + alpha^j = exp[i + c]:
    log(1 + alpha^d) when both are nonzero, 0 when alpha^j is zero and d
    itself when alpha^i is zero.  ``half`` is the log of -1.
    """

    __slots__ = ("n", "half", "frob", "exp", "zech", "by_coeffs", "ints", "zero", "one")

    def __init__(self, ctx: FieldCtx):
        p, k = ctx.p, ctx.k
        n = ctx.order - 1
        self.n = n
        self.half = n // 2 if p > 2 else 0
        self.frob = [pow(p, j, n) for j in range(k)]

        # walk the powers of alpha: O(q) steps, each O(k) for alpha of low degree
        alpha = intpoly.trim(_primitive_element(ctx))
        powers = []
        x = [1] + [0] * (k - 1)
        for i in range(n):
            powers.append(_element(ctx, tuple(x), self, i))
            x = _times(x, alpha, ctx)
        zero = _element(ctx, (0,) * k, self, 2 * n)
        self.exp = powers + powers + [zero] * (2 * n + 1)
        by_coeffs = {y.coeffs: y for y in powers}
        by_coeffs[zero.coeffs] = zero
        self.by_coeffs = by_coeffs

        zech = [0] * (4 * n + 1)
        for d, y in enumerate(powers):
            c = y.coeffs
            z = by_coeffs[((c[0] + 1) % p,) + c[1:]]._log
            zech[d] = z
            zech[d - n] = z
        for d in range(-2 * n, -n):
            zech[d] = d
        self.zech = zech

        self.ints = [by_coeffs[(c,) + (0,) * (k - 1)] for c in range(p)]
        self.zero, self.one = zero, self.ints[1]


def _times(x: list[int], g: list[int], ctx: FieldCtx) -> list[int]:
    """x * g in F_p[s]/(modulus): x a length-k coefficient list, g trimmed."""
    p, modulus = ctx.p, ctx.modulus
    acc = [0] * len(x)
    last = len(g) - 1
    for j, gj in enumerate(g):
        if gj:
            acc = [(a + gj * c) % p for a, c in zip(acc, x)]
        if j < last:
            top = x[-1]
            x = [0] + x[:-1]
            if top:
                x = [(c - top * m) % p for c, m in zip(x, modulus)]
    return acc


def _primitive_element(ctx: FieldCtx) -> list[int]:
    """The first generator of the multiplicative group, trying the vectors
    (c_0, .., c_{k-1}) in increasing order of c_0 + c_1 p + ... + c_{k-1} p^(k-1)."""
    p, k = ctx.p, ctx.k
    n = ctx.order - 1
    cofactors = [n // r for r in intpoly.prime_factors(n)]
    modulus = list(ctx.modulus)
    # for k > 1 the constants lie in F_p^*, which is too small
    for m in range(1 if k == 1 else p, n + 1):
        g = [m // p**i % p for i in range(k)]
        if all(intpoly.pow_mod(intpoly.trim(g), e, modulus, p) != [1] for e in cofactors):
            return g
    raise FieldError(f"{ctx.label} has no primitive element; is its modulus irreducible?")


# ---------------------------------------------------------------------------
# Sparse Laurent polynomials, as dicts {exponent: nonzero element}.


def sparse_addmul(acc: dict[int, FF], src: dict[int, FF], scale: FF, shift: int) -> None:
    """acc += scale * u^shift * src, in place; a sum that cancels leaves acc.

    scale is nonzero and every dict lies over scale's field.  In a field with
    tables the loop indexes the exp and Zech lists by log, with no
    ``FF`` operator call: with i, j the logs of two nonzero elements,
    alpha^i + alpha^j = exp[i + zech[j - i]], and a log of 2n or more is zero.
    """
    t = scale._t
    if t is None:
        for e, c in src.items():
            e += shift
            s = acc.get(e)
            s = c * scale if s is None else s + c * scale
            if s:
                acc[e] = s
            else:
                del acc[e]
        return
    exp, zech, a, zero = t.exp, t.zech, scale._log, 2 * t.n
    get = acc.get
    for e, c in src.items():
        e += shift
        x = exp[c._log + a]
        s = get(e)
        if s is None:
            acc[e] = x
        else:
            i = s._log
            j = i + zech[x._log - i]
            if j < zero:
                acc[e] = exp[j]
            else:
                del acc[e]


def sparse_mul(a: dict[int, FF], b: dict[int, FF]) -> dict[int, FF]:
    """The product of two sparse dicts over one field, as a new dict."""
    if len(a) > len(b):
        a, b = b, a
    out: dict[int, FF] = {}
    for e, c in a.items():
        sparse_addmul(out, b, c, e)
    return out


# ---------------------------------------------------------------------------
# Dense polynomials over an FF context, as little-endian coefficient lists.


def poly_trim(cs: list[FF]) -> list[FF]:
    n = len(cs)
    while n and not cs[n - 1]:
        n -= 1
    return cs[:n]


def poly_deg(cs: list[FF]) -> int:
    return len(cs) - 1


def poly_from_ints(ctx: FieldCtx, ints) -> list[FF]:
    return poly_trim([ctx.from_int(n) for n in ints])


def poly_add(a: list[FF], b: list[FF], ctx: FieldCtx) -> list[FF]:
    out = [ctx.zero] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] = out[i] + c
    for i, c in enumerate(b):
        out[i] = out[i] + c
    return poly_trim(out)


def poly_sub(a: list[FF], b: list[FF], ctx: FieldCtx) -> list[FF]:
    return poly_add(a, [-c for c in b], ctx)


def poly_scal(a: list[FF], c: FF) -> list[FF]:
    return poly_trim([x * c for x in a])


def poly_mul(a: list[FF], b: list[FF], ctx: FieldCtx) -> list[FF]:
    if not a or not b:
        return []
    out = [ctx.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = out[i + j] + x * y
    return poly_trim(out)


def poly_divmod(a: list[FF], b: list[FF], ctx: FieldCtx) -> tuple[list[FF], list[FF]]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(a)
    db = poly_deg(b)
    inv_lb = b[-1].inverse()
    q = [ctx.zero] * max(len(a) - db, 0)
    for i in range(len(r) - 1, db - 1, -1):
        if r[i]:
            c = r[i] * inv_lb
            q[i - db] = c
            for j, y in enumerate(b):
                r[i - db + j] = r[i - db + j] - c * y
    return poly_trim(q), poly_trim(r)


def poly_mod(a: list[FF], b: list[FF], ctx: FieldCtx) -> list[FF]:
    return poly_divmod(a, b, ctx)[1]


def poly_monic(a: list[FF]) -> list[FF]:
    if not a:
        return []
    return poly_scal(a, a[-1].inverse())


def poly_gcd(a: list[FF], b: list[FF], ctx: FieldCtx) -> list[FF]:
    while b:
        a, b = b, poly_mod(a, b, ctx)
    return poly_monic(a)


def poly_pow_mod(a: list[FF], e: int, m: list[FF], ctx: FieldCtx) -> list[FF]:
    result = [ctx.one]
    base = poly_mod(a, m, ctx)
    while e:
        if e & 1:
            result = poly_mod(poly_mul(result, base, ctx), m, ctx)
        base = poly_mod(poly_mul(base, base, ctx), m, ctx)
        e >>= 1
    return result


def poly_eval(a: list[FF], x: FF) -> FF:
    y = x.ctx.zero
    for c in reversed(a):
        y = y * x + c
    return y


def poly_derivative(a: list[FF], ctx: FieldCtx) -> list[FF]:
    return poly_trim([c * ctx.from_int(i) for i, c in enumerate(a)][1:])


# ---------------------------------------------------------------------------
# Embeddings between towers.


class Embedding:
    """A field embedding F_{p^j} -> F_{p^k} (j | k), fixed by the generator image."""

    def __init__(self, src: FieldCtx, dst: FieldCtx, gen_image: FF):
        if dst.k % src.k:
            raise FieldError("source degree must divide destination degree")
        self.src = src
        self.dst = dst
        self.gen_image = gen_image
        powers = [dst.one]
        for _ in range(src.k - 1):
            powers.append(powers[-1] * gen_image)
        self._powers = powers
        # with tables on both sides, alpha_src^i maps to alpha_dst^(i * scale)
        self._dst_tables = dst._tables
        self._scale = None
        if src._tables is not None and self._dst_tables is not None:
            self._scale = self._image(src._tables.exp[1])._log

    def _image(self, x: FF) -> FF:
        out = self.dst.zero
        for c, w in zip(x.coeffs, self._powers):
            if c:
                out = out + self.dst.from_int(c) * w
        return out

    def __call__(self, x: FF) -> FF:
        if x.ctx is not self.src and x.ctx != self.src:
            raise FieldError("element does not belong to the embedding source")
        t = self._dst_tables
        if self._scale is None:
            return self._image(x)
        if not x._nz:
            return t.zero
        return t.exp[x._log * self._scale % t.n]

    def __repr__(self) -> str:
        return f"Embedding({self.src.label} -> {self.dst.label})"


def find_embedding(src: FieldCtx, dst: FieldCtx) -> Embedding:
    """Deterministic embedding: the generator goes to the least root of src's modulus.

    Raises FieldError unless src's degree divides dst's; when it does, the
    irreducible modulus splits into distinct linear factors over dst.
    """
    if src == dst:
        return src.identity
    if dst.k % src.k:
        raise FieldError(f"{src.describe()} does not embed in {dst.describe()}")
    if src.k == 1:
        return Embedding(src, dst, dst.zero)
    roots = roots_in_field(poly_from_ints(dst, src.modulus), dst)
    return Embedding(src, dst, min(roots, key=FF.sort_key))


def enlarge(ctx: FieldCtx, new_k: int) -> tuple[FieldCtx, Embedding]:
    """The canonical degree-new_k tower over F_p together with ctx's embedding."""
    if new_k % ctx.k:
        raise FieldError("enlargement degree must be a multiple of the current degree")
    if new_k == ctx.k:
        return ctx, ctx.identity
    big = field_ctx(ctx.p, new_k)
    return big, find_embedding(ctx, big)


# ---------------------------------------------------------------------------
# Root finding.


def roots_in_field(h: list[FF], ctx: FieldCtx) -> list[FF]:
    """The roots of h, which must split into distinct linear factors over ctx.

    Callers guarantee that: ``poly_roots`` passes a radical over a tower
    that holds all its roots, ``find_embedding`` an irreducible modulus
    whose degree divides ctx's.  A field with tables is scanned, zero and
    then the powers of its primitive element, so the roots come in that
    order, not in ``sort_key`` order: ``poly_roots`` sorts them and
    ``find_embedding`` takes the least.  A larger field is trace-split.
    """
    h = poly_monic(poly_trim(list(h)))
    if not h:
        raise FieldError("zero polynomial has an ambiguous root set")
    if poly_deg(h) == 0:
        return []
    if poly_deg(h) == 1:
        return [-h[0]]
    t = ctx._tables
    if t is not None:
        return [x for x in (t.zero, *t.exp[:t.n]) if not poly_eval(h, x)]
    return _trace_split(h, ctx)


def _trace_split(h: list[FF], ctx: FieldCtx) -> list[FF]:
    # h is squarefree and splits into linear factors over ctx.  For odd p
    # each probe is Cantor-Zassenhaus equal-degree splitting (von zur Gathen
    # & Gerhard, Modern Computer Algebra, ch. 14): gcd(h, (Tr(beta*X) + c)^e
    # - 1), e = (p-1)/2, keeps the roots x with Tr(beta*x) + c a nonzero
    # square, so once the traces differ a probe splits with probability
    # about 1/2.  For p = 2 the probe is gcd(h, Tr(beta*X) + c).
    if poly_deg(h) <= 0:
        return []
    if poly_deg(h) == 1:
        return [-h[0] / h[1]]
    # X^(p^j) mod h for j < k, reused for every beta
    frob_powers = [[ctx.zero, ctx.one]]
    for _ in range(ctx.k - 1):
        frob_powers.append(poly_pow_mod(frob_powers[-1], ctx.p, h, ctx))
    half = (ctx.p - 1) // 2
    beta = ctx.one
    # beta runs over the basis 1, gen, .., gen^(k-1) and the trace form is
    # nondegenerate, so some beta gives two distinct roots different traces
    for _ in range(ctx.k):
        # trace of beta*X as a polynomial mod h
        tr: list[FF] = []
        b = beta
        for xpj in frob_powers:
            tr = poly_add(tr, poly_scal(xpj, b), ctx)
            b = b.frobenius()
        # a constant tr means every root has the same trace: no c separates them
        if poly_deg(tr) > 0:
            for c in range(ctx.p):
                probe = poly_add(tr, [ctx.from_int(c)], ctx)
                if half:
                    probe = poly_sub(poly_pow_mod(probe, half, h, ctx), [ctx.one], ctx)
                g = poly_gcd(probe, h, ctx)
                if 0 < poly_deg(g) < poly_deg(h):
                    rest = poly_divmod(h, g, ctx)[0]
                    return _trace_split(g, ctx) + _trace_split(rest, ctx)
        beta = beta * ctx.gen
    raise FieldError("trace splitting failed; polynomial does not split here")


def _pth_root(c: FF) -> FF:
    # Frobenius is bijective, so c^(p^(k-1)) is the unique p-th root.
    return c.frobenius(c.ctx.k - 1)


def _radical(g: list[FF], ctx: FieldCtx) -> list[FF]:
    """Product of the distinct monic irreducible factors of g."""
    g = poly_monic(g)
    if poly_deg(g) <= 0:
        return [ctx.one]
    gp = poly_derivative(g, ctx)
    if not gp:
        # g(X) = h(X^p) = (h^(1/p)(X))^p over a perfect field
        h = [_pth_root(g[i]) for i in range(0, len(g), ctx.p)]
        return _radical(h, ctx)
    d = poly_gcd(g, gp, ctx)
    w = poly_divmod(g, d, ctx)[0]
    y = d
    t = poly_gcd(y, w, ctx)
    while poly_deg(t) > 0:
        y = poly_divmod(y, t, ctx)[0]
        t = poly_gcd(y, w, ctx)
    if poly_deg(y) <= 0:
        return w
    return poly_mul(w, _radical(y, ctx), ctx)


def _distinct_degrees(rad: list[FF], ctx: FieldCtx) -> list[int]:
    """Degrees of the irreducible factors of a squarefree polynomial."""
    degrees = []
    h = poly_monic(rad)
    xpow = poly_mod([ctx.zero, ctx.one], h, ctx)
    d = 0
    while poly_deg(h) > 0:
        d += 1
        if 2 * d > poly_deg(h):
            degrees.append(poly_deg(h))
            break
        xpow = poly_pow_mod(xpow, ctx.order, h, ctx)
        g = poly_gcd(poly_sub(xpow, [ctx.zero, ctx.one], ctx), h, ctx)
        if poly_deg(g) > 0:
            degrees.append(d)
            h = poly_divmod(h, g, ctx)[0]
            xpow = poly_mod(xpow, h, ctx)
    return degrees


class RootsResult:
    """Roots of a polynomial, all expressed in one (possibly enlarged) context."""

    __slots__ = ("ctx", "embed", "roots")

    def __init__(self, ctx: FieldCtx, embed: Embedding, roots: tuple[tuple[FF, int], ...]):
        self.ctx = ctx
        self.embed = embed
        self.roots = roots


def poly_roots(g: list[FF]) -> RootsResult:
    """All roots of g in the algebraic closure, with multiplicities.

    The result context is F_{p^L} with L the lcm of the root degrees and the
    input degree k; ``embed`` maps input-context values into it.  The
    multiplicities sum to deg g.

    The work follows the degree of what is left after each step.  The low
    zero coefficients give the root 0: X^j | g has it with multiplicity j,
    and the cofactor h = g[j:] goes on.  A linear h has its root -h_0/h_1
    in g's own field.  Only an h of degree 2 or more goes through the
    radical, its distinct-degree factorisation and one enlargement to the
    tower holding its roots; each root's multiplicity then comes from
    repeated synthetic division of h by (X - root).
    """
    g = poly_trim(list(g))
    if not g:
        raise FieldError("zero polynomial has an ambiguous root set")
    ctx = g[0].ctx
    n = poly_deg(g)
    if n < 1:
        raise FieldError("constant polynomial has no roots to report")
    j = 0
    while not g[j]:
        j += 1
    h = g[j:]
    if poly_deg(h) == 0:
        big, emb, pairs = ctx, ctx.identity, []
    elif poly_deg(h) == 1:
        big, emb, pairs = ctx, ctx.identity, [(-h[0] / h[1], 1)]
    else:
        rad = _radical(h, ctx)
        factor_degrees = _distinct_degrees(rad, ctx)
        k = ctx.k * math.lcm(*factor_degrees)
        if k > _TOWER_DEGREE_LIMIT:
            raise FieldError(f"the roots lie in F_{{{ctx.p}^{k}}}, of order {ctx.p**k}: "
                             f"towers of degree above {_TOWER_DEGREE_LIMIT} are not built")
        big, emb = enlarge(ctx, k)
        # No smaller tower holds the roots: a root of a degree-d factor over
        # F_{p^k} generates F_{p^(k*d)}, so the roots and F_{p^k} together
        # generate F_{p^(k*lcm(d_i))}, which is ``big``.
        distinct = roots_in_field([emb(c) for c in rad], big)
        h = [emb(c) for c in h]
        pairs = []
        for root in sorted(distinct, key=FF.sort_key):
            mult = 0
            q, r = _synthetic_division(h, root)
            while not r:
                mult += 1
                h = q
                q, r = _synthetic_division(h, root)
            pairs.append((root, mult))
    if j:
        pairs.insert(0, (big.zero, j))
    if sum(m for _, m in pairs) != n:
        raise FieldError("root multiplicities failed to account for the degree")
    return RootsResult(big, emb, tuple(pairs))


def _synthetic_division(h: list[FF], root: FF) -> tuple[list[FF], FF]:
    """(h // (X - root), h(root)) by one Horner pass; h nonzero."""
    acc = h[-1]
    quotient = [acc]
    for c in reversed(h[:-1]):
        acc = acc * root + c
        quotient.append(acc)
    remainder = quotient.pop()
    quotient.reverse()
    return quotient, remainder
