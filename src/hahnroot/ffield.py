"""Exact arithmetic in finite fields F_{p^k} with on-demand tower enlargement.

A field is described by an immutable :class:`FieldCtx` holding a prime p, an
extension degree k and a monic irreducible modulus over F_p; elements are
coefficient vectors with respect to that modulus.  Contexts are canonical:
``field_ctx(p, k)`` always picks the same modulus (the first irreducible in
lex order on coefficient vectors), so independently computed towers agree.

Enlarging a tower never mutates a context.  ``enlarge`` builds the bigger
field and returns an :class:`Embedding` that callers apply to every live
value; ``poly_roots`` and ``frobenius_solve`` do this internally and report
the context their results live in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from . import intpoly

# Fields small enough to scan element by element instead of trace-splitting.
_BRUTE_FORCE_ORDER = 512


class FieldError(ValueError):
    pass


class InconsistentEquation(FieldError):
    """A degenerate linear equation with no solution (0 == nonzero)."""


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class FieldCtx:
    """F_{p^k} presented as F_p[s]/(modulus), modulus monic irreducible."""

    p: int
    k: int
    modulus: tuple[int, ...]

    @property
    def order(self) -> int:
        return self.p**self.k

    @property
    def zero(self) -> "FF":
        return FF(self, (0,) * self.k)

    @property
    def one(self) -> "FF":
        return self.from_int(1)

    @property
    def gen(self) -> "FF":
        if self.k == 1:
            return self.from_int((-self.modulus[0]) % self.p)
        return FF(self, tuple(1 if i == 1 else 0 for i in range(self.k)))

    def from_int(self, n: int) -> "FF":
        return FF(self, (n % self.p,) + (0,) * (self.k - 1))

    def from_coeffs(self, coeffs) -> "FF":
        cs = [c % self.p for c in coeffs]
        if len(cs) > self.k:
            cs = intpoly.mod(cs, list(self.modulus), self.p)
        cs += [0] * (self.k - len(cs))
        return FF(self, tuple(cs))

    def elements(self):
        """All field elements in canonical (lex on coefficient vector) order."""
        coeffs = [0] * self.k
        for _ in range(self.order):
            yield FF(self, tuple(coeffs))
            for i in range(self.k - 1, -1, -1):
                coeffs[i] += 1
                if coeffs[i] < self.p:
                    break
                coeffs[i] = 0

    @property
    def label(self) -> str:
        if self.k == 1:
            return f"F_{self.p}"
        return f"F_{self.p}[s]/({_modulus_text(self.modulus)})"

    def describe(self) -> str:
        if self.k == 1:
            return self.label
        return f"F_{self.order} = {self.label}"

    def __repr__(self) -> str:
        return f"FieldCtx({self.describe()})"


def _modulus_text(modulus: tuple[int, ...]) -> str:
    parts = []
    for i in range(len(modulus) - 1, -1, -1):
        c = modulus[i]
        if not c:
            continue
        if i == 0:
            parts.append(str(c))
        else:
            s = "s" if i == 1 else f"s^{i}"
            parts.append(s if c == 1 else f"{c}*{s}")
    return "+".join(parts) if parts else "0"


@lru_cache(maxsize=None)
def field_ctx(p: int, k: int = 1) -> FieldCtx:
    """The canonical context for F_{p^k}."""
    if not _is_prime(p):
        raise FieldError(f"{p} is not prime")
    if k < 1:
        raise FieldError("extension degree must be positive")
    return FieldCtx(p, k, intpoly.smallest_irreducible(p, k))


@dataclass(frozen=True, slots=True)
class FF:
    """An element of F_{p^k}, as a length-k vector over F_p."""

    ctx: FieldCtx
    coeffs: tuple[int, ...]

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def __add__(self, other: "FF") -> "FF":
        p = self.ctx.p
        return FF(self.ctx, tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "FF") -> "FF":
        p = self.ctx.p
        return FF(self.ctx, tuple((a - b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "FF":
        p = self.ctx.p
        return FF(self.ctx, tuple((-a) % p for a in self.coeffs))

    def __mul__(self, other: "FF") -> "FF":
        ctx = self.ctx
        if ctx.k == 1:
            return FF(ctx, ((self.coeffs[0] * other.coeffs[0]) % ctx.p,))
        prod = intpoly.mul(list(self.coeffs), list(other.coeffs), ctx.p)
        prod = intpoly.mod(prod, list(ctx.modulus), ctx.p)
        prod += [0] * (ctx.k - len(prod))
        return FF(ctx, tuple(prod))

    def inverse(self) -> "FF":
        if not self:
            raise ZeroDivisionError("inverting zero field element")
        ctx = self.ctx
        if ctx.k == 1:
            return FF(ctx, (pow(self.coeffs[0], ctx.p - 2, ctx.p),))
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
        return self * other.inverse()

    def __pow__(self, e: int) -> "FF":
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
        parts = []
        for i in range(self.ctx.k - 1, -1, -1):
            c = self.coeffs[i]
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                s = "s" if i == 1 else f"s^{i}"
                parts.append(s if c == 1 else f"{c}*{s}")
        return "+".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return f"FF({self}, {self.ctx.label})"


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

    def __call__(self, x: FF) -> FF:
        if x.ctx != self.src:
            raise FieldError("element does not belong to the embedding source")
        out = self.dst.zero
        for c, w in zip(x.coeffs, self._powers):
            if c:
                out = out + self.dst.from_int(c) * w
        return out

    def project(self, y: FF) -> FF:
        """Inverse image of y, which must lie in the embedded subfield."""
        if y.ctx != self.dst:
            raise FieldError("element does not belong to the embedding destination")
        cols = [list(w.coeffs) for w in self._powers]
        matrix = [[cols[j][i] for j in range(self.src.k)] for i in range(self.dst.k)]
        solved = solve_mod_p(matrix, list(y.coeffs), self.dst.p)
        if solved is None:
            raise FieldError("element is outside the embedded subfield")
        particular, _ = solved
        return FF(self.src, tuple(particular))

    def __repr__(self) -> str:
        return f"Embedding({self.src.label} -> {self.dst.label})"


def identity_embedding(ctx: FieldCtx) -> Embedding:
    return Embedding(ctx, ctx, ctx.gen)


def prime_embedding(dst: FieldCtx) -> Embedding:
    """The canonical embedding of the prime field into dst."""
    return Embedding(field_ctx(dst.p, 1), dst, dst.zero)


def find_embedding(src: FieldCtx, dst: FieldCtx) -> Embedding:
    """Deterministic embedding: the generator goes to the least root of src's modulus."""
    if src == dst:
        return identity_embedding(src)
    if src.k == 1:
        return Embedding(src, dst, dst.zero)
    modulus_in_dst = poly_from_ints(dst, src.modulus)
    roots = roots_in_field(modulus_in_dst, dst)
    if not roots:
        raise FieldError("modulus has no root in destination field")
    return Embedding(src, dst, min(roots, key=FF.sort_key))


def enlarge(ctx: FieldCtx, new_k: int) -> tuple[FieldCtx, Embedding]:
    """The canonical degree-new_k tower over F_p together with ctx's embedding."""
    if new_k % ctx.k:
        raise FieldError("enlargement degree must be a multiple of the current degree")
    if new_k == ctx.k:
        return ctx, identity_embedding(ctx)
    big = field_ctx(ctx.p, new_k)
    return big, find_embedding(ctx, big)


# ---------------------------------------------------------------------------
# Linear algebra over F_p.


def solve_mod_p(matrix: list[list[int]], rhs: list[int], p: int):
    """Solve A x = b over F_p.

    Returns (particular solution, kernel basis) or None when inconsistent.
    """
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    aug = [[c % p for c in row] + [rhs[i] % p] for i, row in enumerate(matrix)]
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot_row = next((i for i in range(r, rows) if aug[i][c]), None)
        if pivot_row is None:
            continue
        aug[r], aug[pivot_row] = aug[pivot_row], aug[r]
        inv = pow(aug[r][c], p - 2, p)
        aug[r] = [(x * inv) % p for x in aug[r]]
        for i in range(rows):
            if i != r and aug[i][c]:
                f = aug[i][c]
                aug[i] = [(x - f * y) % p for x, y in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    for i in range(r, rows):
        if aug[i][cols]:
            return None
    particular = [0] * cols
    for i, c in enumerate(pivots):
        particular[c] = aug[i][cols]
    free = [c for c in range(cols) if c not in pivots]
    kernel = []
    for fc in free:
        vec = [0] * cols
        vec[fc] = 1
        for i, c in enumerate(pivots):
            vec[c] = (-aug[i][fc]) % p
        kernel.append(vec)
    return particular, kernel


# ---------------------------------------------------------------------------
# Root finding.


def roots_in_field(h: list[FF], ctx: FieldCtx) -> list[FF]:
    """The distinct roots of h that lie in ctx itself."""
    h = poly_monic(poly_trim(list(h)))
    if not h:
        raise FieldError("zero polynomial has an ambiguous root set")
    if poly_deg(h) == 0:
        return []
    if ctx.order <= _BRUTE_FORCE_ORDER:
        return [x for x in ctx.elements() if not poly_eval(h, x)]
    xq = poly_pow_mod([ctx.zero, ctx.one], ctx.order, h, ctx)
    split = poly_gcd(poly_sub(xq, [ctx.zero, ctx.one], ctx), h, ctx)
    return _trace_split(split, ctx)


def _trace_split(h: list[FF], ctx: FieldCtx) -> list[FF]:
    # h is squarefree and splits into linear factors over ctx
    if poly_deg(h) <= 0:
        return []
    if poly_deg(h) == 1:
        return [-h[0] / h[1]]
    # X^(p^j) mod h for j < k, reused for every beta
    frob_powers = [[ctx.zero, ctx.one]]
    for _ in range(ctx.k - 1):
        frob_powers.append(poly_pow_mod(frob_powers[-1], ctx.p, h, ctx))
    beta = ctx.one
    for _ in range(ctx.k):
        # trace of beta*X as a polynomial mod h
        tr: list[FF] = []
        b = beta
        for xpj in frob_powers:
            tr = poly_add(tr, poly_scal(xpj, b), ctx)
            b = b.frobenius()
        for c in range(ctx.p):
            g = poly_gcd(poly_sub(tr, [ctx.from_int(c)], ctx), h, ctx)
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


@dataclass(frozen=True)
class RootsResult:
    """Roots of a polynomial, all expressed in one (possibly enlarged) context."""

    ctx: FieldCtx
    embed: Embedding
    roots: tuple[tuple[FF, int], ...]


def poly_roots(g: list[FF]) -> RootsResult:
    """All roots of g in the algebraic closure, with multiplicities.

    The result context is F_{p^L} with L the lcm of the root degrees and the
    input degree k; ``embed`` maps input-context values into it.  The
    multiplicities sum to deg g.
    """
    g = poly_trim(list(g))
    if not g:
        raise FieldError("zero polynomial has an ambiguous root set")
    ctx = g[0].ctx
    n = poly_deg(g)
    if n < 1:
        raise FieldError("constant polynomial has no roots to report")
    rad = _radical(g, ctx)
    factor_degrees = _distinct_degrees(rad, ctx)
    blanket = ctx.k * math.lcm(*factor_degrees)
    big, emb = enlarge(ctx, blanket)
    rad_big = [emb(c) for c in rad]
    distinct = roots_in_field(rad_big, big)
    # shrink to the smallest tower containing the inputs and every root
    final_k = math.lcm(ctx.k, *(r.degree() for r in distinct)) if distinct else ctx.k
    if final_k < big.k:
        final = field_ctx(ctx.p, final_k)
        down = find_embedding(final, big)
        distinct = [down.project(r) for r in distinct]
        emb_final = find_embedding(ctx, final)
    else:
        final, emb_final = big, emb
    g_final = [emb_final(c) for c in g]
    pairs = []
    for root in sorted(distinct, key=FF.sort_key):
        mult = 0
        q, r = poly_divmod(g_final, [-root, final.one], final)
        while not r:
            mult += 1
            g_final = q
            q, r = poly_divmod(g_final, [-root, final.one], final)
        pairs.append((root, mult))
    total = sum(m for _, m in pairs)
    if total != n:
        raise FieldError("root multiplicities failed to account for the degree")
    return RootsResult(final, emb_final, tuple(pairs))


# ---------------------------------------------------------------------------
# Additive (Frobenius-linear) equations.


def frobenius_solve(b: dict[int, FF], c: FF) -> RootsResult:
    """Solve sum_j b_j * z^(p^j) = c by F_p-linear algebra on coordinates.

    The field is enlarged until the full solution set (a coset of an
    F_p-subspace of size p^(jmax - jmin)) is present.  Roots in the result
    carry multiplicity 1.
    """
    coeffs = {j: v for j, v in b.items() if v}
    if not coeffs:
        if not c:
            raise FieldError("zero equation has every element as a solution")
        raise InconsistentEquation("no z satisfies 0 = nonzero value")
    ctx = c.ctx
    jmin, jmax = min(coeffs), max(coeffs)
    target = ctx.p ** (jmax - jmin)
    scale = 1
    while True:
        big, emb = enlarge(ctx, ctx.k * scale)
        bb = {j: emb(v) for j, v in coeffs.items()}
        cc = emb(c)
        k = big.k
        basis = [FF(big, tuple(1 if i == j else 0 for i in range(k))) for j in range(k)]
        columns = []
        for e in basis:
            img = big.zero
            for j, v in bb.items():
                img = img + v * e.frobenius(j)
            columns.append(list(img.coeffs))
        matrix = [[columns[j][i] for j in range(k)] for i in range(k)]
        solved = solve_mod_p(matrix, list(cc.coeffs), big.p)
        if solved is not None:
            particular, kernel = solved
            if big.p ** len(kernel) == target:
                sols = set()
                span = [[0] * k]
                for vec in kernel:
                    span = [
                        [(x + t * y) % big.p for x, y in zip(s, vec)]
                        for s in span
                        for t in range(big.p)
                    ]
                for s in span:
                    sols.add(FF(big, tuple((a + b) % big.p for a, b in zip(particular, s))))
                roots = tuple((z, 1) for z in sorted(sols, key=FF.sort_key))
                return RootsResult(big, emb, roots)
        scale += 1
        if scale > 4096:
            raise FieldError("solution space failed to saturate; runaway enlargement")
