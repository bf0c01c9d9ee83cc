"""Dense polynomials over the prime field F_p, as little-endian int lists.

The zero polynomial is []. All functions return freshly allocated lists and
keep coefficients reduced into [0, p).

Above size thresholds, chosen by measurement, products and divisions are
subquadratic (von zur Gathen & Gerhard, *Modern Computer Algebra*, chs. 8,
9): products by Kronecker substitution into one big-int product, division
by a Newton-iteration power-series inverse, applied in blocks of the
quotient. Below them the schoolbook loops run. A ``Divisor`` divides many
polynomials by one, computing that series inverse once. ``gcd`` is
Euclid's loop of remainders, quadratic in the operands' length: a reduced
fraction asks for at most ``ratfun._REDUCE_SPAN`` + 1 terms, the content
and lcm of the companion's input coefficients for as many as the input
spells out.

Schoolbook remainders over F_p with p(p-1) < 256, that is p <= 13, run on
byte lanes once the divisor b has _LANE_TERMS terms (``_lane_rem``): the
remainder is a bytearray, one coefficient a byte, and each nonzero quotient
term c adds (p-c)*b, packed once per distinct c, to the top deg b + 1 bytes
as one big-int sum, then folds them back to residues with one translate.
A slot of that sum holds at most (p-1) + (p-1)^2 = p(p-1), so no byte
carries: the bound on p is the arithmetic's, not a setting.  ``divmod_``'s
schoolbook branch takes this loop, and ``gcd`` keeps both operands as byte
strings through its remainder sequence until the divisor is shorter; the
list loops serve larger p and shorter divisors.

``dot`` is the one product kernel: it sums a*b over any number of pairs.
``mul`` is ``dot`` of one pair once a constant factor has been ruled out;
the companion's residue and elimination entries are ``dot``s of many.  One
rule, in schoolbook steps per pair plus one, decides for one pair and for
many whether to pack.  Packed, each distinct operand is evaluated at a
power of two once, the big-int products are summed, and the sum is
unpacked and reduced once, so a sum of k products costs one unpacking, not
k, and no polynomial additions.

Over small primes the long paths run on byte strings, one byte per
coefficient, with no per-coefficient Python loop. A Kronecker slot is
exactly as many bytes wide as its bound needs. Where w-byte slots have
w*(p-1) < 256 (p <= 61 up to 4-byte slots, p <= 83 up to 3 bytes, every
p <= 31 up to 8), the sum of products is read back one byte lane at a time
through ``bytes.translate`` tables, the lanes summed as big ints with no
carry; every other one packs struct items and reduces each slot in Python.
``neg`` and ``scal`` (p < 256) are one translate; ``sub``, for p <= 128,
one big-int sum of byte strings and one translate.

The fast paths reach ``mul`` and ``divmod_`` through the module globals, so
a wrapper installed on those names sees every product but the sums passed
to ``dot`` directly, and every division but a ``Divisor``'s Newton
divisions by its own inverse and the remainders ``gcd`` takes on byte
lanes.
"""

from __future__ import annotations

import struct
from functools import lru_cache


def trim(a: list[int]) -> list[int]:
    return _strip(list(a))


def _strip(out: list[int]) -> list[int]:
    # trim in place, for a list the caller has just built; remainders (of
    # Newton divisions above all) and products of untrimmed slices leave
    # long zero tails, dropped in blocks
    if out and not out[-1]:
        while len(out) > 32 and not any(out[-32:]):
            del out[-32:]
        while out and not out[-1]:
            out.pop()
    return out


def deg(a: list[int]) -> int:
    return len(a) - 1


def neg(a: list[int], p: int) -> list[int]:
    if len(a) >= _BYTE_THRESHOLD and p < 256:
        return list(bytearray(a).translate(_table(p, p - 1)))
    return [(-c) % p for c in a]


def sub(a: list[int], b: list[int], p: int) -> list[int]:
    if len(a) >= _BYTE_THRESHOLD and len(b) >= _BYTE_THRESHOLD and p <= 128:
        n = min(len(a), len(b))
        out = _byte_sum(a[:n], bytearray(b[:n]).translate(_table(p, p - 1)), p)
    else:
        out = [(x - y) % p for x, y in zip(a, b)]
        n = len(out)
    if len(a) > n:
        out += a[n:]
    elif len(b) > n:
        out += neg(b[n:], p)
    return _strip(out)


def scal(a: list[int], c: int, p: int) -> list[int]:
    c %= p
    if c == 0:
        return []
    if len(a) >= _BYTE_THRESHOLD and p < 256:
        return list(bytearray(a).translate(_table(p, c)).rstrip(b"\0"))
    return _strip([(c * x) % p for x in a])


# From this length on, and when every coefficient fits in a byte (p < 256),
# neg and scal map bytes through one translate table.  sub also needs a sum
# of two coefficients to fit, p <= 128: it adds byte strings as big ints, no
# byte carrying, and reduces the sum by one more table.
_BYTE_THRESHOLD = 64
# every product, one pair or many, packs its operands once the schoolbook
# steps (nonzero terms of a times terms of b; a stretched a skips its zeros)
# reach this many per pair and one more: the per-call term is the packing's
# fixed cost.  On dense and stretched operands at p = 2 to 131 the two paths
# cost the same at about 45, 65, 90, 125 and 180 steps for 1, 2, 3, 5 and 8
# pairs; on the product calls of companion-ladder, verbs-mix and three
# towers without tables, whose operands are often sparse, the total time is
# least from 28 to 32
_DOT_THRESHOLD = 30
# from this divisor degree on, a schoolbook step updates one slice at a time
_SLICE_THRESHOLD = 24
# from this many divisor terms on, where _lanes(p), schoolbook remainders
# run on byte lanes (_lane_rem); below it the list loops are faster.
# Measured on dense operands at p = 2 to 13: divmod_ costs the same both
# ways at 7 to 9 terms for 40-term quotients and at 9 to 10 terms for the
# reductions of a product by a field modulus (2k-1 by k+1 terms); Euclid's
# loop costs the same with any switching point from 4 to 16 terms
_LANE_TERMS = 10
# Newton division from this many quotient terms, once the schoolbook work is
# as much as over a divisor of this degree (see _newton_pays); it runs in
# blocks of this many quotient terms, or of deg b if that is more
_NEWTON_THRESHOLD = 48
_NEWTON_BLOCK = 256


# little-endian struct items (size, code) for slots the byte lanes do not take
_ITEMS = ((4, "I"), (8, "Q"))


@lru_cache(maxsize=None)
def _table(p: int, c: int) -> bytes:
    # the bytes.translate table of b -> b*c mod p, p < 256, built as its
    # period of p residues repeated: about 1 us instead of 12 at p = 2, 3,
    # where a process starting with empty caches builds up to p tables
    return (bytes(b * c % p for b in range(p)) * (256 // p + 1))[:256]


def _byte_unpack(raw: bytes, w: int, p: int) -> list[int]:
    # the little-endian w-byte slots of raw, reduced mod p and trimmed, for
    # w*(p-1) < 256: lane j of a slot maps through b -> b*256^j mod p, so the
    # lane residues of a slot sum to less than 256 and the sum of the lanes,
    # as big ints, has no carry
    acc = 0
    for j in range(w):
        acc += int.from_bytes(raw[j::w].translate(_table(p, pow(256, j, p))), "little")
    return list(acc.to_bytes(len(raw) // w, "little").translate(_table(p, 1)).rstrip(b"\0"))


def _byte_sum(a: list[int], b: bytearray, p: int) -> list[int]:
    # a + b, of one length, for p <= 128: no byte of the big-int sum carries
    s = int.from_bytes(bytearray(a), "little") + int.from_bytes(b, "little")
    return list(s.to_bytes(len(a), "little").translate(_table(p, 1)))


def _pack(a: list[int], w: int, code: str | None) -> int:
    # a evaluated at 2^(8w): its coefficients as w-byte slots, laid out as
    # byte lanes (code None, every coefficient a byte), as struct items of
    # that code, or one int.to_bytes each (code "")
    if code is None:
        buf = bytearray(len(a) * w)
        buf[::w] = bytearray(a)
        return int.from_bytes(buf, "little")
    if code:
        return int.from_bytes(struct.pack(f"<{len(a)}{code}", *a), "little")
    return int.from_bytes(b"".join(c.to_bytes(w, "little") for c in a), "little")


def _packed_dot(pairs, n: int, bound: int, p: int) -> list[int]:
    # Kronecker substitution of a whole sum of nonempty pairs: each distinct
    # operand list evaluated at 2^(8w) once, the big-int products summed,
    # and the sum's n coefficients read back out of its bytes once.  No
    # coefficient of the integer sum exceeds bound, which w bytes hold, so
    # no slot carries into the next
    w = (bound.bit_length() + 7) // 8
    code = None
    if w * (p - 1) >= 256:
        # where a lane sum could carry, the slots are read in Python: as
        # standard-size struct items up to 8 bytes, one int.from_bytes each above
        w, code = next((item for item in _ITEMS if item[0] >= w), (w, ""))
    operands = {id(x): x for pair in pairs for x in pair}
    packed = {key: _pack(x, w, code) for key, x in operands.items()}
    raw = sum(packed[id(a)] * packed[id(b)] for a, b in pairs).to_bytes(n * w, "little")
    if code is None:
        return _byte_unpack(raw, w, p)
    if code:
        vals = struct.unpack(f"<{n}{code}", raw)
    else:
        vals = [int.from_bytes(raw[i:i + w], "little") for i in range(0, n * w, w)]
    return _strip([v % p for v in vals])


def mul(a: list[int], b: list[int], p: int) -> list[int]:
    # a constant factor only scales the other
    if len(b) == 1:
        return scal(a, b[0], p)
    if len(a) == 1:
        return scal(b, a[0], p)
    return dot(((a, b),), p)


def dot(pairs, p: int) -> list[int]:
    """The sum of a*b over the sequence of pairs (a, b), reduced mod p.

    One pass over the pairs keeps those whose product is not plainly zero
    and counts their schoolbook steps, nonzero terms of a times terms of b.
    From _DOT_THRESHOLD * (pairs + 1) steps on, the sum is one Kronecker
    substitution, each distinct operand packed once; below that, the
    schoolbook loop skips zero terms and reduces each step."""
    live = []
    work = m = n = 0
    for pair in pairs:
        a, b = pair
        na, nb = len(a), len(b)
        steps = (na - a.count(0)) * nb
        if steps:
            live.append(pair)
            work += steps
            m += na if na < nb else nb
            if na + nb > n:
                n = na + nb
    if not live:
        return []
    if work >= _DOT_THRESHOLD * (len(live) + 1):
        # a coefficient of the integer sum is at most m (p-1)^2
        return _packed_dot(live, n - 1, m * (p - 1) * (p - 1), p)
    out = [0] * (n - 1)
    for a, b in live:
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    if y:
                        out[j] = (out[j] + x * y) % p
    return _strip(out)


def _series_inverse(h: list[int], m: int, p: int, g: list[int] | None = None) -> list[int]:
    """g of length m with h*g = 1 mod x^m, by Newton doubling (MCA 9.1);
    needs h[0] != 0.  A shorter inverse g of h, if given, is lengthened."""
    g = list(g) if g else [pow(h[0], p - 2, p)]
    k = len(g)
    while k < m:
        k2 = min(2 * k, m)
        # h*g = 1 + x^k e mod x^k2, so g - x^k (g e) is exact mod x^k2
        e = mul(h[:k2], g, p)[k:k2]
        corr = mul(g[:k2 - k], e, p)[:k2 - k]
        g += neg(corr, p)
        g += [0] * (k2 - len(g))
        k = k2
    return g


def _newton_divmod(a: list[int], b: list[int], inv: list[int], p: int) -> tuple[list[int], list[int]]:
    # the quotient in blocks of k = len(inv) terms, from the top; with inv =
    # rev(b)^(-1) mod x^k, a block is rev(top k terms of r) * inv mod x^k,
    # reversed, and subtracting x^s * block * b from r cancels those k terms
    # and changes only the deg b terms below them
    db, k = len(b) - 1, len(inv)
    r, blocks = list(a), []
    while len(r) > db:
        m = min(k, len(r) - db)
        s = len(r) - db - m
        q = mul(r[-m:][::-1], inv[:m], p)[:m]
        q += [0] * (m - len(q))
        q.reverse()
        blocks.append(q)
        low, qb = _strip(r[s:s + db]), _strip(mul(q[:db], b[:db], p)[:db])
        # an exact division, the common case, is told by one list comparison
        low = [] if low == qb else sub(low, qb, p)
        r[s:] = low + [0] * (db - len(low))
    return [c for q in reversed(blocks) for c in q], _strip(r)


def _lanes(p: int) -> bool:
    # a remainder slot below p plus a slot of (p-c)*b, at most (p-1)^2,
    # sums to at most p(p-1): below 256, no byte of the big-int sum carries,
    # for every prime p <= 13 (17*16 = 272)
    return p * (p - 1) < 256


def _lane_rem(r: bytearray, b: bytearray, p: int, q: list[int] | None = None) -> bytearray:
    """r mod b on byte lanes, one coefficient a byte, for b trimmed and
    _lanes(p); r is reduced in place, and the trimmed remainder returned.

    Each nonzero quotient term c, from the top, is one big-int sum of the
    top deg b + 1 bytes of r and (p-c)*b, no slot carrying (``_lanes``),
    and one ``bytes.translate`` back to residues; (p-c)*b is packed once
    per distinct c.  Quotient terms go into q at their degree, if given."""
    db = len(b) - 1
    inv = pow(b[-1], p - 2, p)
    fold = _table(p, 1)
    multiples: dict[int, int] = {}
    for i in range(len(r) - 1, db - 1, -1):
        if r[i]:
            c = r[i] * inv % p
            if q is not None:
                q[i - db] = c
            bc = multiples.get(c)
            if bc is None:
                bc = multiples[c] = int.from_bytes(b.translate(_table(p, p - c)), "little")
            lo = i - db
            r[lo:i + 1] = (int.from_bytes(r[lo:i + 1], "little") + bc).to_bytes(db + 1, "little").translate(fold)
    del r[db:]
    return r.rstrip(b"\0")


def _newton_pays(m: int, db: int) -> bool:
    # whether Newton division beats the schoolbook loop for an m-term
    # quotient over a divisor of degree db; a constant divisor is a scal.
    # Measured: a schoolbook step costs about as much as 4 divisor terms,
    # and the crossover runs through 48-term quotients over divisors of
    # degree 48
    t = _NEWTON_THRESHOLD
    return db > 0 and m >= t and m * (db + 4) >= t * (t + 4)


def _newton_precision(m: int, db: int) -> int:
    # quotient terms per block of a Newton division
    return min(m, max(db, _NEWTON_BLOCK))


def divmod_(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    r = trim(a)
    db = len(b) - 1
    m = len(r) - db
    if m <= 0:
        return [], r
    if db == 0:
        return scal(r, pow(b[0], p - 2, p), p), []
    if _newton_pays(m, db):
        return _newton_divmod(r, b, _series_inverse(b[::-1], _newton_precision(m, db), p), p)
    q = [0] * m
    if len(b) >= _LANE_TERMS and _lanes(p):
        r = _lane_rem(bytearray(r), bytearray(b), p, q)
        return _strip(q), list(r)
    inv_lb = pow(b[-1], p - 2, p)
    if db < _SLICE_THRESHOLD:
        for i in range(len(r) - 1, db - 1, -1):
            if r[i]:
                c = (r[i] * inv_lb) % p
                q[i - db] = c
                for j, y in enumerate(b):
                    r[i - db + j] = (r[i - db + j] - c * y) % p
    else:
        low = b[:db]
        for i in range(len(r) - 1, db - 1, -1):
            if r[i]:
                c = (r[i] * inv_lb) % p
                q[i - db] = c
                r[i - db:i] = [(x - c * y) % p for x, y in zip(r[i - db:i], low)]
    del r[db:]
    return _strip(q), _strip(r)


def mod(a: list[int], b: list[int], p: int) -> list[int]:
    return divmod_(a, b, p)[1]


def divexact(a: list[int], b: list[int], p: int) -> list[int]:
    q, r = divmod_(a, b, p)
    if r:
        raise ArithmeticError("inexact polynomial division")
    return q


class Divisor:
    """A polynomial b that many others are divided by.

    Newton division by b needs the series inverse of rev(b) to as many
    terms as a block of the quotient has (the whole quotient, up to
    max(deg b, _NEWTON_BLOCK) terms); ``divmod_`` computes it afresh each
    time.  A Divisor keeps it: each call of ``divmod_all`` inverts at most
    once, to the longest precision its Newton divisions need, and a later
    call reuses a prefix of that inverse or lengthens it.
    """

    __slots__ = ("b", "p", "_inv")

    def __init__(self, b: list[int], p: int):
        if not b:
            raise ZeroDivisionError("polynomial division by zero")
        self.b, self.p = b, p
        self._inv: list[int] = []

    def divmod_all(self, nums: list[list[int]]) -> list[tuple[list[int], list[int]]]:
        """[divmod_(a, b, p) for a in nums]."""
        b, p = self.b, self.p
        db = len(b) - 1
        if max(map(len, nums), default=0) - db < _NEWTON_THRESHOLD:
            return [divmod_(a, b, p) for a in nums]
        nums = [trim(a) for a in nums]
        newton = [_newton_pays(len(a) - db, db) for a in nums]
        k = max((_newton_precision(len(a) - db, db) for a, n in zip(nums, newton) if n), default=0)
        if k > len(self._inv):
            self._inv = _series_inverse(b[::-1], k, p, self._inv)
        return [_newton_divmod(a, b, self._inv[:_newton_precision(len(a) - db, db)], p)
                if n else divmod_(a, b, p) for a, n in zip(nums, newton)]

    def divexact_all(self, nums: list[list[int]]) -> list[list[int]]:
        """[divexact(a, b, p) for a in nums]."""
        out = []
        for q, r in self.divmod_all(nums):
            if r:
                raise ArithmeticError("inexact polynomial division")
            out.append(q)
        return out


def monic(a: list[int], p: int) -> list[int]:
    if not a:
        return []
    return scal(a, pow(a[-1], p - 2, p), p)


def gcd(a: list[int], b: list[int], p: int) -> list[int]:
    """The monic gcd, by Euclid's loop of remainders: where ``_lanes(p)``,
    on byte strings while the divisor has _LANE_TERMS terms or more."""
    if len(a) < len(b):
        a, b = b, a
    if len(b) >= _LANE_TERMS and _lanes(p):
        a, b = bytearray(a).rstrip(b"\0"), bytearray(b).rstrip(b"\0")
        while len(b) >= _LANE_TERMS:
            a, b = b, _lane_rem(a, b, p)
        a, b = list(a), list(b)
    while b:
        a, b = b, mod(a, b, p)
    return monic(a, p)


def lcm(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    # a nonzero constant divides everything
    if len(a) == 1:
        return monic(b, p)
    if len(b) == 1:
        return monic(a, p)
    return monic(divexact(mul(a, b, p), gcd(a, b, p), p), p)


def pow_mod(a: list[int], e: int, m: list[int], p: int) -> list[int]:
    result = [1]
    base = mod(a, m, p)
    while e:
        if e & 1:
            result = mod(mul(result, base, p), m, p)
        base = mod(mul(base, base, p), m, p)
        e >>= 1
    return result


def prime_factors(n: int) -> list[int]:
    """The distinct prime factors of n >= 1, ascending, by trial division."""
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


def is_irreducible(g: list[int], p: int) -> bool:
    """Rabin test for a monic polynomial over F_p."""
    k = deg(g)
    if k <= 0:
        return False
    if k == 1:
        return True
    x = [0, 1]
    checkpoints = {k // q for q in prime_factors(k)}
    frob = x
    for j in range(1, k + 1):
        frob = pow_mod(frob, p, g, p)
        if j in checkpoints:
            if deg(gcd(sub(frob, x, p), g, p)) != 0:
                return False
    return frob == mod(x, g, p)


def smallest_irreducible(p: int, k: int) -> tuple[int, ...]:
    """First monic irreducible of degree k, by lex order on (a_0, .., a_{k-1})."""
    if k == 1:
        return (0, 1)
    x = [0, 1]
    # a_0 = 0 would give a factor of X, so that block never holds the minimum;
    # candidates are decoded from a counter, so none is built before its turn
    span = p ** (k - 1)
    for code in range((p - 1) * span):
        a0, rest = divmod(code, span)
        g = [0] * (k + 1)
        g[0], g[k] = a0 + 1, 1
        for i in range(k - 1, 0, -1):
            rest, g[i] = divmod(rest, p)
        # a root in F_p is a common factor with X^p - X
        if deg(gcd(sub(pow_mod(x, p, g, p), x, p), g, p)) > 0:
            continue
        if is_irreducible(g, p):
            return tuple(g)
    raise ArithmeticError(f"no irreducible of degree {k} over F_{p}")
