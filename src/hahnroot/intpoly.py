"""Dense polynomials over the prime field F_p, as little-endian int lists.

The zero polynomial is []. All functions return freshly allocated lists and
keep coefficients reduced into [0, p).

Above size thresholds, chosen by measurement, the arithmetic is subquadratic
(von zur Gathen & Gerhard, *Modern Computer Algebra*, chs. 8, 9, 11):
products by Kronecker substitution into one big-int product, division by a
Newton-iteration power-series inverse, applied in blocks of the quotient,
gcd by the half-gcd reduction. Below them the schoolbook loops run. A
``Divisor`` divides many polynomials by one, computing that series inverse
once.

Over small primes the long paths run on byte strings, one byte per
coefficient, with no per-coefficient Python loop. A Kronecker slot is
exactly as many bytes wide as its bound needs. Where w-byte slots have
w*(p-1) < 256 (p <= 61 up to 4-byte slots, p <= 83 up to 3 bytes, every
p <= 31 up to 8), the product is read back one byte lane at a time through
``bytes.translate`` tables, the lanes summed as big ints with no carry;
every other product packs struct items and reduces each slot in Python.
``neg`` and ``scal`` (p < 256) are one translate; ``add`` and ``sub``, for
p <= 128, one big-int sum of byte strings and one translate.

The fast paths reach ``mul`` and ``divmod_`` through the module globals, so
a wrapper installed on those names sees every product and every division
that does not go through a ``Divisor``'s own inverse.
"""

from __future__ import annotations

import struct
from functools import lru_cache


def trim(a: list[int]) -> list[int]:
    return _strip(list(a))


def _strip(out: list[int]) -> list[int]:
    # trim in place, for a list the caller has just built; sums that cancel
    # (half-gcd matrix products) leave long zero tails, dropped in blocks
    if out and not out[-1]:
        while len(out) > 32 and not any(out[-32:]):
            del out[-32:]
        while out and not out[-1]:
            out.pop()
    return out


def deg(a: list[int]) -> int:
    return len(a) - 1


def add(a: list[int], b: list[int], p: int) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    n = len(b)
    if n >= _BYTE_THRESHOLD and p <= 128:
        out = _byte_sum(a[:n], bytearray(b), p) + a[n:]
    else:
        out = list(a)
        for i, c in enumerate(b):
            out[i] = (out[i] + c) % p
    return _strip(out)


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
# neg and scal map bytes through one translate table.  add and sub also need
# a sum of two coefficients to fit, p <= 128: they add byte strings as big
# ints, no byte carrying, and reduce the sum by one more table.
_BYTE_THRESHOLD = 64
# below this combined length, schoolbook multiplication beats packing
_PACK_THRESHOLD = 48
# from this divisor degree on, a schoolbook step updates one slice at a time
_SLICE_THRESHOLD = 24
# Newton division from this many quotient terms, once the schoolbook work is
# as much as over a divisor of this degree (see _newton_pays); it runs in
# blocks of this many quotient terms, or of deg b if that is more
_NEWTON_THRESHOLD = 48
_NEWTON_BLOCK = 256
# half-gcd once the smaller operand has more than this many terms
_HGCD_THRESHOLD = 256
# half-gcd recursion runs plain Euclid steps from this size down
_HGCD_BASE = 48


# little-endian struct items (size, code) for slots the byte lanes do not take
_ITEMS = ((4, "I"), (8, "Q"))


@lru_cache(maxsize=None)
def _table(p: int, c: int) -> bytes:
    # the bytes.translate table of b -> b*c mod p
    return bytes(b * c % p for b in range(256))


def _byte_unpack(raw: bytes, w: int, p: int) -> list[int]:
    # the little-endian w-byte slots of raw, reduced mod p and trimmed, for
    # w*(p-1) < 256: lane j of a slot maps through b -> b*256^j mod p, so the
    # lane residues of a slot sum to less than 256 and the sum of the lanes,
    # as big ints, has no carry
    acc = 0
    for j in range(w):
        acc += int.from_bytes(raw[j::w].translate(_table(p, pow(256, j, p))), "little")
    return list(acc.to_bytes(len(raw) // w, "little").translate(_table(p, 1)).rstrip(b"\0"))


def _byte_pack(a: list[int], w: int) -> int:
    # a, whose coefficients are bytes, evaluated at 2^(8w)
    buf = bytearray(len(a) * w)
    buf[::w] = bytearray(a)
    return int.from_bytes(buf, "little")


def _byte_sum(a: list[int], b: bytearray, p: int) -> list[int]:
    # a + b, of one length, for p <= 128: no byte of the big-int sum carries
    s = int.from_bytes(bytearray(a), "little") + int.from_bytes(b, "little")
    return list(s.to_bytes(len(a), "little").translate(_table(p, 1)))


def _packed_mul(a: list[int], b: list[int], p: int) -> list[int]:
    # Kronecker substitution: evaluate at 2^(8w), one big-int product, and
    # read the coefficients back out of its bytes; w bytes hold every
    # coefficient of the integer product, so no slot carries into the next
    n = len(a) + len(b) - 1
    w = ((min(len(a), len(b)) * (p - 1) * (p - 1)).bit_length() + 7) // 8
    if w * (p - 1) < 256:
        return _byte_unpack((_byte_pack(a, w) * _byte_pack(b, w)).to_bytes(n * w, "little"), w, p)
    # where a lane sum could carry, the slots are read in Python: as
    # standard-size struct items up to 8 bytes, one int.from_bytes each above
    item = next((size_code for size_code in _ITEMS if size_code[0] >= w), None)
    if item:
        w, code = item
        pa = int.from_bytes(struct.pack(f"<{len(a)}{code}", *a), "little")
        pb = int.from_bytes(struct.pack(f"<{len(b)}{code}", *b), "little")
        vals = struct.unpack(f"<{n}{code}", (pa * pb).to_bytes(n * w, "little"))
    else:
        pa = int.from_bytes(b"".join(c.to_bytes(w, "little") for c in a), "little")
        pb = int.from_bytes(b"".join(c.to_bytes(w, "little") for c in b), "little")
        raw = (pa * pb).to_bytes(n * w, "little")
        vals = [int.from_bytes(raw[i:i + w], "little") for i in range(0, n * w, w)]
    return _strip([v % p for v in vals])


def mul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    if len(a) + len(b) >= _PACK_THRESHOLD:
        return _packed_mul(a, b, p)
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] = (out[i + j] + x * y) % p
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
    inv_lb = pow(b[-1], p - 2, p)
    q = [0] * m
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


# 2x2 polynomial matrices are tuples (m00, m01, m10, m11)
_IDENTITY = ([1], [], [], [1])


def _mat_apply(M, a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    m00, m01, m10, m11 = M
    return (add(mul(m00, a, p), mul(m01, b, p), p),
            add(mul(m10, a, p), mul(m11, b, p), p))


def _mat_mul(M, N, p: int):
    m00, m01, m10, m11 = M
    n00, n01, n10, n11 = N
    return (add(mul(m00, n00, p), mul(m01, n10, p), p),
            add(mul(m00, n01, p), mul(m01, n11, p), p),
            add(mul(m10, n00, p), mul(m11, n10, p), p),
            add(mul(m10, n01, p), mul(m11, n11, p), p))


def _euclid_step(M, a: list[int], b: list[int], p: int):
    # (a, b) -> (b, a mod b), with M -> [[0, 1], [1, -q]] M
    q, r = divmod_(a, b, p)
    m00, m01, m10, m11 = M
    return (m10, m11, sub(m00, mul(q, m10, p), p), sub(m01, mul(q, m11, p), p)), b, r


def _half_gcd(a: list[int], b: list[int], p: int):
    """A product M of Euclid steps with M (a, b) = (a', b') and
    deg b' < ceil(deg a / 2) <= deg a' (MCA 11.1); needs deg a > deg b."""
    m = len(a) // 2
    if len(b) <= m:
        return _IDENTITY
    if len(a) <= _HGCD_BASE:
        M = _IDENTITY
        while len(b) > m:
            M, a, b = _euclid_step(M, a, b, p)
        return M
    # the quotients of the top halves are the first quotients of (a, b)
    R = _half_gcd(a[m:], b[m:], p)
    a, b = _mat_apply(R, a, b, p)
    if len(b) <= m:
        return R
    R, a, b = _euclid_step(R, a, b, p)
    if len(b) <= m:
        return R
    k = 2 * m - deg(a)
    return _mat_mul(_half_gcd(a[k:], b[k:], p), R, p)


def gcd(a: list[int], b: list[int], p: int) -> list[int]:
    """The monic gcd; half-gcd reductions above the threshold, Euclid below."""
    if len(a) < len(b):
        a, b = b, a
    while len(b) > _HGCD_THRESHOLD:
        a, b = b, mod(a, b, p)
        if len(b) > len(a) // 2:
            a, b = _mat_apply(_half_gcd(a, b, p), a, b, p)
    while b:
        a, b = b, mod(a, b, p)
    return monic(a, p)


def lcm(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
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
