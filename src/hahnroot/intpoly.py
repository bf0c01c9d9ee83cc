"""Dense polynomials over the prime field F_p, as little-endian int lists.

The zero polynomial is []. All functions return freshly allocated lists and
keep coefficients reduced into [0, p).
"""

from __future__ import annotations

from itertools import product


def trim(a: list[int]) -> list[int]:
    n = len(a)
    while n and a[n - 1] == 0:
        n -= 1
    return a[:n]


def deg(a: list[int]) -> int:
    return len(a) - 1


def add(a: list[int], b: list[int], p: int) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = (out[i] + c) % p
    return trim(out)


def neg(a: list[int], p: int) -> list[int]:
    return [(-c) % p for c in a]


def sub(a: list[int], b: list[int], p: int) -> list[int]:
    return add(a, neg(b, p), p)


def scal(a: list[int], c: int, p: int) -> list[int]:
    c %= p
    if c == 0:
        return []
    return trim([(c * x) % p for x in a])


# below this combined length, schoolbook multiplication beats packing
_PACK_THRESHOLD = 48


def _packed_mul(a: list[int], b: list[int], p: int) -> list[int]:
    # Kronecker substitution: evaluate at 2^(8w) and use big-int multiplication
    bound = min(len(a), len(b)) * (p - 1) * (p - 1)
    w = (bound.bit_length() + 7) // 8
    pa = int.from_bytes(b"".join(c.to_bytes(w, "little") for c in a), "little")
    pb = int.from_bytes(b"".join(c.to_bytes(w, "little") for c in b), "little")
    prod = pa * pb
    n = len(a) + len(b) - 1
    raw = prod.to_bytes(n * w + w, "little")
    return trim([int.from_bytes(raw[i * w:(i + 1) * w], "little") % p for i in range(n)])


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
    return trim(out)


def divmod_(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(a)
    db, lb = deg(b), b[-1]
    inv_lb = pow(lb, p - 2, p)
    q = [0] * max(len(a) - db, 0)
    for i in range(len(r) - 1, db - 1, -1):
        if r[i]:
            c = (r[i] * inv_lb) % p
            q[i - db] = c
            for j, y in enumerate(b):
                r[i - db + j] = (r[i - db + j] - c * y) % p
    return trim(q), trim(r)


def mod(a: list[int], b: list[int], p: int) -> list[int]:
    return divmod_(a, b, p)[1]


def divexact(a: list[int], b: list[int], p: int) -> list[int]:
    q, r = divmod_(a, b, p)
    if r:
        raise ArithmeticError("inexact polynomial division")
    return q


def monic(a: list[int], p: int) -> list[int]:
    if not a:
        return []
    return scal(a, pow(a[-1], p - 2, p), p)


def gcd(a: list[int], b: list[int], p: int) -> list[int]:
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


def derivative(a: list[int], p: int) -> list[int]:
    return trim([(i * c) % p for i, c in enumerate(a)][1:])


def eval_(a: list[int], x: int, p: int) -> int:
    y = 0
    for c in reversed(a):
        y = (y * x + c) % p
    return y


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
    # a_0 = 0 would give a factor of X, so that block never holds the minimum
    for a0 in range(1, p):
        for rest in product(range(p), repeat=k - 1):
            g = [a0, *rest, 1]
            if any(eval_(g, c, p) == 0 for c in range(p)):
                continue
            if is_irreducible(g, p):
                return tuple(g)
    raise ArithmeticError(f"no irreducible of degree {k} over F_{p}")
