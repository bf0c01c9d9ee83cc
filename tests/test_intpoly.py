import os
import random
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from hahnroot import intpoly
from hahnroot.ratfun import _REDUCE_SPAN
from oracles import add


def _schoolbook(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return intpoly.trim(out)


@given(st.sampled_from([2, 3, 5]), st.data())
@settings(max_examples=60, deadline=None)
def test_packed_mul_matches_schoolbook(p, data):
    # sizes straddling the packing threshold
    na = data.draw(st.integers(1, 80))
    nb = data.draw(st.integers(1, 80))
    a = intpoly.trim([data.draw(st.integers(0, p - 1)) for _ in range(na)])
    b = intpoly.trim([data.draw(st.integers(0, p - 1)) for _ in range(nb)])
    if not a or not b:
        assert intpoly.mul(a, b, p) == []
        return
    assert intpoly.mul(a, b, p) == _schoolbook(a, b, p)


@given(st.sampled_from([2, 3, 5]), st.data())
@settings(max_examples=40, deadline=None)
def test_divmod_inverts_mul(p, data):
    a = intpoly.trim([data.draw(st.integers(0, p - 1)) for _ in range(data.draw(st.integers(1, 20)))])
    b = intpoly.trim([data.draw(st.integers(0, p - 1)) for _ in range(data.draw(st.integers(1, 8)))])
    if not b:
        return
    q, r = intpoly.divmod_(a, b, p)
    assert add(intpoly.mul(q, b, p), r, p) == a
    assert intpoly.deg(r) < intpoly.deg(b)


def test_gcd_and_lcm():
    p = 3
    a = intpoly.mul([1, 1], [2, 1], p)  # (t+1)(t+2)
    b = intpoly.mul([1, 1], [1, 0, 1], p)  # (t+1)(t^2+1)
    assert intpoly.gcd(a, b, p) == [1, 1]
    lcm = intpoly.lcm(a, b, p)
    assert intpoly.mod(lcm, a, p) == [] and intpoly.mod(lcm, b, p) == []


@pytest.mark.parametrize("p", [2, 3, 13, 65537])
def test_lcm_with_a_constant_is_the_other_made_monic(p):
    # the shortcut against the product over the gcd, on both sides and for a
    # constant pair, at lengths on both sides of the byte threshold
    rng = random.Random(p)
    for n in (1, 2, 7, 300):
        b = _rand(rng, n, p)
        c = [rng.randrange(1, p)]
        general = intpoly.monic(intpoly.divexact(intpoly.mul(c, b, p), intpoly.gcd(c, b, p), p), p)
        assert intpoly.lcm(c, b, p) == intpoly.lcm(b, c, p) == general == intpoly.monic(b, p)
        assert intpoly.lcm(c, [], p) == [] == intpoly.lcm([], c, p)


def test_irreducibility():
    assert intpoly.is_irreducible([1, 0, 1], 3)  # t^2 + 1
    assert not intpoly.is_irreducible([2, 0, 1], 3)  # t^2 + 2 = (t+1)(t+2)
    assert intpoly.is_irreducible([1, 1, 1], 2)
    assert not intpoly.is_irreducible([1, 0, 0, 1], 2)  # t^3+1 has root 1


# -- the fast paths against schoolbook oracles, across every size threshold --

# the last two pack as bytes; 13 and 17 lie on either side of the byte
# lanes' bound p(p-1) < 256
PRIMES = [2, 3, 11, 13, 17, 65537, 2**31 - 1, 2**61 - 1]


def _oracle_divmod(a, b, p):
    r = intpoly.trim(list(a))
    db, inv = len(b) - 1, pow(b[-1], p - 2, p)
    q = [0] * max(len(r) - db, 0)
    for i in range(len(r) - 1, db - 1, -1):
        c = r[i] * inv % p
        q[i - db] = c
        for j, y in enumerate(b):
            r[i - db + j] = (r[i - db + j] - c * y) % p
    return intpoly.trim(q), intpoly.trim(r)


def _oracle_gcd(a, b, p):
    while b:
        a, b = b, _oracle_divmod(a, b, p)[1]
    return [c * pow(a[-1], p - 2, p) % p for c in a] if a else []


def _rand(rng, n, p):
    # exactly n terms, the top one nonzero
    return [rng.randrange(p) for _ in range(n - 1)] + [rng.randrange(1, p)] if n else []


def _spy(monkeypatch, name):
    calls = []
    orig = getattr(intpoly, name)

    def spy(*args):
        calls.append(1)
        return orig(*args)

    monkeypatch.setattr(intpoly, name, spy)
    return calls


def _dense(rng, n, p):
    # n terms, none of them zero, so a product's schoolbook steps are na * nb
    return [rng.randrange(1, p) for _ in range(n)]


@pytest.mark.parametrize("p", PRIMES)
def test_mul_matches_schoolbook_across_the_packing_threshold(p, monkeypatch):
    rng = random.Random(p)
    packed = _spy(monkeypatch, "_packed_dot")
    t = intpoly._DOT_THRESHOLD
    # shapes just below and at the one-pair rule, 2t steps, and far above it
    at_rule = [(na, -(-2 * t // na) + d) for na in (2, 3, 7) for d in (-1, 0)]
    for na, nb in at_rule + [(3, 200), (150, 170)]:
        a, b = _dense(rng, na, p), _dense(rng, nb, p)
        before = len(packed)
        assert intpoly.mul(a, b, p) == _schoolbook(a, b, p) == intpoly.mul(b, a, p)
        assert len(packed) - before == 2 * (na * nb >= 2 * t), (na, nb)
    # a constant, [0] and empty operands never pack; untrimmed operands
    # give the trimmed product, on both sides of the rule
    long = _dense(rng, 4 * t, p)
    before = len(packed)
    for c in ([1], [p - 1], [rng.randrange(1, p)]):
        assert intpoly.mul(c, long, p) == _schoolbook(c, long, p) == intpoly.mul(long, c, p)
    for z in ([0], []):
        assert intpoly.mul(z, long, p) == [] == intpoly.mul(long, z, p)
    assert intpoly.mul([], [], p) == [] == intpoly.mul([0], [0], p)
    assert len(packed) == before
    for na, nb in ((2, 3), (20, 30)):
        a, b = _dense(rng, na, p), _dense(rng, nb, p)
        assert intpoly.mul(a + [0, 0], b + [0], p) == _schoolbook(a, b, p) == intpoly.mul(b + [0], a + [0, 0], p)
    assert len(packed) == before + 2


@pytest.mark.parametrize("p", PRIMES)
def test_divmod_matches_schoolbook_across_the_division_thresholds(p, monkeypatch):
    rng = random.Random(p)
    newton = _spy(monkeypatch, "_newton_divmod")
    lanes = _spy(monkeypatch, "_lane_rem")
    s, n, lt = intpoly._SLICE_THRESHOLD, intpoly._NEWTON_THRESHOLD, intpoly._LANE_TERMS
    # (quotient length, divisor degree); divisors of lt - 1 and lt terms
    # straddle the byte lanes' crossover
    shapes = [(1, 0), (200, 0), (1, 200), (5, s - 1), (5, s), (n - 1, n), (n, n - 1),
              (n, n), (n + 1, n), (3 * n, 2 * n), (1, 3 * n),
              (1, lt - 2), (5, lt - 2), (n - 1, lt - 2), (1, lt - 1), (5, lt - 1), (n - 1, lt - 1)]
    for m, db in shapes:
        a, b = _rand(rng, m + db, p), _rand(rng, db + 1, p)
        q, r = intpoly.divmod_(a, b, p)
        assert (q, r) == _oracle_divmod(a, b, p)
        assert intpoly.mod(a, b, p) == r
        prod = intpoly.mul(q, b, p)
        assert intpoly.divexact(prod, b, p) == q
        # a shorter dividend gives no quotient and is its own remainder
        assert intpoly.divmod_(b[:-1] or [], b, p) == ([], intpoly.trim(b[:-1]))
    # sparse operands, whose reversed quotient ends in zeros
    for m, db, gap in ((3 * n, n + 1, 5), (2 * n + 1, n, n // 2)):
        a = [1] + [0] * (m + db - 2) + [1]
        b = [1] + [0] * (gap - 1) + [p - 1] + [0] * (db - gap - 1) + [1]
        assert intpoly.divmod_(a, b, p) == _oracle_divmod(a, b, p)
    assert newton
    assert bool(lanes) == (p * (p - 1) < 256)


@pytest.mark.parametrize("p", PRIMES)
def test_divexact_raises_on_the_newton_path(p, monkeypatch):
    rng = random.Random(p)
    newton = _spy(monkeypatch, "_newton_divmod")
    n = intpoly._NEWTON_THRESHOLD
    b = _rand(rng, n + 1, p)
    exact = intpoly.mul(_rand(rng, n + 3, p), b, p)
    for off in ([1], [0] * (n - 1) + [1]):
        with pytest.raises(ArithmeticError):
            intpoly.divexact(add(exact, off, p), b, p)
    assert newton


@given(st.sampled_from([2, 3, 5, 7, 11]), st.data())
@settings(max_examples=60, deadline=None)
def test_shared_inverse_divides_like_divexact(p, data):
    # batches of exact multiples of one divisor through one Divisor; divisor
    # degrees and quotient lengths at, below and above the Newton threshold,
    # so a batch mixes both division paths and a later one may need a longer
    # inverse than an earlier one computed
    n = intpoly._NEWTON_THRESHOLD
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    b = _rand(rng, data.draw(st.sampled_from([1, n - 1, n, n + 1, 2 * n])) + 1, p)
    d = intpoly.Divisor(b, p)
    for _ in range(data.draw(st.integers(1, 3))):
        lengths = data.draw(st.lists(st.sampled_from([0, 1, n - 1, n, n + 1, 3 * n]),
                                     min_size=1, max_size=4))
        quotients = [_rand(rng, m, p) for m in lengths]
        nums = [intpoly.mul(q, b, p) for q in quotients]
        assert d.divexact_all(nums) == [intpoly.divexact(a, b, p) for a in nums] == quotients
        assert d.divmod_all(nums) == [intpoly.divmod_(a, b, p) for a in nums]
    off = add(nums[-1], [1], p)
    assert d.divmod_all([off]) == [intpoly.divmod_(off, b, p)]
    if len(b) > 1:
        with pytest.raises(ArithmeticError):
            d.divexact_all([off])


def test_divisor_inverts_once_per_longer_precision(monkeypatch):
    rng = random.Random(5)
    inverses = _spy(monkeypatch, "_series_inverse")
    p, n = 7, intpoly._NEWTON_THRESHOLD
    b = _rand(rng, n + 1, p)
    d = intpoly.Divisor(b, p)
    nums = [intpoly.mul(_rand(rng, m, p), b, p) for m in (n, 3 * n, 2 * n)]
    d.divexact_all(nums)
    assert len(inverses) == 1
    # shorter quotients read a prefix of the inverse
    d.divexact_all(nums[:1] + nums[2:])
    assert len(inverses) == 1
    d.divexact_all([intpoly.mul(_rand(rng, 5 * n, p), b, p)])
    assert len(inverses) == 2
    with pytest.raises(ZeroDivisionError):
        intpoly.Divisor([], p)


@pytest.mark.parametrize("p", PRIMES)
def test_gcd_matches_euclid_across_the_lane_threshold(p, monkeypatch):
    # shapes on both sides of 256 and 48 terms; operands of lt - 1 to lt + 1
    # terms, on either side of where Euclid's loop leaves the byte lanes, and
    # common factors of as many; one of _REDUCE_SPAN + 1 terms, the longest
    # gcd a reduced fraction asks for
    lanes = _spy(monkeypatch, "_lane_rem")
    rng = random.Random(p)
    h, n, lt = 256, _REDUCE_SPAN + 1, intpoly._LANE_TERMS
    # (common factor, cofactor of a, cofactor of b) lengths
    for lc, la, lb in ((1, h, h - 5), (40, h - 30, h - 39), (60, h, h - 1),
                       (1, 2 * h + 7, 2 * h), (h // 2, 3, 2 * h),
                       (1, lt + 1, lt), (1, lt, lt - 1), (lt - 1, 3, 2), (lt, 2, 1), (lt + 1, 1, 1),
                       (31, n - 30, n - 35)):
        c = _rand(rng, lc, p)
        a = intpoly.mul(_rand(rng, la, p), c, p)
        b = intpoly.mul(_rand(rng, lb, p), c, p)
        g = _oracle_gcd(a, b, p)
        assert intpoly.gcd(a, b, p) == g == intpoly.gcd(b, a, p)
        assert intpoly.mod(a, g, p) == [] and intpoly.mod(b, g, p) == []
        monic_a = intpoly.monic(a, p)
        assert intpoly.gcd(a, [], p) == monic_a == intpoly.gcd([], a, p)
    assert len(a) == n
    assert intpoly.gcd([], [], p) == []
    assert bool(lanes) == (p * (p - 1) < 256)


@given(st.sampled_from([2, 3, 5, 7, 11, 13, 17]), st.data())
@settings(max_examples=150, deadline=None)
def test_divmod_and_gcd_match_the_oracles(p, data):
    # b = c*y and a = q*b + r, lengths on both sides of the lane threshold,
    # from a seed: exact multiples (no r), common factors of t^k times a
    # polynomial (zero low terms), dividends shorter than the divisor (no
    # q) and dividends passed with zeros above their top term
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    lt = intpoly._LANE_TERMS
    length = st.one_of(st.integers(1, lt + 2), st.integers(lt + 3, 60))
    c = [0] * data.draw(st.integers(0, 3)) + _rand(rng, data.draw(length), p)
    b = intpoly.mul(c, _rand(rng, data.draw(length), p), p)
    q = _rand(rng, data.draw(st.one_of(st.just(0), length)), p)
    r = _rand(rng, data.draw(st.integers(0, len(b) - 1)), p) if data.draw(st.booleans()) else []
    a = add(intpoly.mul(q, b, p), r, p)
    tail = [0] * data.draw(st.integers(0, 3))
    assert intpoly.divmod_(a + tail, b, p) == _oracle_divmod(a, b, p)
    g = _oracle_gcd(a, b, p)
    assert intpoly.gcd(a, b, p) == g == intpoly.gcd(b, a, p)
    if not r:
        assert intpoly.mod(a, g, p) == [] and len(g) >= len(intpoly.trim(c))


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_add_and_sub_of_unequal_lengths(p):
    rng = random.Random(p)
    for na, nb in ((0, 3), (3, 0), (2, 7), (7, 2), (5, 5)):
        a, b = _rand(rng, na, p), _rand(rng, nb, p)
        s = add(a, b, p)
        assert intpoly.sub(s, b, p) == intpoly.trim(a)
        assert intpoly.sub(a, a, p) == [] and add(a, intpoly.neg(a, p), p) == []


# -- the byte-string kernels against plain loops --

BYTE_PRIMES = [2, 3, 7, 11, 31, 127, 131, 251, 257, 65537, 2**61 - 1]


def _slot_path(m, p):
    # (bytes per slot, path) as _packed_dot chooses them for a sum whose
    # shorter operands total m terms: byte lanes, struct items up to 8
    # bytes, one int.to_bytes per slot above
    w = ((m * (p - 1) ** 2).bit_length() + 7) // 8
    return w, "lanes" if w * (p - 1) < 256 else "struct" if w <= 8 else "to_bytes"


def test_packed_mul_matches_schoolbook_at_every_slot_width(monkeypatch):
    # 2^24 + 43 and 2^28 + 3 give the 7- and 8-byte slots; every shape but
    # the one below the rule packs through mul
    packed = _spy(monkeypatch, "_packed_dot")
    t = intpoly._DOT_THRESHOLD
    seen = set()
    for p in BYTE_PRIMES + [16777259, 268435459]:
        rng = random.Random(p)
        for na, nb in ((2, t - 1), (2, t), (3, 400), (8, 300), (40, 2000), (300, 400)):
            a, b = _dense(rng, na, p), _dense(rng, nb, p)
            before = len(packed)
            assert intpoly.mul(a, b, p) == _schoolbook(a, b, p) == intpoly.mul(b, a, p)
            assert len(packed) - before == 2 * (na * nb >= 2 * t), (p, na, nb)
            if na * nb >= 2 * t:
                seen.add(_slot_path(min(na, nb), p))
    assert {w for w, _ in seen} >= set(range(1, 9))
    assert {path for _, path in seen} == {"lanes", "struct", "to_bytes"}


def test_byte_lanes_reduce_slots_of_every_width():
    # any slot value at all, carries between lanes included, folds to its
    # residue, at every prime and width the byte lanes take
    rng = random.Random(5)
    for p in [q for q in range(2, 256) if all(q % d for d in range(2, q))]:
        for w in range(1, 9):
            if w * (p - 1) >= 256:
                continue
            n = 50
            raw = bytes(rng.randrange(256) for _ in range(n * w)) + bytes(w)
            oracle = [int.from_bytes(raw[i:i + w], "little") % p for i in range(0, len(raw), w)]
            assert intpoly._byte_unpack(raw, w, p) == intpoly.trim(oracle)
            full = intpoly._byte_unpack(bytes([255]) * (n * w), w, p)
            assert full == intpoly.trim([(256**w - 1) % p] * n)


# -- dot products against sums of products --

# byte lanes throughout at p <= 13; at 61 and 83 until w*(p-1) reaches 256
# (at 83, from 2496 terms under the lane bound); struct items at 131 and 251
DOT_PRIMES = [2, 3, 5, 7, 11, 13, 61, 83, 131, 251]


def _sum_of_schoolbook(pairs, p):
    acc = []
    for a, b in pairs:
        if a and b:
            acc = add(acc, _schoolbook(a, b, p), p)
    return acc


@given(st.sampled_from(DOT_PRIMES), st.data())
@settings(max_examples=200, deadline=None)
def test_dot_is_the_sum_of_products(p, data):
    # operands drawn into a pool and pairs drawn from it, so one list may
    # stand in several pairs and on both sides of one; lengths from empty
    # through the packing rule's schoolbook steps to a few hundred,
    # coefficients from a seed, so an operand may end in zeros
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    length = st.one_of(st.integers(0, 2), st.integers(3, 12), st.integers(13, 300))
    pool = [[rng.randrange(p) for _ in range(n)]
            for n in data.draw(st.lists(length, min_size=1, max_size=6))]
    index = st.integers(0, len(pool) - 1)
    pairs = [(pool[i], pool[j]) for i, j in data.draw(st.lists(st.tuples(index, index), max_size=12))]
    assert intpoly.dot(pairs, p) == _sum_of_schoolbook(pairs, p)


@pytest.mark.parametrize("p", DOT_PRIMES)
def test_dot_across_its_threshold_slot_widths_and_lanes(p, monkeypatch):
    packed = _spy(monkeypatch, "_packed_dot")
    rng = random.Random(p)
    t = intpoly._DOT_THRESHOLD
    # k pairs of operands with no zero terms whose schoolbook steps total
    # just below and at the rule, t * (k + 1); pairs with an empty or a zero
    # operand do not count
    for k in (1, 2, 3, 5):
        for steps in ((k + 1) * t - 1, (k + 1) * t):
            q = steps // (2 * k)
            shape = [(2, q)] * (k - 1) + [(1, steps - 2 * q * (k - 1))]
            pairs = [(_dense(rng, na, p), _dense(rng, nb, p)) for na, nb in shape]
            pairs += [([], _dense(rng, 5, p)), ([0, 0], _dense(rng, 9, p))]
            before = len(packed)
            assert intpoly.dot(pairs, p) == _sum_of_schoolbook(pairs, p), shape
            assert len(packed) - before == (steps >= (k + 1) * t), shape
    # a stretched operand, whose zeros the schoolbook loop skips: its
    # nonzero terms stay below the rule, its length reaches it
    nb = -(-2 * t // 10)
    assert 4 * nb < 2 * t <= 10 * nb
    stretched = [0] * 10
    stretched[::3] = [rng.randrange(1, p) for _ in range(4)]
    before = len(packed)
    pairs = [(stretched, _rand(rng, nb, p))]
    assert intpoly.dot(pairs, p) == _sum_of_schoolbook(pairs, p) and len(packed) == before
    # up to five pairs whose shorter operands total m terms, on both sides
    # of each m where the slot grows a byte or the lanes give way to struct
    # items, through dot and, where dot would not pack them, packed
    limits = {m for m in range(1, 3000) if _slot_path(m, p) != _slot_path(m + 1, p)}
    assert limits
    seen = set()
    for m in sorted(limits | {lim + 1 for lim in limits}):
        k = min(m, 5)
        pairs = [(_rand(rng, n, p), _rand(rng, n + 7, p)) for n in (m // k + (i < m % k) for i in range(k))]
        pairs[0] = pairs[0][::-1]
        oracle = _sum_of_schoolbook(pairs, p)
        n = max(len(a) + len(b) for a, b in pairs) - 1
        assert intpoly.dot(pairs, p) == intpoly._packed_dot(pairs, n, m * (p - 1) ** 2, p) == oracle, m
        seen.add(_slot_path(m, p))
    assert len({w for w, _ in seen}) >= 2
    if p == 83:
        assert {path for _, path in seen} == {"lanes", "struct"}


@pytest.mark.parametrize("p", BYTE_PRIMES)
def test_add_sub_neg_scal_across_the_byte_threshold(p):
    rng = random.Random(p)
    t = intpoly._BYTE_THRESHOLD
    for na, nb in ((t - 1, t - 1), (t, t), (t + 1, t - 1), (t - 1, t + 1), (t, 3), (3, t),
                   (5 * t, 2 * t), (2 * t, 5 * t)):
        a, b = _rand(rng, na, p), _rand(rng, nb, p)
        n = max(na, nb)
        pa, pb = a + [0] * (n - na), b + [0] * (n - nb)
        assert intpoly.sub(a, b, p) == intpoly.trim([(x - y) % p for x, y in zip(pa, pb)])
        assert intpoly.neg(a, p) == [(-x) % p for x in a]
        assert intpoly.scal(a, p - 2, p) == intpoly.trim([(p - 2) * x % p for x in a])
        # sums that cancel at the top, and operands that end in zeros
        assert intpoly.sub(a, a, p) == [] == add(a, intpoly.neg(a, p), p)
        assert intpoly.neg(a + [0, 0], p) == intpoly.neg(a, p) + [0, 0]
        assert intpoly.scal(a + [0], 1, p) == a


@pytest.mark.parametrize("p", [2, 7, 131, 65537])
def test_newton_division_by_short_divisors(p, monkeypatch):
    # divisors of degree 0 to 60, quotients just below, at and above the
    # length from which Newton division pays, and long enough for several
    # blocks; each through divmod_ and through a Divisor
    rng = random.Random(p)
    newton = _spy(monkeypatch, "_newton_divmod")
    t, block = intpoly._NEWTON_THRESHOLD, intpoly._NEWTON_BLOCK
    for db in (0, 1, 2, 3, 5, 8, 13, 21, 34, 47, 48, 60):
        m0 = next(m for m in range(1, 10**4) if intpoly._newton_pays(m, db)) if db else t
        lengths = sorted({m0 - 1, m0, m0 + 1, 2 * block + 7})
        b = _rand(rng, db + 1, p)
        nums = [_rand(rng, m + db, p) for m in lengths]
        nums.append(intpoly.mul(_rand(rng, 3 * block, p), b, p))
        expect = [_oracle_divmod(a, b, p) for a in nums]
        assert [intpoly.divmod_(a, b, p) for a in nums] == expect
        assert intpoly.Divisor(b, p).divmod_all(nums) == expect
        assert expect[-1][1] == []
    assert newton


# -- the first irreducible of each degree --

def _eval(g, x, p):
    y = 0
    for c in reversed(g):
        y = (y * x + c) % p
    return y


def _exhaustive_smallest_irreducible(p, k):
    # the search as first written: every candidate in lex order, each tested
    # for a root at every residue
    if k == 1:
        return (0, 1)
    for a0 in range(1, p):
        for rest in product(range(p), repeat=k - 1):
            g = [a0, *rest, 1]
            if any(_eval(g, c, p) == 0 for c in range(p)):
                continue
            if intpoly.is_irreducible(g, p):
                return tuple(g)
    raise AssertionError("no irreducible found")


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_smallest_irreducible_matches_exhaustive_search(p):
    for k in range(1, 5):
        assert intpoly.smallest_irreducible(p, k) == _exhaustive_smallest_irreducible(p, k)


def test_smallest_irreducible_at_large_p_is_bounded():
    # run under a 2 GB address-space cap, where enumerating range(p) as a
    # tuple raised MemoryError
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
        "from hahnroot import intpoly\n"
        "print(intpoly.smallest_irreducible(10**9 + 7, 2),"
        " intpoly.smallest_irreducible(10**18 + 3, 3))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[0] == "(1, 0, 1) (1, 0, 6, 1)"
