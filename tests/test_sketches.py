"""Cardinality and frequent-items sketches: accuracy and hard guarantees."""

import math
import random
from collections import Counter
from datetime import timedelta

import pytest

from streamqc.model import canonical_bytes
from streamqc.sketches import (
    CardinalityEstimator,
    FrequentItemsSketch,
    _alpha,
    _inverse_sum,
    estimate_packed,
    hash64,
    pack,
    registers_of,
)

from helpers import T0


# ---------------------------------------------------------------------------
# Hashing


def test_hash64_is_seeded_and_stable():
    # Frozen anchors: any change to the hash changes approximate results
    # everywhere, which would break cross-run determinism guarantees.
    assert hash64(42, 0) == 360416751131084246
    assert hash64(42, 1) == 260108756769197733
    assert hash64("taxi", 0) == 7058568059372236264


def test_hash64_respects_canonical_identity():
    assert hash64(1, 0) != hash64(1.0, 0)  # int and float hash apart
    assert hash64(-0.0, 0) == hash64(0.0, 0)
    assert 0 <= hash64("x", 7) < 2 ** 64


# ---------------------------------------------------------------------------
# Cardinality


def test_cardinality_empty_and_single():
    est = CardinalityEstimator(seed=0)
    assert est.estimate() == 0.0
    est.add("a")
    assert round(est.estimate()) == 1


def test_cardinality_duplicates_do_not_count():
    est = CardinalityEstimator(seed=0)
    for _ in range(1000):
        est.add("same")
    assert round(est.estimate()) == 1


def test_cardinality_small_range_is_nearly_exact():
    # Linear counting regime: tiny error expected at 100 distinct, p=14.
    est = CardinalityEstimator(precision=14, seed=0)
    for i in range(100):
        est.add(i)
    assert abs(est.estimate() - 100) <= 2


def test_cardinality_accuracy_at_10k():
    for seed in (0, 1, 2):
        est = CardinalityEstimator(precision=14, seed=seed)
        for i in range(10_000):
            est.add(f"item-{i}")
        err = abs(est.estimate() - 10_000) / 10_000
        assert err <= 0.05, f"seed {seed}: {err:.4f}"


def test_cardinality_estimates_never_decrease():
    rng = random.Random(7)
    est = CardinalityEstimator(precision=8, seed=0)
    prev = 0.0
    for _ in range(5000):
        est.add(rng.randrange(2000))
        now = est.estimate()
        assert now >= prev
        prev = now


def test_cardinality_mixed_types_stay_distinct():
    est = CardinalityEstimator(precision=14, seed=0)
    for v in (1, 1.0, True, "1", None):
        est.add(v)
    assert abs(est.estimate() - 5) < 0.5


def test_cardinality_precision_bounds():
    with pytest.raises(ValueError):
        CardinalityEstimator(precision=3)
    with pytest.raises(ValueError):
        CardinalityEstimator(precision=17)


def test_cardinality_determinism():
    def run():
        est = CardinalityEstimator(precision=12, seed=5)
        for i in range(3000):
            est.add(i * 31 % 997)
        return est.estimate()

    assert run() == run()


def _random_values(rng, n):
    """Values of every type, with ints past 64 bits, both zeros and repeats."""
    makers = [
        lambda: rng.randint(-2 ** 200, 2 ** 200),
        lambda: rng.choice([2 ** 63, -2 ** 63 - 1, 2 ** 64, 0, -1]),
        lambda: rng.randint(-1000, 1000),
        lambda: rng.choice([0.0, -0.0, math.inf, -math.inf]),
        lambda: rng.uniform(-1e9, 1e9),
        lambda: "".join(rng.choice("abé中") for _ in range(rng.randint(0, 6))),
        lambda: T0 + timedelta(milliseconds=rng.randint(-10 ** 12, 10 ** 12)),
        lambda: rng.random() < 0.5,
    ]
    return [rng.choice(makers)() for _ in range(n)]


def _registers_by_hash64(values, precision, seed):
    """The occupied registers by the textbook rule over hash64: index from
    the top p bits, rank = leading zeros of the other 64 - p bits, plus one."""
    out = {}
    for v in values:
        h = hash64(v, seed)
        rest_bits = 64 - precision
        index = h >> rest_bits
        rest = h & ((1 << rest_bits) - 1)
        rank = min(rest_bits - rest.bit_length() + 1, 63)
        out[index] = max(out.get(index, 0), rank)
    return out


@pytest.mark.parametrize("precision", [4, 7, 12, 14, 16])
@pytest.mark.parametrize("seed", [0, 1, 2 ** 64 + 9, -5])
def test_registers_from_encodings_equal_the_registers_add_builds(precision, seed):
    """A sketch's registers built from a slice's encodings equal those add
    builds value by value, and those of the textbook rule over hash64."""
    rng = random.Random(precision * 1000 + seed % 1000)
    for n in [0, 1, 5, 300, 3000]:
        values = _random_values(rng, n)
        est = CardinalityEstimator(precision, seed)
        for v in values:
            est.add(v)
        from_encodings = registers_of([canonical_bytes(v) for v in values], precision, seed)
        assert from_encodings == est.occupied() == _registers_by_hash64(values, precision, seed)


@pytest.mark.parametrize("precision", [4, 10, 14, 16])
def test_inverse_sum_equals_the_register_loop_bit_for_bit(precision):
    """The count-based sum equals the float loop over the registers, bit for
    bit, both where it applies (precision + max register <= 53) and in the
    fallback beyond it."""
    rng = random.Random(precision)
    m = 1 << precision
    # Large terms first, then terms at or below half an ulp of their sum,
    # which the loop drops and an exact sum keeps.
    half = m // 2
    cases = [bytearray([0]) * half + bytearray([top]) * half
             for top in (53 - precision, 54 - precision, 63)]
    for top in [0, 1, 7, 20, 53 - precision, 54 - precision, 40, 63]:
        for _ in range(3):
            registers = bytearray(rng.randint(0, top) for _ in range(m))
            registers[rng.randrange(m)] = top
            cases.append(registers)
    for registers in cases:
        loop = 0.0
        for r in registers:
            loop += 2.0 ** -r
        assert _inverse_sum(registers, precision).hex() == loop.hex(), max(registers)


def test_estimate_matches_the_register_loop_at_every_size():
    est = CardinalityEstimator(precision=10, seed=3)
    m = 1 << 10
    peak = 0.0
    for i in range(40_000):
        est.add(i)
        if i % 997 == 0:
            loop = 0.0
            for r in est._registers:
                loop += 2.0 ** -r
            zeros = est._registers.count(0)
            raw = _alpha(m) * m * m / loop
            want = m * math.log(m / zeros) if raw <= 2.5 * m and zeros > 0 else raw
            peak = max(peak, want)
            assert est.estimate() == peak


def _packed_partials(values, cuts, precision, seed):
    """The packed registers of each slice of values, cut at the given points."""
    bounds = [0, *cuts, len(values)]
    return [pack(registers_of([canonical_bytes(v) for v in values[lo:hi] if v is not None],
                              precision, seed))
            for lo, hi in zip(bounds, bounds[1:])]


@pytest.mark.parametrize("precision", range(4, 17))
@pytest.mark.parametrize("seed", [0, 7, -3])
def test_the_estimate_of_packed_slices_equals_one_estimator_over_every_value(precision, seed):
    """A pane's estimate from its slices' packed registers equals, bit for
    bit, the first estimate of a CardinalityEstimator fed every value, over
    random splits into slices (empty and all-Null slices included)."""
    rng = random.Random(precision * 100 + seed)
    for n in [0, 1, 40, 700, 5000]:
        values = _random_values(rng, n) + [None] * rng.randint(0, 3)
        rng.shuffle(values)
        est = CardinalityEstimator(precision, seed)
        for v in values:
            if v is not None:
                est.add(v)
        want = est.estimate()
        for _ in range(3):
            cuts = sorted(rng.randint(0, len(values)) for _ in range(rng.randint(0, 6)))
            got = estimate_packed(_packed_partials(values, cuts, precision, seed), precision)
            assert got.hex() == want.hex(), (n, cuts)


@pytest.mark.parametrize("precision", [4, 10, 16])
def test_the_estimate_of_packed_registers_past_exact_sums_takes_the_register_loop(precision):
    """Registers whose largest value makes precision + top > 53: the packed
    estimate takes the float loop over the registers, in index order, and
    equals an estimator merged from the same registers."""
    rng = random.Random(precision)
    m = 1 << precision
    top = 65 - precision  # the largest rank a hash can give
    assert precision + top > 53
    slices = [{i: rng.randint(1, 20) for i in rng.sample(range(m), m // 3)} for _ in range(4)]
    slices[rng.randrange(4)][rng.randrange(m)] = top
    est = CardinalityEstimator(precision)
    for occupied in slices:
        est.merge(occupied)
    loop = 0.0
    for r in est._registers:
        loop += 2.0 ** -r
    zeros = est._registers.count(0)
    raw = _alpha(m) * m * m / loop
    want = m * math.log(m / zeros) if raw <= 2.5 * m and zeros > 0 else raw
    got = estimate_packed([pack(occupied) for occupied in slices], precision)
    assert got.hex() == est.estimate().hex() == want.hex()


def test_a_packed_register_takes_four_bytes():
    occupied = {0: 1, 2 ** 16 - 1: 61, 300: 7}
    packed = pack(occupied)
    assert packed.itemsize == 4
    assert {x >> 6: x & 63 for x in packed} == occupied


# ---------------------------------------------------------------------------
# Frequent items


def test_frequent_items_exact_under_capacity():
    sk = FrequentItemsSketch(capacity=16)
    stream = ["a"] * 5 + ["b"] * 3 + ["c"] * 2
    for v in stream:
        sk.add(v)
    got = {item: (lo, hi) for item, lo, hi in sk.query(0.05)}
    assert got == {"a": (5, 5), "b": (3, 3), "c": (2, 2)}


def test_frequent_items_phi_threshold():
    sk = FrequentItemsSketch(capacity=16)
    for v in ["a"] * 5 + ["b"] * 3 + ["c"] * 2:
        sk.add(v)
    # n = 10, phi = 0.4 keeps items that may reach 4 occurrences
    assert [item for item, lo, hi in sk.query(0.4)] == ["a"]


def test_frequent_items_bounds_contain_truth():
    rng = random.Random(13)
    sk = FrequentItemsSketch(capacity=50)
    truth = Counter()
    for _ in range(20_000):
        v = rng.randrange(500)  # far more distinct values than capacity
        truth[v] += 1
        sk.add(v)
    for item, lo, hi in sk.query(0.001):
        assert lo <= truth[item] <= hi, item


def test_frequent_items_no_false_negatives_above_n_over_k():
    rng = random.Random(29)
    k = 64
    sk = FrequentItemsSketch(capacity=k)
    truth = Counter()
    # Skewed stream: a handful of hot items over a noisy tail.
    for _ in range(30_000):
        if rng.random() < 0.4:
            v = f"hot-{rng.randrange(8)}"
        else:
            v = f"cold-{rng.randrange(5000)}"
        truth[v] += 1
        sk.add(v)
    n = sum(truth.values())
    reported = {item for item, lo, hi in sk.query(1.0 / k)}
    for item, count in truth.items():
        if count > n / k:
            assert item in reported, f"{item} ({count} > {n / k:.1f}) missing"


def test_frequent_items_total_count_is_conserved():
    # Space-saving invariant: tracked counts sum to the number of inserts.
    rng = random.Random(3)
    sk = FrequentItemsSketch(capacity=32)
    n = 10_000
    for _ in range(n):
        sk.add(rng.randrange(400))
    items = sk.query(0.0000001)
    assert sum(hi for _, _, hi in items) == n
    assert sk.total == n


def test_frequent_items_compaction_keeps_invariants():
    # Enough inserts to force repeated heap compaction.
    rng = random.Random(17)
    sk = FrequentItemsSketch(capacity=8)
    truth = Counter()
    for _ in range(100_000):
        v = rng.randrange(2000)
        truth[v] += 1
        sk.add(v)
    items = sk.query(0.0000001)
    assert len(items) <= 8
    assert sum(hi for _, _, hi in items) == 100_000
    for item, lo, hi in items:
        assert lo <= truth[item] <= hi
    # Bounded memory: the lazy heap must not retain one entry per insert.
    assert len(sk._heap) <= 8 * 8 + 64


def test_frequent_items_deterministic_output_order():
    def run():
        sk = FrequentItemsSketch(capacity=10)
        for v in ["b"] * 4 + ["a"] * 4 + ["c"] * 2:
            sk.add(v)
        return sk.query(0.1)

    first, second = run(), run()
    assert first == second
    # Ties on the upper bound break by canonical value order.
    assert [item for item, _, _ in first][:2] == ["a", "b"]


def test_frequent_items_capacity_validation():
    with pytest.raises(ValueError):
        FrequentItemsSketch(capacity=0)
