"""Bounded-memory summaries for high-cardinality columns.

Two sketches: a register-based cardinality estimator (distinct counts) and a
replace-minimum frequent-items sketch (heavy hitters). Both hash values
through their canonical byte encoding with a fixed keyed 64-bit hash, so
results are reproducible across runs and platforms for a given seed.

A cardinality sketch's state can also be kept sparse and packed, as
HyperLogLog++ keeps small sketches: only its occupied registers, four bytes
each (pack). estimate_packed merges such packs into the estimate of one
sketch over all their values.
"""

from __future__ import annotations

import hashlib
import heapq
import math
from array import array
from itertools import compress
from typing import Iterable

from .model import Value, canonical_bytes

__all__ = ["hash64", "registers_of", "pack", "estimate_packed", "CardinalityEstimator",
           "FrequentItemsSketch"]


def _hash_key(seed: int) -> bytes:
    return (seed & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "big")


def hash64(value: Value, seed: int = 0) -> int:
    """Keyed 64-bit hash of a value's canonical encoding (blake2b, 8-byte digest)."""
    digest = hashlib.blake2b(canonical_bytes(value), digest_size=8, key=_hash_key(seed)).digest()
    return int.from_bytes(digest, "big")


def registers_of(encodings: Iterable[bytes], precision: int, seed: int = 0) -> dict[int, int]:
    """The occupied registers, index -> value, of a cardinality sketch over
    values given by their canonical encodings: the state CardinalityEstimator
    reaches by adding each value (its add goes through here).

    Each value's hash64 splits into a register index (the top `precision`
    bits) and a rank: the leading-zero run of the remaining 64 - precision
    bits, plus one. A rank is at most 65 - precision <= 61, so it always
    fits a six-bit register. The keyed hasher is made once and copied per
    value.
    """
    keyed = hashlib.blake2b(digest_size=8, key=_hash_key(seed))
    width = 64 - precision
    low = (1 << width) - 1
    out: dict[int, int] = {}
    get = out.get
    for enc in encodings:
        hasher = keyed.copy()
        hasher.update(enc)
        h = int.from_bytes(hasher.digest(), "big")
        index = h >> width
        rank = width + 1 - (h & low).bit_length()
        if rank > get(index, 0):
            out[index] = rank
    return out


def pack(occupied: dict[int, int]) -> array:
    """Occupied registers, index -> value, packed as index << 6 | value into
    one array: four bytes a register. An index is below 2**16 and a value
    at most 61, so each fits an unsigned 32-bit item."""
    return array("I", [i << 6 | r for i, r in occupied.items()])


def estimate_packed(partials: Iterable[array], precision: int) -> float:
    """The estimate of one sketch over the values of every partial, each a
    pack of occupied registers: the estimate a CardinalityEstimator fed all
    those values first reports. The register-wise max is taken into one
    temporary array of 2**precision registers, and the estimate reads its
    occupied registers (see _inverse_sum)."""
    registers = bytearray(1 << precision)
    for packed in partials:
        for x in packed:
            i, r = x >> 6, x & 63
            if r > registers[i]:
                registers[i] = r
    return _estimate(registers, precision)


def _alpha(m: int) -> float:
    # Bias-correction constant for the harmonic-mean estimator.
    if m == 16:
        return 0.673
    if m == 32:
        return 0.697
    if m == 64:
        return 0.709
    return 0.7213 / (1.0 + 1.079 / m)


# The one-byte string of each register value, for bytearray.count and `in`.
_BYTES = [bytes((r,)) for r in range(64)]


def _inverse_sum(registers: bytearray, precision: int) -> float:
    """The sum of 2**-r over the registers, as a left-to-right float loop gives it.

    Every term is a multiple of 2**-top (top = the largest register) and the
    sum is at most 2**precision, so when precision + top <= 53 every partial
    sum is exact, the order of addition cannot matter, and the sum is formed
    from the count of zero registers and a histogram of the occupied ones.
    Otherwise the loop runs as written.
    """
    occupied = registers.translate(None, b"\0")
    top = next((r for r in range(63, 0, -1) if _BYTES[r] in occupied), 0)
    if precision + top <= 53:
        return sum((occupied.count(_BYTES[r]) * 2.0 ** -r for r in range(1, top + 1)),
                   float(len(registers) - len(occupied)))
    inv_sum = 0.0
    for r in registers:
        inv_sum += 2.0 ** -r
    return inv_sum


def _estimate(registers: bytearray, precision: int) -> float:
    """The harmonic-mean estimate of 2**precision registers, with the
    standard small-range linear-counting correction."""
    m = 1 << precision
    raw = _alpha(m) * m * m / _inverse_sum(registers, precision)
    zeros = registers.count(b"\0")
    return m * math.log(m / zeros) if raw <= 2.5 * m and zeros > 0 else raw


class CardinalityEstimator:
    """Probabilistic distinct counter over 2**precision six-bit registers.

    precision p is clamped to [4, 16] by validation; the estimate applies the
    standard small-range linear-counting correction. Inserting a duplicate
    never changes state, and the reported estimate never decreases.
    """

    __slots__ = ("precision", "seed", "_m", "_registers", "_peak")

    def __init__(self, precision: int = 14, seed: int = 0):
        if not isinstance(precision, int) or not 4 <= precision <= 16:
            raise ValueError(f"precision must be an int in [4, 16], got {precision!r}")
        self.precision = precision
        self.seed = seed
        self._m = 1 << precision
        self._registers = bytearray(self._m)
        self._peak = 0.0

    def add(self, value: Value) -> None:
        self.merge(registers_of((canonical_bytes(value),), self.precision, self.seed))

    def occupied(self) -> dict[int, int]:
        """The non-zero registers, index -> value: all the state a merge needs."""
        registers = self._registers
        return {i: registers[i] for i in compress(range(self._m), registers)}

    def merge(self, occupied: dict[int, int]) -> None:
        """Fold in another sketch's occupied registers by register-wise max.

        The result equals the sketch of both inputs' values, and the cost is
        proportional to the registers given, not to 2**precision.
        """
        registers = self._registers
        for i, r in occupied.items():
            if r > registers[i]:
                registers[i] = r

    def estimate(self) -> float:
        # The raw estimator can dip when crossing the linear-counting handoff;
        # clamp to the high-water mark so the estimate is non-decreasing.
        est = _estimate(self._registers, self.precision)
        if est < self._peak:
            est = self._peak
        else:
            self._peak = est
        return est


class FrequentItemsSketch:
    """Replace-minimum frequent-items sketch with fixed capacity.

    Tracks at most `capacity` items as (count, error) pairs. Counts never
    undercount: true_count <= count <= true_count + error, and the counts of
    tracked items always sum to the number of insertions. Every item whose
    true frequency exceeds n/capacity is guaranteed to be tracked.
    """

    __slots__ = ("capacity", "_items", "_heap", "total")

    def __init__(self, capacity: int = 256):
        if not isinstance(capacity, int) or capacity < 1:
            raise ValueError(f"capacity must be an int >= 1, got {capacity!r}")
        self.capacity = capacity
        # canonical key -> [count, error, value]
        self._items: dict[bytes, list] = {}
        # (count, key) min-heap with lazy invalidation on increment.
        self._heap: list[tuple[int, bytes]] = []
        self.total = 0

    def add(self, value: Value) -> None:
        key = canonical_bytes(value)
        self.total += 1
        entry = self._items.get(key)
        if entry is not None:
            entry[0] += 1
            heapq.heappush(self._heap, (entry[0], key))
            if len(self._heap) > 8 * self.capacity + 64:
                self._compact()
            return
        if len(self._items) < self.capacity:
            self._items[key] = [1, 0, value]
            heapq.heappush(self._heap, (1, key))
            return
        # Evict the current minimum; the newcomer inherits its count as error.
        while True:
            count, min_key = self._heap[0]
            live = self._items.get(min_key)
            if live is not None and live[0] == count:
                break
            heapq.heappop(self._heap)  # stale entry
        heapq.heappop(self._heap)
        min_count = self._items.pop(min_key)[0]
        self._items[key] = [min_count + 1, min_count, value]
        heapq.heappush(self._heap, (min_count + 1, key))
        if len(self._heap) > 8 * self.capacity + 64:
            self._compact()

    def _compact(self) -> None:
        # Drop stale heap entries so memory stays O(capacity).
        self._heap = [(entry[0], key) for key, entry in self._items.items()]
        heapq.heapify(self._heap)

    def query(self, phi: float, n: int | None = None) -> list[tuple[Value, int, int]]:
        """Items whose upper-bound count reaches phi * n.

        Returns (value, count_lo, count_hi) triples, count_hi descending with
        canonical-encoding ties, where count_lo = count - error is a lower
        bound and count_hi = count an upper bound on the true frequency.
        """
        if not 0.0 < phi <= 1.0:
            raise ValueError(f"phi must be in (0, 1], got {phi!r}")
        if n is None:
            n = self.total
        cut = phi * n
        out = [(entry[2], entry[0] - entry[1], entry[0])
               for key, entry in self._items.items() if entry[0] >= cut]
        out.sort(key=lambda item: (-item[2], canonical_bytes(item[0])))
        return out
