"""Seeded, deterministic hash-function families.

The HyperCube algorithm needs *k independent* hash functions, one per
query variable; the parallel hash join needs one. Python's built-in
``hash`` is salted per process for strings, so we provide a stable family
based on splitmix64 (for integers and tuples of integers) with a blake2b
fallback for arbitrary hashable values. All functions are deterministic
given ``(seed, index)``.

Equal values hash equal: a value is first put in its :func:`canonical`
form, so ``1``, ``1.0``, ``True`` and ``Decimal('1.00')`` — equal keys a
dict join matches — land on one server. The integer paths — scalar and
all-integer tuple — are the *hash spec* shared with the vectorized
kernels of :mod:`repro.kernels.hashing`: the numpy implementation must
reproduce them bit for bit, and the kernels hash any other key once per
distinct value through :func:`_hash_value` itself.
"""

from __future__ import annotations

import hashlib
import numbers
import struct
from typing import Any

_MASK64 = (1 << 64) - 1

# Mixed into the accumulator seed of the tuple chain so that the hash of
# the 1-tuple ``(v,)`` differs from the hash of the bare integer ``v``.
_TUPLE_TAG = 0xA5B35705A3C9B6D1


def splitmix64(x: int) -> int:
    """One step of the splitmix64 mixer — a fast, high-quality 64-bit hash."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def hash_int_tuple(values: tuple[int, ...], salt: int) -> int:
    """The tuple chain: fold splitmix64 over all-integer key tuples.

    This order-sensitive chain is the canonical spec for hashed composite
    join keys; :func:`repro.kernels.hashing.hash_tuple_columns` is its
    vectorized twin (one splitmix64 pass per key column).
    """
    acc = splitmix64((salt ^ _TUPLE_TAG ^ len(values)) & _MASK64)
    for v in values:
        acc = splitmix64((v & _MASK64) ^ acc)
    return acc


def canonical(value: Any) -> Any:
    """The form every value equal to ``value`` shares, so equal keys hash equal.

    A number equal to an ``int`` becomes that ``int`` (``bool``, numpy
    integers, integral floats, ``-0.0``, ``Decimal('1.00')``, a complex
    with no imaginary part); any other number equal to a ``float``
    becomes that ``float``; a tuple is canonical element by element.
    Everything else is its own form.
    """
    kind = type(value)
    if kind is int or kind is str:
        return value
    if isinstance(value, tuple):
        return tuple(map(canonical, value))
    if not isinstance(value, numbers.Number):
        return value
    if isinstance(value, numbers.Complex) and not isinstance(value, numbers.Real):
        if value.imag:
            return value
        value = value.real
    for exact in (int, float):
        try:
            same = exact(value)
        except (TypeError, ValueError, ArithmeticError):
            continue
        if same == value:
            return same
    return value


def _hash_value(value: Any, salt: int) -> int:
    """64-bit hash of one value under a salt; int shapes take fast paths."""
    value = canonical(value)
    if isinstance(value, int):
        return splitmix64((value & _MASK64) ^ splitmix64(salt))
    if isinstance(value, tuple) and all(isinstance(element, int) for element in value):
        return hash_int_tuple(value, salt)
    data = repr(value).encode() + struct.pack("<Q", salt)
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "little")


class HashFunction:
    """One member of a family: maps any hashable value to ``[0, buckets)``."""

    __slots__ = ("buckets", "_salt")

    def __init__(self, buckets: int, salt: int) -> None:
        if buckets <= 0:
            raise ValueError("buckets must be positive")
        self.buckets = buckets
        self._salt = salt

    @property
    def salt(self) -> int:
        """The 64-bit salt (the vectorized kernels reuse it verbatim)."""
        return self._salt

    def __call__(self, value: Any) -> int:
        return _hash_value(value, self._salt) % self.buckets


class HashFamily:
    """A seeded family of independent hash functions.

    >>> fam = HashFamily(seed=7)
    >>> h = fam.function(index=0, buckets=10)
    >>> 0 <= h(12345) < 10
    True

    Functions with different ``index`` behave as independent hashes, which
    is what the HyperCube analysis assumes for distinct variables.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed

    # The salt is splitmix64(seed-hash ^ (index + 1)) over 64-bit words,
    # so index -1 would alias seed-only hashing and index 2^64 - 1 would
    # alias index -1 (and generally i aliases i + 2^64). Independence
    # across indices only holds inside this window, so anything outside
    # it is rejected instead of silently colliding.
    _MAX_INDEX = _MASK64 - 1

    def function(self, index: int, buckets: int) -> HashFunction:
        """The ``index``-th function of the family, with ``buckets`` targets.

        ``index`` must lie in ``[0, 2**64 - 2]``: values outside that
        range would alias another index's salt (see above) and break the
        independence assumption the HyperCube analysis rests on.
        """
        if not 0 <= index <= self._MAX_INDEX:
            raise ValueError(
                f"hash-function index must be in [0, 2**64 - 2], got {index}"
            )
        salt = splitmix64(splitmix64(self.seed) ^ (index + 1))
        return HashFunction(buckets, salt)
