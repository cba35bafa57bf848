"""The bit-parallel mask kernel behind every set function over the 2^m
feature subsets.

A family of masks 0..n-1 (n = 2^m) is held as a table of one
little-endian field per mask, read as one int, so that a shift moves every
mask at once.  The kernel builds the selectors those shifts read
(lacking_bit, size_classes, bit_slices, bit_counts), closes flag tables
upward (up_closure), and folds a table of one field per point into the
agreement facts of every subset (superset_fold in mask order, axis_fold in
rank order).  It imports only the standard library: it knows masks and
fields, not classifiers or problems.
"""

from __future__ import annotations

import functools
import sys
from array import array
from typing import Iterable, Iterator


@functools.cache
def bit_slices(n: int) -> tuple[tuple[tuple[slice, slice], ...], ...]:
    """For each bit of the masks 0..n-1 (n a power of two), lowest first,
    the slice pairs (masks with the bit, the same masks without it).

    The masks with bit b come in runs of b every 2b masks, so the bit's
    2^(m-1) pairs fit in b strided slices (one per offset in a run) or in
    n / 2b blocked slices (one per run), whichever are fewer.  Cached per n:
    the tiny tables of small problems would otherwise spend more time
    building slices than using them.
    """
    per_bit = []
    bit = 1
    while bit < n:
        step = bit << 1
        if bit < n // step:  # fewer offsets than blocks: strided slices
            pairs = [(slice(k + bit, n, step), slice(k, n, step)) for k in range(bit)]
        else:
            pairs = [(slice(j + bit, j + step), slice(j, j + bit)) for j in range(0, n, step)]
        per_bit.append(tuple(pairs))
        bit = step
    return tuple(per_bit)


# Flag tables: a family of masks 0..n-1 (n a power of two) held as one byte
# per mask, 1 for a member and 0 otherwise, read as one little-endian int so
# that mask S sits at bit 8*S.  Shifting such an int left by 8 << b moves
# each mask S to S + 2^b, which is S with bit b added when S lacks it.
# The folds (superset_fold, axis_fold) hold one wider field per mask the
# same way.

# swaps the flags 0 and 1
FLIP_FLAGS = bytes.maketrans(b"\x00\x01", b"\x01\x00")

# selectors of more than 64 KiB are built one at a time, not cached:
# building one costs less than the passes that read it, and a cache of them
# would keep 20 MB of flag selectors at m = 20, and 18 MB of 4-byte packed
# ones at m = 18 (80 MB at m = 20)
CACHED_SELECTOR_BYTES = 1 << 16


def _selectors(runs, n: int, width: int) -> Iterable[int]:
    """The tables runs(n, width) yields over n width-byte fields, cached
    per (runs, n, width) up to CACHED_SELECTOR_BYTES each and built one at
    a time above it, so a caller that reads them twice keeps its own
    tuple."""
    if n * width > CACHED_SELECTOR_BYTES:
        return runs(n, width)
    return _selector_cache(runs, n, width)


@functools.cache
def _selector_cache(runs, n: int, width: int) -> tuple[int, ...]:
    return tuple(runs(n, width))


def _runs(n: int, one: bytes, zero: bytes) -> Iterator[int]:
    """For each bit b of the masks 0..n-1, lowest first, the table of the
    masks that lack it, the field one at each such mask and zero at the
    others: runs of 2^b of each, built by repeating bytes."""
    run = 1
    while run < n:
        yield int.from_bytes((one * run + zero * run) * (n // (2 * run)), "little")
        run <<= 1


def _lacking_fields(n: int, width: int) -> Iterator[int]:
    """The tables of _runs with every byte of the masks that lack the bit
    0xff, so that an & keeps their fields whole."""
    return _runs(n, b"\xff" * width, bytes(width))


def lacking_bit(n: int) -> Iterable[int]:
    """The tables of _lacking_fields over one-byte fields (see _selectors):
    anded with a flag table, each keeps the flags of the masks without its
    bit."""
    return _selectors(_lacking_fields, n, 1)

# adds one to every byte
_INCREMENT = bytes(range(1, 256)) + b"\x00"


def bit_counts(n: int) -> bytes:
    """The bit count of every mask 0..n-1, one byte each: it doubles from
    mask 0, as the masks with the next bit are the ones below it, plus one."""
    counts = b"\x00"
    while len(counts) < n:
        counts += counts.translate(_INCREMENT)
    return counts


def _size_runs(n: int, width: int) -> Iterator[int]:
    """For each size k = 1..m of the masks 0..n-1, the flag table of the
    masks with k bits (width is 1, a flag per byte): one bytes.translate of
    bit_counts(n) per size picks out its masks."""
    counts = bit_counts(n)
    for k in range(1, n.bit_length()):
        yield int.from_bytes(counts.translate(bytes(k) + b"\x01" + bytes(255 - k)),
                             "little")


def size_classes(n: int) -> Iterable[int]:
    """The tables of _size_runs (see _selectors)."""
    return _selectors(_size_runs, n, 1)


def up_closure(flags: int, lacking: Iterable[int]) -> int:
    """The flag table of every mask that contains some member of flags
    (each member's supersets), from one shift per bit; lacking is
    lacking_bit(n) of the table's n masks."""
    for b, without in enumerate(lacking):
        flags |= (flags & without) << (8 << b)
    return flags


def _swap_runs(n: int, width: int) -> Iterator[int]:
    """For each j < m // 2 of the masks 0..n-1 (n = 2^m), the table of the
    masks with bit j and without bit m - 1 - j, every byte of each such
    width-byte field 0xff: the fields reverse_bits moves."""
    m = n.bit_length() - 1
    one, zero = b"\xff" * width, bytes(width)
    for j in range(m // 2):
        k = m - 1 - j
        run = (zero * (1 << j) + one * (1 << j)) * (1 << (k - j - 1)) + zero * (1 << k)
        yield int.from_bytes(run * (n >> (k + 1)), "little")


def reverse_bits(table: int, n: int, width: int) -> int:
    """The table of n = 2^m width-byte fields with the m bits of every
    field's index reversed: m // 2 delta swaps (Knuth, TAOCP 4A, 7.1.3),
    each trading bits j and m - 1 - j, on the selectors of _swap_runs (see
    _selectors)."""
    m = n.bit_length() - 1
    for j, select in enumerate(_selectors(_swap_runs, n, width)):
        # between each mask with bit j, not k = m - 1 - j, and the mask with k, not j
        shift = 8 * width * ((1 << (m - 1 - j)) - (1 << j))
        moved = ((table >> shift) ^ table) & select
        table ^= moved ^ (moved << shift)
    return table


# the unsigned array typecode of each item size, fields of 1 to 8 bytes
_FIELD_CODE = {array(code).itemsize: code for code in "BHILQ"}


def le_fields(values: Iterable[int], width: int) -> bytes:
    """Ints as little-endian width-byte fields, width a key of _FIELD_CODE.
    Not for a bytes object: array() copies its raw bytes."""
    items = array(_FIELD_CODE[width], values)
    if sys.byteorder == "big":
        items.byteswap()
    return items.tobytes()


def field_ints(data: bytes, width: int) -> array:
    """The little-endian width-byte fields of data as an array of ints."""
    items = array(_FIELD_CODE[width], data)
    if sys.byteorder == "big":
        items.byteswap()
    return items


# The two folds below compute every agreement fact: from a table of one
# little-endian width-byte field per point, each gives, in mask order, the
# fields of the points agreeing with the instance on each subset S combined
# (combine is add for sums, or_ for flags).  superset_fold reads the table
# in mask order, axis_fold in rank order (see model._fold_order).  The fields
# must hold every combined value.

def superset_fold(data: bytes, width: int, combine) -> bytes:
    """The fold of a table in mask order, which holds one point per mask:
    Yates' zeta transform on the table read as one int.  Per bit b,
    shifting it right by 8 * width << b moves each mask's field to the mask
    without b, so one shift, mask and combine does the bit's 2^(m-1)
    steps.  Above CACHED_SELECTOR_BYTES the top bits fold first by halves,
    with no selector (a block's upper half holds its masks with the top
    bit), and the halves then share selectors built for this call alone."""
    blocks, size = [int.from_bytes(data, "little")], len(data)
    while size > CACHED_SELECTOR_BYTES:
        size //= 2
        low, halves = (1 << 8 * size) - 1, []
        for block in blocks:
            upper = block >> 8 * size
            halves += combine(block & low, upper), upper
        blocks = halves
    selectors = (tuple(_lacking_fields(size // width, width)) if len(blocks) > 1
                 else _selectors(_lacking_fields, size // width, width))
    for k, table in enumerate(blocks):
        for b, lacking in enumerate(selectors):
            table = combine(table, (table >> (8 * width << b)) & lacking)
        blocks[k] = table.to_bytes(size, "little")
    return b"".join(blocks)


def axis_fold(data: bytes, width: int, combine, axes) -> bytes:
    """The fold of a table in rank order; axes holds each feature's
    (domain size, index of the instance's value), feature 1 first.

    Per feature, innermost (stride 1) first, with d its domain size and k
    the instance's index: the d parts seq[j::d] hold the table at each
    value j, and the table becomes the parts combined (any value) followed
    by part k (the instance's value).  The feature's agreement bit is thus
    the top bit of the index, so after m steps feature 1 sits in the top
    bit, and reverse_bits moves feature i to bit i - 1.  A part is one
    array slice and one int.from_bytes, with no loop per point.
    """
    code = _FIELD_CODE[width]
    for size, k in reversed(axes):
        # bytes slice faster than an array of one-byte items
        seq = bytes(data) if width == 1 else array(code, data)
        parts = [int.from_bytes(seq[j::size], "little") for j in range(size)]
        part = len(seq) // size * width  # bytes
        data = (functools.reduce(combine, parts) | parts[k] << 8 * part).to_bytes(
            2 * part, "little")
    n = len(data) // width
    return reverse_bits(int.from_bytes(data, "little"), n, width).to_bytes(
        len(data), "little")


class cached_value:
    """A method read as an attribute and computed once per instance: the
    result goes into the instance's __dict__, where later reads find it
    before this (non-data) descriptor.  functools.cached_property does the
    same, but on Python 3.11 it takes a lock on every first read."""

    def __init__(self, method):
        self.method = method
        self.name = method.__name__
        self.__doc__ = method.__doc__

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.method(instance)
        return value
