"""Float64 table cells as text, byte for byte as ``%`` writes them.

``block_text`` gives the lines of a block of a float64 table, each cell
``%.17g`` (a timed table's first column ``%r``). numpy builds every cell that
``%.17g`` writes in fixed notation, 1e-4 <= |x| < 1e17, with its mantissa
rounded exactly; one ``%`` per block formats the rest. The writers of
``glovekit.formats`` call it one block of rows at a time.
"""

from __future__ import annotations

from functools import cache

import numpy as np


# A block's cells are built in a (cells, _CELL) uint8 matrix, one row per cell,
# and one boolean select keeps each cell's bytes, in order. A row's slots:
#   0       the separator before the cell, "\n" before a table row's first cell
#   1       "-"
#   2       "0", the integer part of a value below 1
#   7..23   the 17 significant digits d0..d16: d0, then two 8-digit words
#   27      "."
#   28..30  "0", the zeros that start a fraction below 0.1
#   31..47  d0..d16 again, so that for every exponent e the fraction's digits
#           are contiguous slots: d(e+1).. from 32+e on
# A cell that ``%`` formats is right-aligned in slots 24..47 instead.
_CELL = 48
_WIDE = 24
_EXPONENTS = range(-4, 17)  # the exponents %.17g writes in fixed notation


@cache  # built on first use, so that importing the package does not pay for it
def _cell_masks() -> np.ndarray:
    """The slots to keep of a ``%.17g`` cell, row ``(neg * 21 + e + 4) * 17 + last``
    for its sign, exponent and last nonzero digit; then, from row ``_SLOW`` on,
    those of a ``%``-formatted cell, by its text's length."""
    j = np.arange(_CELL)
    neg = np.arange(2)[:, None, None, None]
    e = np.array(_EXPONENTS)[None, :, None, None]
    last = np.arange(17)[None, None, :, None]
    fixed = ((j == 0) | ((j == 1) & (neg == 1))
             | np.where(e >= 0, (j >= 7) & (j <= 7 + e), j == 2)
             | ((j == 27) & (last > e))
             | ((j > 31 + e) & (j <= 31 + last)))
    length = np.arange(_WIDE + 1)[:, None]
    return np.concatenate([fixed.reshape(-1, _CELL), (j == 0) | (j >= _CELL - length)])


_SLOW = 2 * len(_EXPONENTS) * 17
_POW10 = np.array([float(10**s) for s in range(21)])  # exact
# Veltkamp's split of each power into two halves of at most 26 bits
_POW10_HI = _POW10 * 134217729.0 - (_POW10 * 134217729.0 - _POW10)
_POW10_LO = _POW10 - _POW10_HI


def _mantissas(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For positive finite ``a``: the guess ``e = floor(log10 a)``, clamped to
    the fixed exponents, and ``a * 10**(16 - e)`` rounded to an integer as
    ``%.17g`` rounds it. The product is by an exact double, and Dekker's
    two-product gives it exactly as ``p + err``: numpy fuses no multiply-add.
    ``p`` is an even integer once it is at least 2**53, so ``p + rint(err)``,
    ``rint`` rounding half to even, is the product rounded half to even. So
    a result in [10**16, 10**17) is the 17-digit mantissa and ``e`` the
    exponent: a guess one too high cannot round up to 10**16, since no double
    lies within 5e-17 below a power of ten from 1e-4 to 1e16, and one too low
    gives at least 10**17. No byte depends on ``log10``'s last bits."""
    e = np.floor(np.log10(a))
    np.clip(e, _EXPONENTS[0], _EXPONENTS[-1], out=e)
    e = e.astype(np.intp)
    s = 16 - e
    p = a * np.take(_POW10, s)
    split = a * 134217729.0
    a_hi = split - (split - a)
    a_lo = a - a_hi
    b_hi, b_lo = np.take(_POW10_HI, s), np.take(_POW10_LO, s)
    err = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return e, p.astype(np.int64) + np.rint(err).astype(np.int64)


def _digits(n: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For 17-digit ``n``: d0 and d1..d16 as ASCII, the latter as two int64
    of 8 digits each, most significant first in little-endian memory, and the
    index of the last digit that is not 0.

    Each 8-digit word is split into 4-digit halves in 32-bit lanes, 2-digit
    quarters in 16-bit lanes, then digits in bytes. Each split divides by a
    multiply and a shift: ``x * 109951163 >> 40`` is ``x // 10**4`` below
    10**8, ``x * 5243 >> 19`` is ``x // 100`` below 43 699 and ``x * 103 >> 10``
    is ``x // 10`` below 179, so no lane spills into the next."""
    d0 = n // 10**16
    n = n - d0 * 10**16
    high = n // 10**8
    words = np.stack([high, n - high * 10**8])
    for mul, shift, keep, base, width in ((109951163, 40, 0x3FFF, 10**4, 32),
                                          (5243, 19, 0x0000007F0000007F, 100, 16),
                                          (103, 10, 0x000F000F000F000F, 10, 8)):
        high = (words * mul) >> shift
        high &= keep
        words -= high * base
        words <<= width
        words |= high
    # bit 4 of each byte set where its digit is not 0; the float's exponent
    # then finds the last one across d0 (the 2**-4), d1..d8 and d9..d16
    flags = ((words + 0x0F0F0F0F0F0F0F0F) & 0x1010101010101010).astype(float)
    last = (np.frexp(flags[1] * 2.0**64 + flags[0] + 2.0**-4)[1] + 3) >> 3
    words |= 0x3030303030303030  # "0" in each byte
    return d0 + ord("0"), words, last


def row_template(ncols: int, sep: str) -> np.ndarray:
    """The (ncols, 48) rows each block's cells start from, for a table
    ``ncols`` cells wide whose cells ``sep`` separates."""
    rows = np.tile(np.frombuffer(f"{sep}-0{'0' * 24}.{'0' * 20}".encode(), np.uint8), (ncols, 1))
    rows[0, 0] = ord("\n")
    return rows


def block_text(block: np.ndarray, template: np.ndarray, timed: bool) -> str:
    """The lines of a C-ordered float64 block, each cell ``%.17g`` (a ``timed``
    block's first column ``%r``), byte for byte as ``%`` writes them.
    numpy builds every cell with 1e-4 <= |x| < 1e17, which ``%.17g`` writes in
    fixed notation, unless ``_mantissas`` finds its exponent guess missed. One
    ``%`` formats the other cells, right-aligned in 24 slots: the time column
    (``%r``), zeros, nan, inf, |x| < 1e-4, |x| >= 1e17 and missed guesses."""
    rows, ncols = block.shape
    x = block.ravel()
    a = np.abs(x)
    fast = (a >= 1e-4) & (a < 1e17)
    if timed:
        fast[::ncols] = False
    np.copyto(a, 1.0, where=~fast)  # the other cells' digits are computed, never kept
    e, n = _mantissas(a)
    fast &= (n >= 10**16) & (n < 10**17)
    d0, words, last = _digits(n)

    cells = np.empty((len(x), _CELL), np.uint8)
    cells.reshape(rows, ncols, _CELL)[:] = template
    # words 1-2 and 4-5 of each row, the two copies of d1..d16
    cells.view("<i8").reshape(-1, 2, 3)[:, :, 1:] = words.T[:, None, :]
    cells[:, 7::24] = d0[:, None]
    key = (np.signbit(x) * len(_EXPONENTS) + e - _EXPONENTS[0]) * 17 + last
    del a, e, n, d0, words, last  # not held while the text is selected

    slow = ~fast
    if timed:
        slow[::ncols] = False
    slow = np.flatnonzero(slow)
    firsts = rows if timed else 0
    text = ("%24r" * firsts + "%24.17g" * len(slow)) % tuple(
        (x[::ncols].tolist() if timed else []) + x[slow].tolist())
    chars = np.frombuffer(text.encode(), np.uint8).reshape(-1, _WIDE)
    lengths = _SLOW + _WIDE - (chars != ord(" ")).argmax(axis=1)  # no leading space at 0
    if timed:
        cells[::ncols, _CELL - _WIDE :] = chars[:rows]
        key[::ncols] = lengths[:rows]
    cells[slow, _CELL - _WIDE :] = chars[firsts:]
    key[slow] = lengths[firsts:]
    # drop the first cell's separator, the line end before the block
    return cells[np.take(_cell_masks(), key, axis=0)][1:].tobytes().decode() + "\n"
