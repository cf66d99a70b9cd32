"""Exact ``.17g`` text of a float64 array, from array work alone.

:func:`dumps_array` returns the bytes of the per-element writer in
:mod:`twotime.cli` -- ``format(x, ".17g")`` for every element, ``", "``
between elements and one ``[`` ... ``]`` pair per sub-array -- or
``None`` when it cannot vouch for them; the caller then falls back to
the per-element writer.

**Domain.**  Every element must be a zero or have ``1e-200 <= |x| < 10``;
otherwise the whole array is declined.  So a nonzero element has a
decimal exponent ``k`` in ``[-201, 0]`` (``10^k <= |x| < 10^(k+1)``; the
double ``1e-200`` lies just below ``10^-200``), and ``.17g`` prints it
as ``d.ddd`` (``k = 0``), ``0.0ddd`` (``-4 <= k < 0``) or ``d.ddde-XX``
(``k < -4``), with trailing zeros dropped.

**Digits.**  The 17 digits are ``D = round(y)`` with ``y = |x| 10^s``,
``s = 16 - k``, and ``10^16 <= y < 10^17``.  ``10^s`` is stored as
``P_hi + P_lo``, both rounded from exact integers, so
``|10^s - P_hi - P_lo| <= 2^-106 10^s``.  Dekker's product gives
``p + err = |x| P_hi`` exactly; no partial product underflows, because
``|x| >= 1e-200`` and ``10^s <= 10^217``.  With ``t = fl(err +
fl(|x| P_lo))``, the three roundings (the ``10^s`` split, the
``P_lo`` product and the sum, where ``|t| < 24``) keep
``|y - (p + t)|`` below ``2^-46``.  And ``p`` is an integer whenever
``y >= 2^53``, so for every row whose ``k`` is right (a row with a
smaller ``y`` only needs ``F < 10^16``, which truncating ``p`` keeps).
So ``F = p + floor(t)`` and ``f = t - floor(t)`` are ``floor(y)`` and
the fraction of ``y`` to that accuracy; next to an integer they may
trade a unit, which leaves ``D = F + (f > 1/2)`` unchanged.  That ``D``
equals dtoa's round-half-even result whenever ``|f - 1/2| >= 2^-30``.
An array with an element closer to a tie is declined: that covers
exact 18-digit ties such as ``2^-25``, and leaves a margin of ``2^16``
over the error bound.

**Decade fix-up.**  ``k`` starts as ``floor(log10|x|)``.  numpy's
``log10`` is accurate to a few units in the last place, so ``k`` is off
by at most one, and only when ``|x|`` is that close to a power of ten.
The test on ``F`` finds those rows: ``F < 10^16`` means ``k`` is one
too large, ``F >= 10^17`` one too small.  Only those rows are
recomputed, once, with ``k`` moved by one.  The test itself can
misjudge the decade only where ``y`` is within ``2^-46`` of ``10^16`` or
``10^17``, and there both decades print the same text, given the carry
rule: a ``D`` of ``10^17`` is printed as ``10^16`` at exponent
``k + 1``, as dtoa carries.  (For ``y`` just under ``10^16``, for
example, the true digits ``round(10 y)`` are ``10^17``, which carries
to ``D = 10^16`` at ``k``: what the misjudged row prints.)  So one step
settles every row, and every ``D`` lies in ``[10^16, 10^17]``.

**Text.**  Each element becomes a byte row of whole 8-byte words, every
byte written from a table.  First comes a prefix, right-aligned: the
``]``, ``", "`` and ``[`` between the previous element and this one,
the sign, ``0.`` and ``e - 1`` zeros when ``k = -e`` with
``1 <= e <= 4``, the leading digit and, outside that layout when more
digits follow, ``.``; it is looked up by (sub-arrays starting at the
element, prefix class, sign, leading digit).  Then come the 16 further
digits, four at a time from a 4-digit table, and ``e-XX`` or
``e-XXX``, right-aligned, looked up by ``e``.  What is printed is one
run from the prefix through the last significant digit, plus the
exponent, so a keep mask looked up by (prefix length, significant
digits, exponent class) selects it.  A boolean selection per block of
rows yields the text; one run per row keeps it cheap.  Elements go
through in passes of ``_PASS_SIZE``, so the working memory beyond the
output text stays bounded.  The number tables are built at import from
integer arithmetic, the prefix and keep tables once per ``ndim``.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["dumps_array"]

#: Exponent range of the stored powers ``10^s``: ``s = 16 - k`` for every
#: ``k`` in ``[-201, 1]`` that a ``log10`` floor or the fix-up step can give.
_S_MIN, _S_MAX = 15, 217
_TIE_WINDOW = 2.0**-30


def _split(a: np.ndarray) -> tuple:
    """Dekker's split of ``a`` into two halves of at most 26 significant bits."""
    c = 134217729.0 * a  # 2^27 + 1
    a_hi = c - (c - a)
    return a_hi, a - a_hi


def _powers_of_ten() -> np.ndarray:
    """Column ``s - _S_MIN``: ``P_hi``, its two Dekker halves and ``P_lo`` for ``10^s``."""
    hi, lo = [], []
    exact = 10**_S_MIN
    for _ in range(_S_MIN, _S_MAX + 1):
        h = float(exact)
        hi.append(h)
        lo.append(float(exact - int(h)))
        exact *= 10
    hi = np.array(hi)
    return np.stack((hi, *_split(hi), np.array(lo)))


_POWERS = _powers_of_ten()

#: ``_DIGITS4[n]``: the four ASCII digits of ``0 <= n < 10^4``, as one uint32.
_DIGITS4 = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1) + ord("0")
_DIGITS4 = np.ascontiguousarray(_DIGITS4.T).view(np.uint32).ravel()
#: ``_ZEROS4[n]``: trailing zeros of ``n`` written with four digits (4 for 0).
_ZEROS4 = np.zeros(10_000, dtype=np.int64)
for _step in (10, 100, 1000, 10_000):
    _ZEROS4[::_step] += 1

#: Prefix classes: 0 "L.", 1 "L" (one significant digit), and 1 + e for
#: "0." followed by e - 1 zeros and "L" (``k = -e``, 1 <= e <= 4).
_CLASSES = 6
_E_MAX = 201  # e = -k for every final exponent k in [-201, 0]
_E = np.arange(_E_MAX + 1)
_FIXED_CLASS = np.where((1 <= _E) & (_E <= 4), 1 + _E, 0)
#: ``_EXPONENT[e]``: "e-XX" right-aligned in one 8-byte word (blank for e <= 4).
_EXPONENT = np.frombuffer(b"".join(
    (f"e-{e:02d}" if e > 4 else "").rjust(8).encode() for e in range(_E_MAX + 1)), np.uint64)
#: Exponent classes: 0 none, 1 "e-XX", 2 "e-XXX".
_EXPONENT_CLASS = np.where(_E > 4, np.where(_E > 99, 2, 1), 0)


def _keep_table(pre: int) -> np.ndarray:
    """Row ``(18 plen + n) 3 + exponent class``: the bytes of a row printed.

    A row is ``pre`` prefix bytes, 16 digit bytes and an 8-byte exponent
    word.  Printed are the last ``plen`` prefix bytes, the first
    ``n - 1`` digits and the exponent's last 0, 4 or 5 bytes (by class).
    Each row is viewed as 8-byte words, so one row is a few words to
    gather.
    """
    plen, n, elen, col = np.ix_(range(pre + 1), range(18), (0, 4, 5), range(pre + 24))
    keep = ((pre - plen <= col) & (col < pre + n - 1)) | (col >= pre + 24 - elen)
    return keep.reshape(-1, pre + 24).view(np.uint64)


@functools.cache
def _rows(ndim: int) -> tuple:
    """Prefix words, prefix lengths and keep table of the rows of ``ndim``-axis arrays.

    Prefix row ``((m _CLASSES + class) 2 + negative) 10 + lead`` holds
    the text printed before the element's second digit when ``m``
    sub-arrays start at it: ``m`` "]", ", " and ``m`` "[" (nothing for
    the first element, ``m = ndim``), then the sign and the class's
    form of the leading digit.  ``words[w]`` is its ``w``-th 8-byte
    word for every row, so each word is one ``take``.
    """
    pre = -(-(2 * ndim + 7) // 8) * 8  # the longest prefix: "]" * (ndim - 1) ", " ... "-0.000L"
    texts = []
    for m in range(ndim + 1):
        joint = "]" * m + ", " + "[" * m if m < ndim else ""
        for cls in range(_CLASSES):
            for sign in ("", "-"):
                for lead in "0123456789":
                    if cls == 0:
                        form = lead + "."
                    elif cls == 1:
                        form = lead
                    else:
                        form = "0." + "0" * (cls - 2) + lead
                    texts.append(joint + sign + form)
    words = np.frombuffer("".join(t.rjust(pre) for t in texts).encode(), np.uint64)
    lengths = np.array([len(t) for t in texts])
    return words.reshape(len(texts), -1).T.copy(), lengths, _keep_table(pre)


#: Elements per pass: their int64 temporaries stay at 64 KiB, and the
#: text rows are built ``_TEXT_BLOCK_BYTES`` at a time, so a large array
#: holds one pass's temporaries at once (tracemalloc peak about 1 MiB for
#: 5,184 elements).  It does not keep their pages between calls: glibc
#: trims its freed heap top, so each call faults the pages in again.
_PASS_SIZE = 1 << 13
_TEXT_BLOCK_BYTES = 1 << 15


def _scaled(ax: np.ndarray, s: np.ndarray) -> tuple:
    """``floor(ax 10^s)`` as int64 and its fraction, to within ``2^-46`` (see above)."""
    i = s - _S_MIN
    p_hi, b_hi, b_lo, p_lo = (_POWERS[j].take(i) for j in range(4))
    p = ax * p_hi
    a_hi, a_lo = _split(ax)
    err = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    t = err + ax * p_lo
    whole = np.floor(t)
    return p.astype(np.int64) + whole.astype(np.int64), t - whole


def dumps_array(arr: np.ndarray) -> str | None:
    """The nested-JSON ``.17g`` text of a non-empty float64 array, or ``None``.

    ``None`` means an element is non-finite, outside the domain in the
    module docstring, or within ``2^-30`` of a rounding tie.
    """
    x = arr.ravel()
    spans = np.cumprod(arr.shape[::-1]).tolist()  # elements per sub-array, innermost first
    tables = _rows(arr.ndim)
    pieces = ["[" * arr.ndim]
    for lo in range(0, x.size, _PASS_SIZE):
        text = _pass(x[lo:lo + _PASS_SIZE], lo, spans, tables)
        if text is None:
            return None
        pieces.append(text)
    pieces.append("]" * arr.ndim)
    return "".join(pieces)


def _pass(x: np.ndarray, first: int, spans: list, tables: tuple) -> str | None:
    """The text of elements ``first, first + 1, ...`` (``x``), or ``None``."""
    ax = np.abs(x)
    zero = ax == 0.0
    if not np.all(zero | ((ax >= 1e-200) & (ax < 10.0))):
        return None
    k = np.floor(np.log10(np.where(zero, 1.0, ax))).astype(np.int64)
    floor, frac = _scaled(ax, 16 - k)
    wrong = ~zero & ((floor < 10**16) | (floor >= 10**17))
    if wrong.any():
        rows = np.flatnonzero(wrong)
        k[rows] += np.where(floor[rows] >= 10**17, 1, -1)
        floor[rows], frac[rows] = _scaled(ax[rows], 16 - k[rows])
    if np.any(np.abs(frac - 0.5) < _TIE_WINDOW):
        return None
    digits = np.where(zero, 0, floor + (frac > 0.5))
    carry = digits == 10**17
    digits[carry] = 10**16
    k[carry] += 1

    high = digits // 10**8
    low = digits - high * 10**8
    lead = high // 10**8
    high -= lead * 10**8
    quads = high // 10**4, low // 10**4
    groups = quads[0], high - quads[0] * 10**4, quads[1], low - quads[1] * 10**4
    zeros = _ZEROS4.take(groups[3])
    for j in (2, 1, 0):  # trailing zeros run on into group j only past all-zero groups
        zeros += np.where(zeros == 4 * (3 - j), _ZEROS4.take(groups[j]), 0)
    n_digits = 17 - zeros
    e = -k
    opened = np.zeros(x.size, dtype=np.int64)  # sub-arrays that start at each element
    for span in spans:
        opened[-first % span::span] += 1
    cls = np.maximum(_FIXED_CLASS.take(e), n_digits == 1)
    prefix = ((opened * _CLASSES + cls) * 2 + np.signbit(x)) * 10 + lead

    words, lengths, table = tables
    pre = 8 * len(words)
    keep_key = (lengths.take(prefix) * 18 + n_digits) * 3 + _EXPONENT_CLASS.take(e)
    block = _TEXT_BLOCK_BYTES // (pre + 24)
    pieces = []
    for lo in range(0, x.size, block):
        rows = slice(lo, lo + block)
        buf = np.empty((min(block, x.size - lo), pre + 24), dtype=np.uint8)
        buf64, buf32 = buf.view(np.uint64), buf.view(np.uint32)
        for w, word in enumerate(words):
            buf64[:, w] = word.take(prefix[rows])
        for j in range(4):
            buf32[:, pre // 4 + j] = _DIGITS4.take(groups[j][rows])
        buf64[:, -1] = _EXPONENT.take(e[rows])
        keep = table.take(keep_key[rows], axis=0).view(bool)
        pieces.append(str(buf.ravel()[keep.ravel()].data, "ascii"))
    return "".join(pieces)
