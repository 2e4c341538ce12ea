"""Row formatting: bulk output (``sample``, ``plot-data`` and the SVG scatter)
goes through NumPy kernels that write the bytes of CPython's correctly rounded
'%.17g' and '%.6f', in float64 and int64 arithmetic alone.  '%.17g' writes a
finite x with 1e-4 <= |x| < 1e17 without an exponent, as the 17 digits of
N = round(|x| * 10**(16 - k)), k its exact decade: Dekker's TwoProduct gives the
product exactly as hi + lo, and rint rounds it.  A remainder that rounds to
1/2, zeros, inf, NaN and values out of range go to CPython, a cell at a time.

A cell is the bytes of its text, in order, in a 24-byte slot with NULs
around them and a last byte for a one-byte literal after the field.  The
kernels build the slots as three little-endian uint64 words, one array per
word, with whole-array integer operations (a per-row byte shift on short
uint8 rows would cost NumPy a loop per row): integer division splits N
into a top digit and four groups of four, one gather each from a table of
their ASCII digits, and one gather by exponent, wholeness and sign gives
the layout.  A block of rows is its slots side by side, adjacent fields of
one format in one array, and its text what bytes.translate leaves of it
when it drops the NULs."""

import functools
import itertools
import re
import types

import numpy as np

_ROWS_PER_WRITE = 1024      # rows formatted and written at a time
_KERNEL_MIN_ROWS = 128      # shorter tables are cheaper through CPython's '%'
_SPEC = re.compile(r"(%\.17g|%\.6f|%s)")
_WORD = np.dtype("<u8")
_SPLIT = 2.0 ** 27 + 1      # Veltkamp's split of a double into halves of 26 bits


@functools.cache
def _kernel_tables():
    """The kernels' tables, built on first use.  Fields:
      decade, next_ten -- by biased exponent E (clipped to 2**-14..2**56): the decade
                    of 2**(E - 1023), and the nearest double to the next power
                    of ten, which lies above it from 10**-4 on;
      scale      -- 10**(16 - k) at k + 5 for k = -4..16, and 0 either side;
      groups     -- the 4 ASCII digits of 0..9999 as words, bytes in order,
                    then again with their trailing zeros as NULs;
      high       -- byte masks: in word i, high[i][p] keeps the bytes from p on;
      keep, shift, extra -- the %.17g layout of each exponent e = -4..16,
                    again for whole numbers, and all again for negative
                    ones: keep[i] masks the digit bytes of word i that stay,
                    the others move up by shift bits, and extra[i] holds the
                    sign, the point, "0.000" and a whole number's zeros.
    NumPy loops met for the first time cost resident code pages, so these
    are built, and the kernels run, with few kinds of them: no comparison
    or bitwise invert of uint64s, for one."""
    tens = np.array([float(f"1e{j}") for j in range(-4, 18)])
    up = np.searchsorted(tens, np.ldexp(1.0, np.clip(np.arange(2048) - 1023, -14, 56)), "right")
    q = np.arange(10000, dtype=_WORD)
    groups, zeros = np.zeros((2, len(q)), _WORD), np.ones(len(q), bool)
    for shift in (24, 16, 8, 0):                    # the last digit first
        q, d = np.divmod(q, np.uint64(10))
        zeros &= ~d.astype(bool)                    # and so are the digits after it
        groups[0] |= (d + ord("0")) << shift
        groups[1] |= np.where(zeros, 0, d + ord("0")) << shift
    # slot bytes: 0 the sign, 3..19 the 17 digits, their trailing zeros
    # NULs.  e >= 0: the point at byte e + 4 and the digits from there on a
    # byte up, but a whole number keeps its digits where they are, with the
    # zeros among its e + 1 put back.  e < 0: "0." and -e - 1 zeros at
    # bytes 1.., the digits -e - 1 bytes up
    at, row = np.arange(24), np.arange(84)[:, None]
    e, whole, minus = row % 21 - 4, row // 21 % 2 == 1, row >= 42
    split = np.where(whole, 24, np.where(e >= 0, e + 4, 0))
    shift = np.where(whole, 0, np.where(e >= 0, 8, -8 - 8 * e))[:, 0]
    extra = (np.where(minus & (at == 0), ord("-"), 0)
             + np.where(~whole & (e >= 0) & (at == split) | (e < 0) & (at == 2), ord("."), 0)
             + np.where(whole & (at >= 3) & (at < e + 4)
                        | (e < 0) & ((at == 1) | (at >= 3) & (at < 2 - e)), ord("0"), 0))
    words = lambda table: table.astype(np.uint8).view(_WORD).T.copy()
    return types.SimpleNamespace(
        decade=up - 5, next_ten=tens[up],
        scale=np.array([0.0, *(float(10 ** (16 - k)) for k in range(-4, 17)), 0.0]),
        groups=groups.ravel(), high=words(np.where(at >= np.arange(25)[:, None], 255, 0)),
        keep=words(np.where(at < split, 255, 0)), shift=shift.astype(_WORD), extra=words(extra))


def _round_scaled(a, p):
    """(N, d) for each a * p, a >= 0 and p = 10**j (j <= 22) or 0, products
    below 2**62: N = round(a * p) as int64 unless |d| = 1/2, and d = a * p - N,
    exact from 2**52 on and within 2**-54 below, and < 0 only if a * p < N."""
    # Dekker's TwoProduct: a * p = hi + lo, from halves of 26 bits (Veltkamp)
    hi = a * p
    ah = a * _SPLIT
    ah -= ah - a
    al = a - ah
    ph = p * _SPLIT
    ph -= ph - p
    pl = p - ph
    lo = ah * ph
    lo -= hi
    lo += ah * pl
    lo += al * ph
    lo += al * pl
    # hi - rint(hi) is exact, so only its sum with lo rounds, monotonically
    n = np.rint(hi)
    hi -= n
    hi += lo
    lo = np.rint(hi)
    hi -= lo
    return n.astype(np.int64) + lo.astype(np.int64), hi


def _decade(a, tables):
    """The decade k of each a in [1e-4, 1e17), 10**k <= a < 10**(k + 1): that of
    2**e for a's binary exponent e, or one more where a reaches the next power."""
    e = a.view(np.int64) >> 52
    k = tables.decade.take(e)
    k += a >= tables.next_ten.take(e)
    return k


def _digit_words(n, tables, strip):
    """The 17 digits of int64s 0 <= n < 10**17, zero-padded, as bytes 3..19
    of three words; with strip, n's trailing zeros are NULs."""
    n = n.view(_WORD)
    hi = n // 10 ** 8
    lo = n - hi * 10 ** 8
    top = hi // 10 ** 8
    hi -= top * 10 ** 8
    g3 = hi // 10000
    g2 = hi - g3 * 10000
    g1 = lo // 10000
    g0 = lo - g1 * 10000
    index = [g.view(np.int64) for g in (g1, g2, g3)]
    if strip:                           # a group loses its zeros where every later one is 0
        for g, later in zip(index, (g0, lo, lo | g2)):
            np.add(g, 10000, out=g, where=later.view(np.int64) == 0)
    g1, g2, g3 = (tables.groups[g] for g in index)
    g0 = tables.groups[10000 * strip:][g0.view(np.int64)]
    top += ord("0")
    top <<= 24
    top |= g3 << 32
    g2 |= g1 << 32
    return [top, g2, g0]


def _splice(slot, digits, keep, shift, extra):
    """Write three-word slots: in word i, the bytes of digits[i] under
    keep[i], the others moved up by shift bits (0 <= shift < 64), and the
    bytes of extra[i].  Any of keep, shift and extra may be one for all
    cells."""
    back, carry = 64 - shift, None
    for i in range(3):
        low = digits[i] & keep[i]
        high, digits[i] = digits[i], None
        high ^= low
        low |= high << shift
        if carry is not None:
            low |= carry
        np.bitwise_or(low, extra[i], out=slot[:, i])
        carry = high >> back


def _g17_kernel(v, tables, slot):
    """Write '%.17g' % x into the slot of each x of v that it can; return
    where it did."""
    a = np.abs(v)
    ok = (a >= 1e-4) & (a < 1e17)
    a[~ok] = 2.0
    k = _decade(a, tables)
    n, d = _round_scaled(a, tables.scale.take(k + 5, mode="clip"))
    # 10**16 <= N < 10**17 (a double below 10**(k + 1) is 8 units of N below
    # it or more) unless the decade is off; |d| = 1/2 may be a tie: CPython knows
    ok &= (n >= 10 ** 16) & (n < 10 ** 17) & (np.abs(d) != 0.5)
    # an x the kernel writes is whole if and only if its last 16 - k digits are
    # 0: a double that is not whole lies over 10**(k - 16) / 2 from the next one
    row = k + 4 + (a == np.floor(a)) * 21 + np.signbit(v) * 42
    keep, extra = ([t.take(row, mode="clip") for t in w] for w in (tables.keep, tables.extra))
    _splice(slot, _digit_words(n, tables, True), keep, tables.shift.take(row, mode="clip"), extra)
    return ok


def _f6_kernel(v, tables, slot):
    """Write '%.6f' % x into the slot of each x of v that it can; return
    where it did."""
    a = np.abs(v)
    ok = a < 2.0 ** 33
    a[~ok] = 0.0
    n, d = _round_scaled(a, 1e6)
    ok &= np.abs(d) != 0.5
    # 11 integer digits at bytes 3..13, their leading zeros NULs, the point
    # after them and 6 digits
    lead = 13 - np.searchsorted(10 ** np.arange(7, 17), n, side="right")
    digits = _digit_words(n, tables, False)
    for i in range(2):
        digits[i] &= tables.high[i][lead]
    extra = [np.where(np.signbit(v), np.uint64(ord("-")), np.uint64(0)),
             np.uint64(ord(".") << 48), np.uint64(0)]
    # the layout of '%.17g' for e = 10: the point at byte 14
    _splice(slot, digits, tables.keep[:, 14], np.uint64(8), extra)
    return ok


_KERNELS = {"%.17g": _g17_kernel, "%.6f": _f6_kernel}


def _float_cells(fmt, v):
    """The slots of fmt % x for each float x of v, one row of bytes each,
    with the last byte of each NUL."""
    v = np.asarray(v, dtype=float)
    slot = np.empty((len(v), 3), _WORD)
    done = _KERNELS[fmt](v, _kernel_tables(), slot)
    slot = slot.view(np.uint8)
    rest = np.flatnonzero(~done)
    if rest.size:
        text = np.array([fmt % x for x in v[rest].tolist()], dtype="S")
        width = text.dtype.itemsize
        if width >= slot.shape[1]:
            slot = np.pad(slot, ((0, 0), (0, width + 1 - slot.shape[1])))
        slot[rest] = 0
        slot[rest, :width] = text.view(np.uint8).reshape(rest.size, width)
    return slot


def _line_parts(line):
    """The parts of line % row, in order: a literal as the bytes of
    _ROWS_PER_WRITE rows of it, a field as (its format, the index of its
    column, the literal after it if that is one byte and the field a float,
    which then writes it in the last byte of its slot)."""
    pieces = _SPEC.split(line)          # literal, field, literal, ..., literal
    parts = [pieces[0].encode()]
    for col, (spec, after) in enumerate(zip(pieces[1::2], pieces[2::2])):
        after = after.encode()
        if spec in _KERNELS and len(after) == 1:
            parts.append((spec, col, after))
        else:
            parts += [(spec, col, b"\0"), after]
    return [np.broadcast_to(np.frombuffer(p, np.uint8), (_ROWS_PER_WRITE, len(p)))
            if isinstance(p, bytes) else p for p in parts if p != b""]


def _format_rows(parts, columns, lo, rows):
    """The text of rows lo:lo + rows of a line's parts, with one kernel call
    per float format for all of its fields."""
    slots = {}
    for fmt in _KERNELS:
        fields = [p for p in parts if isinstance(p, tuple) and p[0] == fmt]
        if fields:
            run = np.column_stack([columns[p[1]][lo:lo + rows] for p in fields]).ravel()
            slot = _float_cells(fmt, run).reshape(rows, len(fields), -1)
            slot[:, :, -1] = np.frombuffer(b"".join(p[2] for p in fields), np.uint8)
            slots[fmt] = [slot, 0]
    pieces = []
    for fmt, run in itertools.groupby(parts, lambda p: p[0] if isinstance(p, tuple) else None):
        run = list(run)
        if fmt in slots:                # fields side by side: slots side by side
            slot, i = slots[fmt]
            slots[fmt][1] += len(run)
            pieces.append(slot[:, i:i + len(run)].reshape(rows, -1))
        else:
            pieces += [p[:rows] if fmt is None else
                       columns[p[1]][lo:lo + rows].astype("S").view(np.uint8).reshape(rows, -1)
                       for p in run]
    text = pieces[0] if len(pieces) == 1 else np.concatenate(pieces, axis=1)
    del pieces, slots
    return text.tobytes().translate(None, b"\0").decode("ascii")


def _write_lines(out, line, columns):
    """Write line % row for each row of equal-length columns: the bytes of
    CPython's '%', where line has only '%.17g', '%.6f' and '%s' fields.  Each
    block of _ROWS_PER_WRITE rows goes out with one write, so memory stays
    flat however long the columns are; tables shorter than _KERNEL_MIN_ROWS
    go through '%' row by row, which is cheaper for them."""
    columns = [np.asarray(c) for c in columns]
    total = len(columns[0])
    if total < _KERNEL_MIN_ROWS:
        cells = (c.astype(str) if c.dtype.kind == "S" else c for c in columns)
        out.write("".join(line % row for row in zip(*(c.tolist() for c in cells))))
        return
    parts = _line_parts(line)
    for lo in range(0, total, _ROWS_PER_WRITE):
        out.write(_format_rows(parts, columns, lo, min(_ROWS_PER_WRITE, total - lo)))


def _write_rows(out, columns):
    """Write equal-length columns as CSV rows with _write_lines: float
    columns as '%.17g', ints and strings as '%s' (bytes as the text they
    hold), _ROWS_PER_WRITE rows per write."""
    columns = [np.asarray(c) for c in columns]
    _write_lines(out, ",".join("%.17g" if c.dtype.kind == "f" else "%s" for c in columns) + "\n",
                 columns)
