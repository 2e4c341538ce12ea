"""Row formatting: bulk output (``sample``, ``plot-data`` and the SVG scatter)
goes through NumPy kernels that write the bytes of CPython's correctly rounded
'%.17g' and '%.6f'.  For a finite x with 1e-4 <= |x| < 1e17, which '%.17g'
writes without an exponent, and k = floor(log10 |x|), the 17 digits of '%.17g'
are N = round(|x| * 10**(16 - k)).  In a long double with a 64-bit mantissa,
10**j is exact for j <= 27 and every half-integer below 2**57 is
representable, so the product y rounds once and monotonically: unless it
lands on a half-integer, it lies strictly between the same two half-integers
as the exact product, and (y + 2**63) - 2**63 is the correctly rounded N
(Steele & White 1990; Adams, Ryu, 2018).  One subtraction, d = y - N, ends
the long-double work: y lies in [1e15, 1e18), so its ulp is at least 2**-14,
and d, at most 1/2 in size, is exact as a float64; the tie and range tests
run on d and on N as an int64.  Products that land on a half-integer (about
0.4% of cells), zeros, inf, NaN and values out of range (at most about 2e-4
of the cells the commands write) go to CPython one at a time, as does every
cell on a host whose long double fails the check in _kernel_tables.

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


@functools.cache
def _kernel_tables():
    """The kernels' tables, built on first use; None where long double cannot
    hold 1 + 2**-63 or round to an integer by adding 2**63, so that every cell
    goes through CPython.  Fields:
      pow10, big -- 10**j for j = 0..27 and 2**63, as long doubles;
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
    ld = np.longdouble
    big = ld(2) ** 63
    if ld(1) + ld(2) ** -63 == ld(1) or (ld(2.5) + big) - big != ld(2):
        return None
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
        pow10=np.cumprod(np.concatenate(([ld(1)], np.full(27, ld(10))))), big=big,
        groups=groups.ravel(), high=words(np.where(at >= np.arange(25)[:, None], 255, 0)),
        keep=words(np.where(at < split, 255, 0)), shift=shift.astype(_WORD), extra=words(extra))


def _round_scaled(a, j, tables):
    """(N, d) for y = a * 10**j rounded once to a long double, 0 <= j <= 27
    (j is clipped to that): N = y rounded to an integer, as int64, and
    d = y - N as a float64.  N = round(a * 10**j) exactly unless y is a
    half-integer, |d| = 1/2.  d is exact for y >= 1e15; below, the cast may
    round it, which can only make more cells look like ties."""
    y = a.astype(np.longdouble)
    y *= tables.pow10.take(j, mode="clip")
    n = y + tables.big
    n -= tables.big
    y -= n
    return n.astype(np.int64), y.astype(np.float64)


def _above(n, d):
    """A float64 with the sign of y - 10**16, for y = n + d from _round_scaled:
    n - 10**16 is 0 or at least 1 in size, and |d| <= 1/2."""
    return (n - 10 ** 16).astype(np.float64) + d


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


def _decade(a):
    """floor(log10 a) as integers, which may miss by one near a power of ten."""
    return np.floor(np.log10(a)).astype(np.intp)


def _g17_kernel(v, tables, slot):
    """Write '%.17g' % x into the slot of each x of v that it can; return
    where it did."""
    a = np.abs(v)
    ok = (a >= 1e-4) & (a < 1e17)
    a[~ok] = 2.0                                    # not a power of ten, which is redone
    k = np.minimum(_decade(a), 16)                  # as |x| < 1e17: so 16 - k >= 0
    n, d = _round_scaled(a, 16 - k, tables)
    # the decade may miss by one either way, and rounding may carry to 10**17:
    # redo those cells a decade over.  A cell is good if its product is above
    # 10**16, or just below it after a carry; y == 10**16 leaves the side open
    up = n >= 10 ** 17
    redo = np.flatnonzero(up | (_above(n, d) <= 0))
    if redo.size:
        up = up[redo]
        kr = k[redo] + np.where(up, 1, -1)
        n[redo], d[redo] = nr, dr = _round_scaled(a[redo], 16 - kr, tables)
        # '%.17g' writes an exponent outside -4 <= k <= 16: past a carry to 10**17, say
        ok[redo] &= ((up | (_above(nr, dr) > 0)) & (nr >= 10 ** 16) & (nr < 10 ** 17)
                     & (kr >= -4) & (kr <= 16))
        k[redo] = np.where(ok[redo], kr, 0)
    ok &= np.abs(d) != 0.5                          # y a half-integer: CPython knows
    # an x the kernel writes is whole if and only if its last 16 - k digits are
    # 0: a double that is not whole lies over 10**(k - 16) / 2 from the next one
    whole = a == np.floor(a)
    row = k + 4
    row += whole * 21
    row += np.signbit(v) * 42
    _splice(slot, _digit_words(n, tables, True), [t[row] for t in tables.keep],
            tables.shift[row], [t[row] for t in tables.extra])
    return ok


def _f6_kernel(v, tables, slot):
    """Write '%.6f' % x into the slot of each x of v that it can; return
    where it did."""
    a = np.abs(v)
    ok = a < 2.0 ** 33
    a[~ok] = 0.0
    n, d = _round_scaled(a, 6, tables)
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
    tables = _kernel_tables()
    done = _KERNELS[fmt](v, tables, slot) if tables is not None else np.zeros(len(v), bool)
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
