"""Row formatting: bulk output (``sample``, ``plot-data`` and the SVG scatter)
goes through NumPy kernels that write the bytes of CPython's correctly rounded
'%.17g' and '%.6f'.  For a finite x with 1e-4 <= |x| < 1e17, which '%.17g'
writes without an exponent, and k = floor(log10 |x|), the 17 digits of '%.17g'
are N = round(|x| * 10**(16 - k)).  In a long double with a 64-bit mantissa,
10**j is exact for j <= 27 and every half-integer below 2**57 is
representable, so the product rounds once and monotonically: unless it lands
on a half-integer, it lies strictly between the same two half-integers as the
exact product, and (y + 2**63) - 2**63 is the correctly rounded N (Steele &
White 1990; Adams, Ryu, 2018).  Products that land on a half-integer (about
0.4% of cells), zeros, inf, NaN and values out of range (at most about 2e-4
of the cells the commands write) go to CPython one at a time, as does every
cell on a host whose long double fails the check in _kernel_tables.

A cell is the bytes of its text, in order, in a 24-byte slot with NULs
around them.  The kernels build the slots as three little-endian uint64
words, one array per word, with whole-array integer operations: a per-row
byte shift on short uint8 rows would cost NumPy a loop per row.  A block of
rows is its slots side by side, and its text what is left when the NULs
are dropped."""

import functools
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
      groups     -- the 4 ASCII digits of 0..9999 as words, bytes in order;
      zero_count -- the number of their trailing zeros;
      low, high  -- byte masks: in word i, low[i][p] keeps the bytes below p
                    and high[i][p] the others;
      split, shift, extra -- the %.17g layout of each exponent e = -4..16,
                    and again with no point (nothing after it): the byte
                    below which the digits stay, how far the others move up,
                    and what goes between ("." or "0.000").
    NumPy loops met for the first time cost resident code pages, so these
    are built, and the kernels run, with few kinds of them: no comparison
    or bitwise invert of uint64s, for one."""
    ld = np.longdouble
    big = ld(2) ** 63
    if ld(1) + ld(2) ** -63 == ld(1) or (ld(2.5) + big) - big != ld(2):
        return None
    q = np.arange(10000, dtype=np.uint64)
    groups, zeros, below = np.zeros_like(q), np.zeros(len(q), np.intp), np.ones(len(q), bool)
    for shift in (24, 16, 8, 0):                    # the last digit first
        q, d = np.divmod(q, np.uint64(10))
        groups |= (d + ord("0")) << shift
        below &= ~d.astype(bool)
        zeros += below
    at = np.arange(24)
    low = np.where(at < np.arange(25)[:, None], 255, 0)
    # slot bytes: 0 the sign, then the 17 digits from byte 1 with the point
    # after digit e (e >= 0) or "0." and -e-1 zeros before them (e < 0)
    e = np.tile(np.arange(-4, 17), 2)[:, None]
    point = np.where((e >= 0) & (np.arange(42)[:, None] < 21), e + 2, np.where(e < 0, 2, -1))
    extra = np.where(at == point, ord("."), 0) + np.where(
        (e < 0) & ((at == 1) | ((at >= 3) & (at < 2 - e))), ord("0"), 0)
    words = lambda table: table.astype(np.uint8).view(_WORD).T.copy()
    return types.SimpleNamespace(
        pow10=np.cumprod(np.concatenate(([ld(1)], np.full(27, ld(10))))), big=big,
        groups=groups, zero_count=zeros, low=words(low), high=words(255 - low),
        split=np.where(e[:, 0] >= 0, e[:, 0] + 2, 1),
        shift=np.where(e[:, 0] >= 0, 8, 8 - 8 * e[:, 0]).astype(np.uint64), extra=words(extra))


def _round_scaled(a, j, tables):
    """(y, N): y = a * 10**j rounded once to a long double, N = y rounded to
    an integer.  N = round(a * 10**j) exactly unless y is a half-integer, for
    0 <= j <= 27 (j is clipped to that)."""
    y = a.astype(np.longdouble)
    y *= tables.pow10[np.clip(j, 0, 27)]
    n = y + tables.big
    n -= tables.big
    return y, n


def _tie(y, n):
    """Where y is a half-integer."""
    d = y - n
    return np.abs(d, out=d) == 0.5


def _digit_words(n, tables):
    """(words, zeros) for uint64 integers 0 <= n < 10**17: the 17 digits of
    n, zero-padded, as bytes 1..17 of three words, and the number of
    trailing zeros among the last 16."""
    hi, lo = np.divmod(n, np.uint64(10 ** 8))
    top, hi = np.divmod(hi, np.uint64(10 ** 8))
    top = (top + ord("0")) << 8
    g3, g2 = np.divmod(hi, np.uint64(10000))
    g1, g0 = np.divmod(lo, np.uint64(10000))
    del hi, lo
    zeros, below = tables.zero_count[g0], ~g0.astype(bool)   # below: every later digit is 0
    for g in (g1, g2, g3):
        zeros += tables.zero_count[g] * below
        below &= ~g.astype(bool)
    del below
    d0, d2 = tables.groups[g0], tables.groups[g2]
    del g0, g2
    last = d0 >> 16
    d0 <<= 48
    d0 |= tables.groups[g1] << 16
    d0 |= d2 >> 16
    d2 <<= 48
    d2 |= tables.groups[g3] << 16
    d2 |= top
    return [d2, d0, last], zeros


def _splice(slot, digits, tables, split, shift, extra, sign, cut=None):
    """Write three-word slots: the digit bytes below byte split, those from
    it on (and below byte cut) moved up by shift bits (0 < shift < 64), the
    bytes of extra(i) for word i, and sign in byte 0.  It drops each word of
    digits once used, to keep memory down."""
    back, carry = np.uint64(64) - shift, sign
    for i in range(3):
        high = digits[i] & tables.high[i][split]
        if cut is not None:
            high &= tables.low[i][cut]
        word = digits[i] & tables.low[i][split]
        digits[i] = None
        word |= high << shift
        word |= carry
        word |= extra(i)
        slot[:, i] = word
        carry = high >> back


def _decade(a):
    """floor(log10 a) as integers, which may miss by one near a power of ten."""
    return np.floor(np.log10(a)).astype(np.intp)


def _sign(v):
    return np.where(np.signbit(v), np.uint64(ord("-")), np.uint64(0))


def _g17_kernel(v, tables, slot):
    """Write '%.17g' % x into the slot of each x of v that it can; return
    where it did."""
    a = np.abs(v)
    ok = (a >= 1e-4) & (a < 1e17)
    a[~ok] = 1.0
    k = np.minimum(_decade(a), 16)                  # as |x| < 1e17: so 16 - k >= 0
    y, n = _round_scaled(a, 16 - k, tables)
    # the decade may miss by one either way, and rounding may carry to 10**17:
    # redo those cells a decade over.  A cell is good if its product is above
    # 10**16, or just below it after a carry; y == 10**16 leaves the side open
    up = n >= 10 ** 17
    redo = np.flatnonzero(up | (y < 10 ** 16))
    ok &= y != 10 ** 16
    if redo.size:
        k[redo] += np.where(up[redo], 1, -1)
        y[redo], n[redo] = _round_scaled(a[redo], 16 - k[redo], tables)
        ok[redo] &= up[redo] | (y[redo] > 10 ** 16)
    # '%.17g' writes an exponent outside -4 <= k <= 16: past a carry to 10**17, say
    ok &= ~_tie(y, n) & (n >= 10 ** 16) & (n < 10 ** 17) & (k >= -4) & (k <= 16)
    del a, y
    n[~ok] = 10 ** 16
    n = n.astype(np.uint64)
    digits, zeros = _digit_words(n, tables)
    del n
    e = np.where(ok, k, 0)                          # cells left to CPython: the layout of 0
    row = e + 4 + 21 * (zeros >= 16 - e)            # no digit after the point: no point
    cut = 18 - zeros                                # the trailing zeros start there
    _splice(slot, digits, tables, tables.split[row], tables.shift[row],
            lambda i: tables.extra[i][row], _sign(v), cut)
    return ok


def _f6_kernel(v, tables, slot):
    """Write '%.6f' % x into the slot of each x of v that it can; return
    where it did."""
    a = np.abs(v)
    ok = a < 2.0 ** 33
    a[~ok] = 0.0
    y, n = _round_scaled(a, 6, tables)
    ok &= ~_tie(y, n)
    n[~ok] = 0
    n = n.astype(np.uint64)
    # 11 integer digits at bytes 1..11, their leading zeros NULs, the point
    # after them and 6 digits
    lead = 11 - np.searchsorted(10 ** np.arange(7, 17, dtype=np.uint64), n, side="right")
    digits = [w & m[lead] for w, m in zip(_digit_words(n, tables)[0], tables.high)]
    point = (0, np.uint64(ord(".") << 32), 0)
    _splice(slot, digits, tables, 12, np.uint64(8), point.__getitem__, _sign(v))
    return ok


_KERNELS = {"%.17g": _g17_kernel, "%.6f": _f6_kernel}


def _float_cells(fmt, v):
    """The slots of fmt % x for each float x of v, one row of bytes each."""
    v = np.asarray(v, dtype=float)
    slot = np.empty((len(v), 3), _WORD)
    tables = _kernel_tables()
    done = _KERNELS[fmt](v, tables, slot) if tables is not None else np.zeros(len(v), bool)
    slot = slot.view(np.uint8)
    rest = np.flatnonzero(~done)
    if rest.size:
        text = np.array([fmt % x for x in v[rest].tolist()], dtype="S")
        width = text.dtype.itemsize
        if width > slot.shape[1]:
            slot = np.pad(slot, ((0, 0), (0, width - slot.shape[1])))
        slot[rest] = 0
        slot[rest, :width] = text.view(np.uint8).reshape(rest.size, width)
    return slot


def _line_parts(line):
    """The parts of line % row, in order: a literal as bytes, a field as
    (its format, the index of its column)."""
    pieces = _SPEC.split(line)          # literal, field, literal, ..., literal
    parts = [pieces[0].encode()]
    for col, (spec, after) in enumerate(zip(pieces[1::2], pieces[2::2])):
        parts += [(spec, col), after.encode()]
    return [p for p in parts if p != b""]


def _format_rows(parts, columns, lo, rows):
    """The text of rows lo:lo + rows of a line's parts, with one kernel call
    per float format for all of its fields."""
    slots = {}
    for fmt in _KERNELS:
        fields = [p for p in parts if isinstance(p, tuple) and p[0] == fmt]
        if fields:
            run = np.column_stack([columns[col][lo:lo + rows] for _, col in fields]).ravel()
            slot = _float_cells(fmt, run).reshape(rows, len(fields), -1)
            slots.update((p, slot[:, i]) for i, p in enumerate(fields))
    pieces = []
    for p in parts:
        if isinstance(p, bytes):
            pieces.append(np.broadcast_to(np.frombuffer(p, np.uint8), (rows, len(p))))
        elif p[0] == "%s":
            text = columns[p[1]][lo:lo + rows].astype("S")
            pieces.append(text.view(np.uint8).reshape(rows, -1))
        else:
            pieces.append(slots.pop(p))
    text = np.hstack(pieces)
    del pieces, slots
    return str(memoryview(text[text != 0]), "ascii")


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
