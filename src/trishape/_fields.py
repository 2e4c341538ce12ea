"""Field parsing: ``test`` reads the preshape files that ``sample --emit
preshapes`` writes with a NumPy kernel that gives the bits of CPython's
correctly rounded ``float()``, the inverse of the row writer in ``_rows``.

The kernel takes a file in the writer's canonical form alone: the header
``m,k`` then ``M,K`` in digits, then rows of exactly m(k - 1) fields, each
row ending in a newline, with nothing else in the file (no blank line,
space, tab, CR or comment).  A field ``0.`` with 1 to 19 digits, signed or
not, is N / 10**19 for the integer N < 10**19 its digits make, padded with
zeros; '%.17g' writes every x with 1e-3 <= |x| < 1 so.  In a long double
with a 64-bit mantissa N and 10**19 are exact, so their quotient rounds
once, and every double midpoint (54 bits) is representable: unless the
quotient lands on one, it lies between the same two midpoints as N / 10**19
itself, and rounding it to a double gives float()'s value (Clinger, PLDI
1990).  A quotient lands on a midpoint where the 11 bits of its significand
below a double's are 10000000000; that holds also just below a power of
two, where the double spacing halves.  Such fields (about 1 in 2048), and
fields in any other form (exponents, 0, 1, nan, inf, more digits), go to
float() one at a time.  On any other file, on a field float() refuses or
that holds a '_' (which float() takes and NumPy's loadtxt does not), and on
a host whose long double fails the check in _kernel_tables, the reader
returns None and the caller reads the file through loadtxt, whose errors
name the row and column.

The file is read and parsed in chunks of _CHUNK bytes, each cut after its
last newline, into one buffer, and the values go into one array grown by
reallocation, so memory beyond that array stays flat however long the file
is.  A field is read as three little-endian uint64 words from a view of the
chunk with a stride of one byte, past its sign: its bytes 0-7, 8-15 and
13-20.  The bytes past the field's end, "0." and the three bytes that the
second and third words share are set to '0'; then each word holds 8 ASCII
digits, checked with two nibble masks and converted with three
multiply-shifts (Lemire, "Number parsing at a gigabyte per second", Softw.
Pract. Exp. 51(8), 2021), and N = d0 * 10**13 + d1 * 10**5 + d2."""

import functools
import os
import re
import types

import numpy as np

_CHUNK = 1 << 18            # bytes read and parsed at a time
_SLACK = 32                 # bytes past a chunk that a field's words may cover
_WORD = np.dtype("<u8")
_OFFSETS = (0, 8, 13)       # the byte of a field (past its sign) where each word starts
_SCALES = (10 ** 13, 10 ** 5, 1)        # the weight of each word's 8 digits in N
_SIZE = re.compile(rb"(\d+),(\d+)\n")
_ZEROS = 0x3030303030303030             # '0' in every byte
_HIGH_NIBBLES = 0xF0F0F0F0F0F0F0F0


@functools.cache
def _kernel_tables():
    """The kernel's tables, built on first use; None where long double is not
    the x87 format (a 64-bit significand, integer bit set, in the low 8 of
    16 bytes) or does not divide at that precision, so that every file goes
    through loadtxt.  Fields:
      keep, fill -- for word i and a field of L bytes past its sign (L <= 22),
                    keep[i][L] keeps the word's bytes that are digits of the
                    field and fill[i][L] puts '0' in the others;
      scale      -- 10**19 as a long double."""
    ld = np.longdouble
    one_and_a_half = np.array([1.5], ld)
    if (one_and_a_half.itemsize != 16 or one_and_a_half.view(_WORD)[0] != 3 << 62
            or ld(1) + ld(2) ** -63 == ld(1)
            or np.array([2 ** 64 - 1], _WORD).astype(ld)[0] != ld(2) ** 64 - 1):
        return None
    keep, fill = [], []
    # the bytes of each word that no earlier word holds, past "0.", hold digits
    for at, first in zip(_OFFSETS, (2, 8, 16)):
        masks = [sum(255 << 8 * j for j in range(8) if first <= at + j < size)
                 for size in range(23)]
        keep.append(np.array(masks, _WORD))
        fill.append(np.array([_ZEROS & ~mask for mask in masks], _WORD))
    return types.SimpleNamespace(keep=keep, fill=fill, scale=ld(10) ** 19)


def _eight_digits(w):
    """The integer of the 8 ASCII digits of each word of w, the first in its
    low byte; w is overwritten."""
    w &= 0x0F0F0F0F0F0F0F0F
    w *= 2561
    w >>= 8
    w &= 0x00FF00FF00FF00FF
    w *= 6553601
    w >>= 16
    w &= 0x0000FFFF0000FFFF
    w *= 42949672960001
    w >>= 32
    return w


def _values(buf, words, sep, tables):
    """The float of each field of the chunk in buf, where the fields end at
    the separators sep; None if a field is not a float to loadtxt."""
    start = np.empty_like(sep)
    start[0] = 0
    start[1:] = sep[:-1] + 1
    neg = buf[start] == ord("-")
    start += neg
    size = sep - start
    ok = (size >= 3) & (size <= 21)
    row = np.minimum(size, 22, out=size)
    n = 0
    for i, at in enumerate(_OFFSETS):
        w = words[start + at]
        if i == 0:
            ok &= (w & 0xFFFF) == (ord("0") | ord(".") << 8)
        w &= tables.keep[i][row]
        w |= tables.fill[i][row]
        # a byte is a digit where its high nibble is 3 and adding 6 leaves it so
        check = w + 0x0606060606060606
        check &= _HIGH_NIBBLES
        check >>= 4
        check |= w & _HIGH_NIBBLES
        ok &= check == 0x3333333333333333
        del check
        w = _eight_digits(w)
        w *= _SCALES[i]
        n += w
    del row, w
    x = n.astype(np.longdouble)
    del n
    x /= tables.scale
    ok &= (x.view(_WORD)[::2] & 0x7FF) != 0x400        # not on a double midpoint
    values = x.astype(np.float64)
    del x
    bits = values.view(_WORD)
    bits += neg.astype(_WORD) * (1 << 63)   # the sign: x >= 0, so its sign bit is clear
    for i in np.flatnonzero(~ok).tolist():
        text = buf[start[i] - neg[i]:sep[i]].tobytes()
        if b"_" in text:
            return None
        try:
            values[i] = float(text)
        except ValueError:
            return None
    return values


def _read_preshapes(path):
    """The preshapes of the file at path, as a (t, m, k - 1) array, if the file
    is in the canonical form and every field parses; else None."""
    tables = _kernel_tables()
    if tables is None:
        return None
    with open(path, "rb") as fh:
        # a pipe cannot be read again by the caller
        if not fh.seekable() or fh.readline() != b"m,k\n":
            return None
        head = _SIZE.fullmatch(fh.readline())
        if head is None:
            return None
        m, k = int(head[1]), int(head[2])
        width = m * (k - 1)
        if width < 1:
            return None
        buf = np.empty(_CHUNK + _SLACK, np.uint8)
        words = np.ndarray(len(buf) - 7, _WORD, buf, strides=(1,))     # a word at every byte
        view, have = memoryview(buf), 0
        out, count, done, total = np.empty(0), 0, fh.tell(), os.fstat(fh.fileno()).st_size
        while True:
            got = fh.readinto(view[have:_CHUNK])
            end = have + got
            if not end:
                break
            if not got:                 # the last row, which has no newline
                buf[end] = ord("\n")
                end += 1
            # the bytes below '-': ',' and '\n', and the space, tab, CR, '#', '+'
            # and control bytes that a canonical file lacks
            sep = np.flatnonzero(buf[:end] < ord("-"))
            kind = buf[sep]
            lines = np.flatnonzero(kind == ord("\n"))
            if not lines.size:
                if end == _CHUNK:       # a row longer than a chunk
                    return None
                have = end
                continue
            fields = lines[-1] + 1
            rows = lines.size
            if (fields != rows * width or not (kind[width - 1:fields:width] == ord("\n")).all()
                    or np.count_nonzero(kind[:fields] == ord(",")) != rows * (width - 1)):
                return None
            values = _values(buf, words, sep[:fields], tables)
            if values is None:
                return None
            cut = sep[fields - 1] + 1
            done += cut
            if count + fields > len(out):
                # room for the rest of the file at this chunk's fields per byte; resize
                # reallocates in place where it can, and no view of out is alive
                out.resize(count + fields + fields * max(total - done, 0) // cut,
                           refcheck=False)
            out[count:count + fields] = values
            count += fields
            have = end - cut
            buf[:have] = buf[cut:end]
    if not count:
        return None
    out.resize(count, refcheck=False)
    return out.reshape(-1, m, k - 1)
