"""Field parsing: ``test`` reads the preshape files that ``sample --emit
preshapes`` writes with a NumPy kernel that gives the bits of CPython's
correctly rounded ``float()``, the inverse of the row writer in ``_rows``.

The kernel takes a file in the writer's canonical form alone: the header
``m,k`` then ``M,K`` in digits, then rows of exactly m(k - 1) fields, each
row ending in a newline, with nothing else in the file (no blank line,
space, tab, CR or comment).  A field ``0.`` with 1 to 19 digits, signed or
not, is N / 10**19 for the integer N < 10**19 its digits make, padded with
zeros; '%.17g' writes every x with 1e-3 <= |x| < 1 so.  As 10**19 =
5**19 * 2**19, N / 10**19 = (Q + R / 5**19) * 2**-19 for Q = N // 5**19 <
2**19 and R = N - Q * 5**19 < 5**19 < 2**45, which are exact doubles: so
f = R / 5**19 rounds once, to within 2**-54, and the scale by 2**-19 is
exact (Clinger, PLDI 1990).  f - 2**-50 and f + 2**-50, rounded, still lie
either side of R / 5**19, and rounding is monotone: where Q plus each
rounds to the same double, that double is Q + R / 5**19 rounded, and its
scale is float()'s value.  The two differ for fields within 2**-69 of a
double midpoint (a share 2**-49 / ulp(Q): about 2.6e-4 of uniform 19-digit
fields, none of the texts '%.17g' writes, which lie farther), and for
every field below 2**-15, where Q < 16.  Those fields, and fields in any
other form (exponents, 0, 1, nan, inf, more digits), go to float() one at
a time.  On any other file, and on a field float() refuses or that holds a
'_' (which float() takes and NumPy's loadtxt does not), the reader returns
None and the caller reads the file through loadtxt, whose errors name the
row and column.

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

import os
import re

import numpy as np

_CHUNK = 1 << 18            # bytes read and parsed at a time
_SLACK = 32                 # bytes past a chunk that a field's words may cover
_WORD = np.dtype("<u8")
_OFFSETS = (0, 8, 13)       # the byte of a field (past its sign) where each word starts
_SCALES = (10 ** 13, 10 ** 5, 1)        # the weight of each word's 8 digits in N
_SIZE = re.compile(rb"(\d+),(\d+)\n")
_ZEROS = 0x3030303030303030             # '0' in every byte
_HIGH_NIBBLES = 0xF0F0F0F0F0F0F0F0
_FIVE = 5 ** 19                         # 10**19 = 5**19 * 2**19, and 5**19 < 2**45


# for word i and a field of L bytes past its sign (L <= 22), _KEEP[i][L] keeps the
# word's bytes that are digits of the field, and _FILL[i][L] puts '0' in the others;
# the bytes of each word that no earlier word holds, past "0.", hold digits
_KEEP = [np.array([sum(255 << 8 * j for j in range(8) if first <= at + j < size)
                   for size in range(23)], _WORD) for at, first in zip(_OFFSETS, (2, 8, 16))]
_FILL = [_ZEROS & ~keep for keep in _KEEP]


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


def _values(buf, words, sep):
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
        w &= _KEEP[i][row]
        w |= _FILL[i][row]
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
    q = n // _FIVE              # Q < 2**19
    n -= q * _FIVE              # R < 2**45; as int64 both cast to doubles exactly
    values = n.view(np.int64).astype(np.float64)
    del n
    values /= _FIVE             # f = R / 5**19, within 2**-54
    q = q.view(np.int64).astype(np.float64)
    lo = values - 2.0 ** -50
    lo += q
    values += 2.0 ** -50
    values += q
    ok &= lo == values          # Q + (f - 2**-50) and Q + (f + 2**-50) round alike
    del q, lo
    values *= 2.0 ** -19
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
            values = _values(buf, words, sep[:fields])
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
