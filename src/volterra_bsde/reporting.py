"""Check rows and the bytes of every CLI artifact (the numerical modules
return arrays; only this module knows the format).

An artifact is a list of byte chunks (ASCII for every CSV), which the CLI
hashes and writes chunk by chunk, so no large file is ever joined into one
string.
Every number is rendered as ``"%.17g" % x``: by `fmt` one scalar at a time
(report rows and headers), by `g17_fields` a whole array at a time (grid
tables, `grid_csv`).  `g17_fields` is exact for every float64: on its fast
range 1e-11 < |x| < 1e16 it takes the 17 digits of x = m 2^e as the
half-even rounding of m 5^p 2^(e + p), p = 16 - floor(log10 |x|), in 128-bit
integer arithmetic from 32-bit limbs (Adams, "Ryu revisited: printf
floating point conversion", OOPSLA 2019), and lays them out as C's %g
does; 0, -0, inf, nan and every |x| outside that range go through
``b"%.17g" % x`` one value at a time.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

FIELD = 24  # longest "%.17g" of a float64: "-2.2250738585072014e-308"
CHUNK_ROWS = 16  # grid rows per byte chunk of grid_csv
_FAST = (1e-11, 1e16)  # exclusive; inside it 16 - floor(log10 |x|) lies in [1, 27]
_TEN16, _TEN17 = np.uint64(10**16), np.uint64(10**17)
_LOW32, _32, _1 = np.uint64(2**32 - 1), np.uint64(32), np.uint64(1)


def fmt(x):
    """17-significant-digit decimal rendering of one scalar."""
    return format(float(x), ".17g")


def csv_chunks(header, rows):
    """The header line(s), then the rows, each line ending in a newline,
    as one byte chunk in a list."""
    head = [header] if isinstance(header, str) else list(header)
    return ["".join(f"{line}\n" for line in [*head, *rows]).encode()]


def column_csv_rows(*columns):
    """One row per index across the columns, each value rendered by fmt."""
    return (",".join(map(fmt, row)) for row in zip(*columns))


def grid_csv(header, tgrid, xgrid, *tables):
    """CSV "t,x,v1,v2,..." over a (t, x) grid: the header chunk, then one
    chunk per CHUNK_ROWS values of t, whose lines are exactly
    f"{fmt(t)},{fmt(x)},{fmt(v1[i, j])},..." over (i, j).

    Each field is rendered once into a NUL-padded slot of FIELD bytes and
    its separator; dropping the NULs leaves the lines.  A path dump
    "p,t,a,b" is the grid ``np.arange(k)`` x times: an int path id renders
    as f"{p}" does.
    """
    tf, xf = g17_fields(tgrid), g17_fields(xgrid)
    chunks = csv_chunks(header, ())
    for i in range(0, len(tf), CHUNK_ROWS):
        values = np.stack([tab[i:i + CHUNK_ROWS] for tab in tables], axis=-1)
        cells = np.zeros((*values.shape[:2], 2 + len(tables), FIELD + 1), np.uint8)
        cells[:, :, 0, :FIELD] = tf[i:i + CHUNK_ROWS, None]
        cells[:, :, 1, :FIELD] = xf
        cells[:, :, 2:, :FIELD] = g17_fields(values).reshape(*values.shape, FIELD)
        cells[..., FIELD] = ord(",")
        cells[:, :, -1, FIELD] = ord("\n")
        chunks.append(cells[cells != 0].tobytes())
    return chunks


def g17_fields(x):
    """``b"%.17g" % v`` for every value v of x (flattened), each in one
    NUL-padded row of FIELD bytes."""
    x = np.asarray(x, dtype=float).ravel()
    a = np.abs(x)
    fast = (a > _FAST[0]) & (a < _FAST[1])
    D, X = _decimal17(np.where(fast, a, 1.0))
    _, quads, lead, tz, layout_idx, layout_chr = _tables()
    # digit words: NUL NUL NUL d0 | d1..d4 | d5..d8 | d9..d12 | d13..d16
    words = np.empty((x.size, 5), np.uint32)
    d0 = D // _TEN16
    words[:, 0] = np.take(lead, d0)
    rest = D - d0 * _TEN16
    hi8 = (rest // np.uint64(10**8)).astype(np.uint32)
    lo8 = (rest - hi8 * np.uint64(10**8)).astype(np.uint32)
    groups = []
    for g8 in (hi8, lo8):
        top = g8 // np.uint32(10**4)
        groups += [top, g8 - top * np.uint32(10**4)]
    for j, g in enumerate(groups):
        words[:, 1 + j] = np.take(quads, g)
    # trailing zeros of d1..d16, group by group from the last (d0 is not 0)
    zeros, all_zero = np.take(tz, groups[3]), groups[3] == 0
    for g in groups[2::-1]:
        zeros += np.take(tz, g) * all_zero
        all_zero &= g == 0
    # one layout per (sign, X, significant digits): group the values by it
    # (a stable sort of int16 keys is a radix sort)
    neg = np.signbit(x) & fast
    key = ((neg * 27 + X + 11) * 17 + 16 - zeros).astype(np.int16)
    order = np.argsort(key, kind="stable")
    key = key[order]
    digits = np.take(words.view("V20").ravel(), order).view(np.uint8).reshape(-1, 20)
    starts = np.flatnonzero(np.diff(key, prepend=-1)).tolist()
    sorted_out = np.empty((x.size, FIELD), np.uint8)
    for i, j in zip(starts, [*starts[1:], x.size]):
        block = sorted_out[i:j]
        np.take(digits[i:j], layout_idx[key[i]], axis=1, out=block)
        block |= layout_chr[key[i]]
    out = np.empty_like(sorted_out)
    out.view(f"V{FIELD}").ravel()[order] = sorted_out.view(f"V{FIELD}").ravel()
    for i in np.flatnonzero(~fast):
        text = b"%.17g" % x[i]
        out[i] = 0
        out[i, :len(text)] = np.frombuffer(text, np.uint8)
    return out


def _decimal17(a):
    """(D, X) for each a in the fast range: the 17 significant digits
    D in [1e16, 1e17) and the exponent X, a ~= D 10^(X - 16), with D the
    half-even rounding of the exact a 10^(16 - X)."""
    mant, e = np.frexp(a)
    m = (mant * 2.0**53).astype(np.uint64)
    e = e.astype(np.int64) - 53
    k = np.clip(np.floor(np.log10(a)).astype(np.int64), -11, 15)
    Q, up = _scaled(m, e, k)
    # the unrounded quotient brackets k; log10 misses by one next to 10^k
    miss = (Q >= _TEN17).astype(np.int64) - (Q < _TEN16)
    while miss.any():
        i = np.flatnonzero(miss)
        k[i] += miss[i]
        Q[i], up[i] = _scaled(m[i], e[i], k[i])
        miss[i] = (Q[i] >= _TEN17).astype(np.int64) - (Q[i] < _TEN16)
    # no rounding carries to 1e17: that needs |a| within 5e-18 relative
    # below a power of ten, closer than any float64 next to one
    return Q + up, k


def _scaled(m, e, k):
    """floor(m 5^p 2^(e + p)) with p = 16 - k, and whether rounding it
    half-even goes up.  m 5^p < 2^116 is held in two uint64 words."""
    p = 16 - k
    q = np.take(_tables()[0], p)
    m0, m1, q0, q1 = m & _LOW32, m >> _32, q & _LOW32, q >> _32
    mid = m0 * q1 + m1 * q0
    low = m0 * q0
    lo = low + (mid << _32)
    hi = m1 * q1 + (mid >> _32) + (lo < low)
    s = -(e + p)  # a right shift, or, near 1e16, a left shift of at most 3
    right = s > 0
    sr = np.clip(s, 1, 63).astype(np.uint64)
    Q = np.where(right, (hi << (np.uint64(64) - sr)) | (lo >> sr),
                 lo << np.clip(-s, 0, 63).astype(np.uint64))
    r, half = lo & ((_1 << sr) - _1), _1 << (sr - _1)
    up = right & ((r > half) | ((r == half) & (Q & _1).astype(bool)))
    return Q, up


@functools.cache
def _tables():
    """Read-only tables, built on first use: 5^p for p <= 27; the ASCII
    words of 0..9999 and of a lead digit; the trailing decimal zeros of
    0..9999 (4 for 0); and per layout key the byte taken from the digit
    words (0, a NUL, for a literal) and the literal character."""
    n = np.arange(10**4)
    tz = ((n % 10 == 0).astype(np.int16) + (n % 100 == 0) + (n % 1000 == 0)
          + (n == 0))
    idx = np.zeros((2, 27, 17, FIELD), np.intp)
    chars = np.zeros((2, 27, 17, FIELD), np.uint8)
    for X in range(-11, 16):
        for nd in range(1, 18):
            body = _layout(X, nd)
            for neg in (0, 1):
                for j, c in enumerate(["-"] * neg + body):
                    if isinstance(c, str):
                        chars[neg, X + 11, nd - 1, j] = ord(c)
                    else:
                        idx[neg, X + 11, nd - 1, j] = 3 + c
    tables = (np.array([5**p for p in range(28)], np.uint64),
              np.frombuffer(b"".join(b"%04d" % i for i in n), np.uint32),
              np.frombuffer(b"".join(b"\0\0\0%d" % i for i in range(10)), np.uint32),
              tz, idx.reshape(-1, FIELD), chars.reshape(-1, FIELD))
    for table in tables:  # shared by every caller
        table.flags.writeable = False
    return tables


def _layout(X, nd):
    """C's %.17g of the digits d0 d1 ... d16, nd of them significant, with
    decimal exponent X in [-11, 15]: digit positions (int) and literals."""
    digits = list(range(nd))
    if X < -4:
        return [0, *(["."] + digits[1:] if nd > 1 else []), *f"e{X:+03d}"]
    if X < 0:
        return ["0", ".", *"0" * (-X - 1), *digits]
    frac = digits[X + 1:]
    return [*range(X + 1), *(["."] + frac if frac else [])]


@dataclass(frozen=True)
class CheckRow:
    name: str
    lhs: float
    rhs: float
    stderr: float
    tol: float
    passed: bool


@dataclass
class Report:
    """A named bundle of check rows with an overall verdict."""

    title: str
    rows: list = field(default_factory=list)
    details: dict = field(default_factory=dict)

    def add(self, name, lhs, rhs, stderr, tol, passed=None):
        """Append a row; its verdict is ``passed``, or |lhs - rhs| <= tol
        when that is None."""
        passed = bool(abs(lhs - rhs) <= tol if passed is None else passed)
        self.rows.append(
            CheckRow(name=name, lhs=float(lhs), rhs=float(rhs),
                     stderr=float(stderr), tol=float(tol), passed=passed)
        )
        return passed

    @property
    def passed(self):
        return all(r.passed for r in self.rows)

    def to_csv(self):
        return csv_chunks("check_name,lhs,rhs,stderr,pass", (
            f"{r.name},{fmt(r.lhs)},{fmt(r.rhs)},{fmt(r.stderr)},{int(r.passed)}"
            for r in self.rows))

    def to_value_csv(self):
        """bsde-style rendering: check,value,tolerance,pass."""
        return csv_chunks("check,value,tolerance,pass", (
            f"{r.name},{fmt(r.lhs - r.rhs)},{fmt(r.tol)},{int(r.passed)}"
            for r in self.rows))
