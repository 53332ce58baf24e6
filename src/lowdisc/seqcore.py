"""Classical low-discrepancy generators: van der Corput, Halton, Sobol',
Owen-scrambled Sobol', and a counter-based uniform baseline.

Every generator is a pure, stateless map from an integer index to a point,
so prefixes are extensible and calls are trivially thread-safe.  Point sets
travel between modules as plain ``(n, d)`` float64 arrays with coordinates
in ``[0, 1)``.

One row-block loop (:func:`_fill_rows`) makes every point set.  Each kind
supplies a kernel that fills one block of rows from its raw indices, with
scratch reused across blocks; the neural kind is one block of all n rows.
The kernels are vectorized without changing a bit of their output:

* Sobol': a consecutive run takes the Antonov-Saleev recurrence
  ``x_i = x_{i-1} ^ V[ctz(i)]``; other indices the loop over Gray-code bits.
* Owen scrambling: the flips of the top ``K`` bits, ``K`` set by the whole
  set's size, come from a ``2^K``-entry prefix table per coordinate; only
  the lower levels are hashed.
* Halton and van der Corput: ``digit * scale`` is added in the order of
  :func:`radical_inverse`.  A consecutive run in a base ``b <= 127`` starts
  from a table of the radical inverses of its ``K`` low digits (the largest
  ``b^K`` that fits one block), which is the scalar partial sum bit for bit,
  and adds the few higher digits, constant over ``b^K`` indices, to the whole
  run; other bases and indices take a per-digit loop, exact at any index.
"""

from __future__ import annotations

import math
import numbers
import struct
from dataclasses import dataclass
from functools import lru_cache
from hashlib import blake2b
from pathlib import Path

import numpy as np

SOBOL_BITS = 32

KINDS = ("vdc", "halton", "sobol", "sobol-scrambled", "uniform", "neural")
RANDOMIZED_KINDS = ("sobol-scrambled", "uniform")

_U64 = np.uint64
_MASK64 = (1 << 64) - 1

# Rows per block of the generator kernels.  The Sobol' and Owen blocks hold
# a few (4096, d) uint64 buffers, a few hundred KB that stay in cache across
# passes; larger blocks were slower.  The Halton buffers are 1-D, and taller
# blocks cut the Python overhead of its per-base, per-digit loop and of its
# per-run table copies; a base's low-digit table holds at most one block.
_BLOCK_ROWS = 4096
_HALTON_ROWS = 1 << 14


def split_seed(seed: int, *labels) -> int:
    """Derive a 64-bit sub-seed from a master seed and a label path.

    All randomized behavior in the package is keyed by one master seed;
    independent consumers get sub-seeds via distinct label paths.
    """
    h = blake2b(digest_size=8)
    h.update((int(seed) & _MASK64).to_bytes(8, "little"))
    for label in labels:
        h.update(str(label).encode())
        h.update(b"\x1f")
    return int.from_bytes(h.digest(), "little")


# ---------------------------------------------------------------------------
# primes

_prime_cache: list[int] = [2, 3, 5, 7, 11, 13]


def primes(n: int) -> list[int]:
    """First ``n`` primes, sieved on demand and cached."""
    global _prime_cache
    if n <= len(_prime_cache):
        return _prime_cache[:n]
    m = max(n, 6)
    # p_n < n(ln n + ln ln n) for n >= 6
    bound = int(m * (math.log(m) + math.log(math.log(m)))) + 10
    sieve = np.ones(bound + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, int(bound**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    _prime_cache = np.flatnonzero(sieve).tolist()
    return _prime_cache[:n]


def _index_array(indices) -> np.ndarray:
    """Sequence indices as a 1-D nonnegative int64 array.  Integral floats
    are accepted; a fraction, a non-finite value or a float of 2^63 or more
    is a ValueError rather than a truncated index."""
    idx = np.asarray(indices)
    if idx.ndim != 1:
        raise ValueError(f"indices must be a 1-D array, got shape {idx.shape}")
    if idx.dtype.kind == "f":
        if not (np.isfinite(idx).all() and (idx == np.trunc(idx)).all()):
            raise ValueError("indices must be integers, got non-integral or non-finite values")
        if idx.size and idx.max() >= 2.0**63:
            raise ValueError("indices must be below 2^63")
    idx = idx.astype(np.int64, copy=False)
    if idx.size and idx.min() < 0:
        raise ValueError("indices must be nonnegative")
    return idx


def _consecutive(idx: np.ndarray) -> bool:
    """Whether the 1-D ``idx`` holds two or more consecutive indices in order."""
    m = len(idx)
    return m > 1 and idx[-1] - idx[0] == m - 1 and bool((idx[1:] > idx[:-1]).all())


def _fill_rows(kernel, n: int, d: int, rows: int, first: int = 0, indices=None, dtype=np.float64):
    """The one row-block loop: an ``(n, d)`` array whose blocks of at most
    ``rows`` rows are filled by ``kernel(idx, block)``, ``idx`` being the
    block's rows of ``indices`` or, without them, raw indices from ``first``."""
    out = np.empty((n, d), dtype=dtype)
    for lo in range(0, n, rows):
        block = out[lo : lo + rows]
        hi = lo + len(block)
        idx = np.arange(first + lo, first + hi, dtype=np.int64) if indices is None else indices[lo:hi]
        kernel(idx, block)
    return out


# ---------------------------------------------------------------------------
# radical inverse / Halton

# The largest float64 below 1.0.  A sum of many digits, such as the 63
# binary digits of 2^63 - 1, can round up to 1.0; every radical inverse is
# clamped to this, which leaves any value below 1.0 as it is.
_BELOW_ONE = math.nextafter(1.0, 0.0)

def _check_base(base) -> int:
    if not isinstance(base, numbers.Integral) or base < 2:
        raise ValueError(f"base must be an integer >= 2, got {base!r}")
    return int(base)


def radical_inverse(i: int, base: int) -> float:
    """Reflect the base-``b`` digits of ``i`` across the radix point."""
    base = _check_base(base)
    if i < 0:
        raise ValueError("index must be nonnegative")
    x = 0.0
    scale = 1.0 / base
    while i > 0:
        i, digit = divmod(i, base)
        x += digit * scale
        scale /= base
    return min(x, _BELOW_ONE)


def _radical_inverse_into(rem, base: int, out, quot, digit, term) -> None:
    """Add the radical inverse of the int64 indices ``rem`` into ``out``.

    ``rem`` is consumed; ``quot`` and ``digit`` are int64 scratch and
    ``term`` float64 scratch of the same size.  Digits come off
    least-significant first, exact in int64 at any index, and each adds
    ``digit * scale`` to ``out`` in the order :func:`radical_inverse` adds
    them, so every value is bit-identical to the scalar one.  The loop stops
    once the largest index is used up; further passes would only add 0.0.
    """
    scale = 1.0 / base
    while rem.any():
        np.divmod(rem, base, out=(quot, digit))
        rem, quot = quot, rem
        np.multiply(digit, scale, out=term)
        out += term
        scale /= base


def _radical_inverse_run(first: int, base: int, table, scale: float, out) -> None:
    """Write the radical inverses of ``first .. first + len(out) - 1`` to ``out``.

    ``table`` holds the radical inverses of ``0 .. base^K - 1`` and ``scale``
    the weight of digit ``K``.  The scalar sum after the ``K`` low digits of
    ``i`` is the table entry of ``i mod base^K``, bit for bit, so each run of
    constant ``q = i // base^K`` is a table slice plus the digits of ``q``,
    each added to the whole run in the scalar order (a 0 digit adds nothing).
    """
    size = len(table)
    q, r = divmod(first, size)
    lo = 0
    while lo < len(out):
        seg = out[lo : lo + size - r]
        seg[...] = table[r : r + len(seg)]
        k, s = q, scale
        while k:
            k, digit = divmod(k, base)
            if digit:
                seg += digit * s
            s /= base
        lo, q, r = lo + len(seg), q + 1, 0


def radical_inverse_many(indices, base: int) -> np.ndarray:
    """Vectorized :func:`radical_inverse` over an index array."""
    base = _check_base(base)
    idx = np.asarray(indices)
    flat = _index_array(idx.reshape(-1))
    fill = _radical_inverse_kernel((base,), flat.size)
    return _fill_rows(fill, flat.size, 1, _HALTON_ROWS, indices=flat).reshape(idx.shape)


def _radical_inverse_kernel(bases, n: int):
    """``fill(idx, block)`` writes the radical inverses of the int64 ``idx``
    in each base to the columns of ``block``, reusing scratch sized for the
    row blocks of an ``n``-row set.

    A block of consecutive indices takes :func:`_radical_inverse_run` in each
    base ``b`` with ``b * b <= _HALTON_ROWS``, from a table of the largest
    power of ``b`` that fits one block (at most ``_HALTON_ROWS`` entries, made
    by the digit loop); larger bases and any other index array take the
    digit loop of :func:`_radical_inverse_into`.
    """
    rows = min(n, _HALTON_ROWS)
    rem, quot, digit = (np.empty(rows, dtype=np.int64) for _ in range(3))
    term, acc = np.empty(rows, dtype=np.float64), np.empty(rows, dtype=np.float64)
    tables = {}
    for base in bases:
        if base * base <= _HALTON_ROWS:
            size, scale = 1, 1.0 / base
            while size * base <= rows:
                size, scale = size * base, scale / base
            table = np.zeros(size)
            rem[:size] = np.arange(size)
            _radical_inverse_into(rem[:size], base, table, quot[:size], digit[:size], term[:size])
            tables[base] = table, scale

    def fill(idx, block):
        m = len(idx)
        run = _consecutive(idx)
        for j, base in enumerate(bases):
            if run and base in tables:
                _radical_inverse_run(int(idx[0]), base, *tables[base], acc[:m])
            else:
                np.copyto(rem[:m], idx)
                acc[:m] = 0.0
                _radical_inverse_into(rem[:m], base, acc[:m], quot[:m], digit[:m], term[:m])
            np.minimum(acc[:m], _BELOW_ONE, out=block[:, j])

    return fill


def halton_point(i: int, dim: int) -> np.ndarray:
    """Coordinate ``j`` is the radical inverse of ``i`` in the j-th prime."""
    return halton_points([i], dim)[0]


def halton_points(indices, dim: int) -> np.ndarray:
    """``(n, dim)`` Halton points for a 1-D index array."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    idx = _index_array(indices)
    fill = _radical_inverse_kernel(primes(dim), idx.size)
    return _fill_rows(fill, idx.size, dim, _HALTON_ROWS, indices=idx)


# ---------------------------------------------------------------------------
# Sobol'

def gray_code(i):
    """Reflected binary code ``i ^ (i >> 1)``; works on ints and arrays."""
    return i ^ (i >> 1)


# Initial direction data for dimensions 2..16 in new-joe-kuo-6 layout:
# (degree s, inner coefficient bits a_1..a_{s-1} packed MSB-first, m_1..m_s).
# Dimension 1 is the plain van der Corput construction.
_EMBEDDED_ROWS = (
    (1, 0, (1,)),
    (2, 1, (1, 3)),
    (3, 1, (1, 3, 1)),
    (3, 2, (1, 1, 1)),
    (4, 1, (1, 1, 3, 3)),
    (4, 4, (1, 3, 5, 13)),
    (5, 2, (1, 1, 5, 5, 17)),
    (5, 4, (1, 1, 5, 5, 5)),
    (5, 7, (1, 1, 7, 11, 19)),
    (5, 11, (1, 1, 5, 1, 1)),
    (5, 13, (1, 1, 1, 3, 11)),
    (5, 14, (1, 3, 5, 5, 31)),
    (6, 1, (1, 3, 3, 9, 7, 49)),
    (6, 13, (1, 1, 1, 15, 21, 21)),
    (6, 16, (1, 3, 1, 13, 27, 49)),
)


@dataclass(frozen=True)
class DirectionTable:
    """Primitive-polynomial degrees, coefficient encodings, and initial
    direction integers for Sobol' dimensions 2..max_dim.

    ``coeffs[j]`` packs the inner polynomial bits a_1..a_{s-1} MSB-first
    (leading and trailing coefficients of a primitive polynomial are 1 and
    are not stored).  ``initials[j][k-1]`` is the integer m_k defining the
    direction number v_k = m_k / 2^k; it must be odd and < 2^k.
    """

    degrees: tuple[int, ...]
    coeffs: tuple[int, ...]
    initials: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not (len(self.degrees) == len(self.coeffs) == len(self.initials)):
            raise ValueError("degrees, coeffs, and initials must align")
        for row, (s, a, m) in enumerate(
            zip(self.degrees, self.coeffs, self.initials)
        ):
            dim = row + 2
            if s < 1 or len(m) != s:
                raise ValueError(f"dimension {dim}: expected {s} initial values")
            if not 0 <= a < (1 << max(s - 1, 0)) + 1:
                raise ValueError(f"dimension {dim}: coefficient bits out of range")
            for k, mk in enumerate(m, start=1):
                if mk % 2 == 0 or not 0 < mk < (1 << k):
                    raise ValueError(
                        f"dimension {dim}: m_{k}={mk} must be odd and < 2^{k}"
                    )

    @property
    def max_dim(self) -> int:
        return len(self.degrees) + 1

    @classmethod
    def embedded(cls) -> "DirectionTable":
        """Built-in table covering dimensions up to 16 (no data file needed)."""
        return cls(
            degrees=tuple(r[0] for r in _EMBEDDED_ROWS),
            coeffs=tuple(r[1] for r in _EMBEDDED_ROWS),
            initials=tuple(r[2] for r in _EMBEDDED_ROWS),
        )

    @classmethod
    def from_file(cls, path) -> "DirectionTable":
        """Parse a direction-number file with lines ``d s a m_1 .. m_s``.

        The first line is a header and is skipped.  Dimensions must cover
        2..max contiguously (the standard file layout).
        """
        rows: dict[int, tuple[int, int, tuple[int, ...]]] = {}
        with open(path) as fh:
            for lineno, line in enumerate(fh):
                if lineno == 0:
                    continue
                parts = line.split()
                if not parts:
                    continue
                d, s, a = int(parts[0]), int(parts[1]), int(parts[2])
                m = tuple(int(v) for v in parts[3:])
                if len(m) != s:
                    raise ValueError(f"{path}: dimension {d} lists {len(m)} m-values, expected {s}")
                rows[d] = (s, a, m)
        if not rows:
            raise ValueError(f"{path}: no direction-number rows found")
        dims = sorted(rows)
        if dims[0] != 2 or dims != list(range(2, dims[-1] + 1)):
            raise ValueError(f"{path}: dimensions must cover 2..max contiguously")
        return cls(
            degrees=tuple(rows[d][0] for d in dims),
            coeffs=tuple(rows[d][1] for d in dims),
            initials=tuple(rows[d][2] for d in dims),
        )


@lru_cache(maxsize=8)
def _direction_matrix(table: DirectionTable, dim: int, bits: int) -> np.ndarray:
    """(dim, bits) array of direction integers scaled to ``bits`` word width."""
    V = np.zeros((dim, bits), dtype=np.uint64)
    for k in range(1, bits + 1):
        V[0, k - 1] = 1 << (bits - k)
    for j in range(2, dim + 1):
        s, a, m = (
            table.degrees[j - 2],
            table.coeffs[j - 2],
            table.initials[j - 2],
        )
        row = [0] * (bits + 1)
        for k in range(1, min(s, bits) + 1):
            row[k] = m[k - 1] << (bits - k)
        for k in range(s + 1, bits + 1):
            acc = row[k - s] ^ (row[k - s] >> s)
            for t in range(1, s):
                if (a >> (s - 1 - t)) & 1:
                    acc ^= row[k - t]
            row[k] = acc
        V[j - 1] = row[1:]
    V.setflags(write=False)
    return V


def _sobol_directions(dim: int, table: DirectionTable | None, top: int) -> np.ndarray:
    """``(bits, dim)`` direction words, row ``k`` picked by Gray-code bit ``k``,
    once ``dim`` and the largest index ``top`` are checked."""
    table = table or DirectionTable.embedded()
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if dim > table.max_dim:
        raise ValueError(
            f"dimension {dim} exceeds the direction table "
            f"(max supported dimension {table.max_dim})"
        )
    if top >= 1 << SOBOL_BITS:
        raise ValueError(f"indices must be < 2^{SOBOL_BITS} at word width {SOBOL_BITS}")
    return np.ascontiguousarray(_direction_matrix(table, dim, SOBOL_BITS).T)


def _sobol_block(idx: np.ndarray, words: np.ndarray, VT: np.ndarray) -> None:
    """Sobol' words of the indices ``idx``: the XOR of the direction words
    each Gray code selects.  A consecutive run takes it for its first row and
    the rest by the Antonov-Saleev recurrence ``x_i = x_{i-1} ^ V[ctz(i)]``:
    one gather and one prefix XOR down the rows."""
    if _consecutive(idx):
        g = gray_code(int(idx[0]))
        words[0] = np.bitwise_xor.reduce(VT[[k for k in range(g.bit_length()) if g >> k & 1]], 0)
        np.take(VT, np.bitwise_count((idx[1:] & -idx[1:]) - 1), axis=0, out=words[1:])
        np.bitwise_xor.accumulate(words, axis=0, out=words)
        return
    g = gray_code(idx.astype(np.uint64))
    words[...] = 0
    for k in range(VT.shape[0]):
        remaining = g >> _U64(k)
        if not remaining.any():
            break
        words[(remaining & _U64(1)).astype(bool)] ^= VT[k]


def _sobol_kernel(n: int, VT: np.ndarray, finish=None):
    """Kernel that writes a block's words, or makes them in scratch and then
    calls ``finish(words, block)``."""
    scratch = np.empty((min(n, _BLOCK_ROWS), VT.shape[1]), dtype=np.uint64) if finish else None

    def kernel(idx, block):
        words = block if finish is None else scratch[: len(block)]
        _sobol_block(idx, words, VT)
        if finish:
            finish(words, block)

    return kernel


def _to_unit(words: np.ndarray, block: np.ndarray) -> None:
    np.multiply(words, 2.0**-SOBOL_BITS, out=block)


def _sobol_fill(indices, dim: int, table: DirectionTable | None, finish=None) -> np.ndarray:
    idx = _index_array(indices)
    VT = _sobol_directions(dim, table, int(idx.max()) if idx.size else 0)
    kernel, dtype = _sobol_kernel(idx.size, VT, finish), np.float64 if finish else np.uint64
    return _fill_rows(kernel, idx.size, dim, _BLOCK_ROWS, indices=idx, dtype=dtype)


def sobol_raw(indices, dim: int, table: DirectionTable | None = None) -> np.ndarray:
    """Sobol' points as ``(n, dim)`` 32-bit integer fractions (times 2^32).

    Index ``i`` selects direction integers by the bits of its Gray code; a
    run of consecutive indices takes the Gray-code recurrence
    (:func:`_sobol_block`).
    """
    return _sobol_fill(indices, dim, table)


def sobol_points(indices, dim: int, table: DirectionTable | None = None) -> np.ndarray:
    return _sobol_fill(indices, dim, table, _to_unit)


def sobol_point(i: int, dim: int, table: DirectionTable | None = None) -> np.ndarray:
    return sobol_points([i], dim, table)[0]


# ---------------------------------------------------------------------------
# scrambling and the uniform baseline

def _splitmix64(x):
    """SplitMix64 finalizer; accepts uint64 arrays or scalars.

    Wraparound modulo 2^64 is the point, so overflow warnings are silenced.
    """
    with np.errstate(over="ignore"):
        z = x + _U64(0x9E3779B97F4A7C15)
        z = (z ^ (z >> _U64(30))) * _U64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> _U64(27))) * _U64(0x94D049BB133111EB)
        return z ^ (z >> _U64(31))


def _splitmix64_inplace(z: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """:func:`_splitmix64` of the uint64 array ``z``, overwriting it; ``tmp``
    is scratch of the same shape."""
    z += _U64(0x9E3779B97F4A7C15)
    for shift, mult in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        np.right_shift(z, _U64(shift), out=tmp)
        z ^= tmp
        z *= _U64(mult)
    np.right_shift(z, _U64(31), out=tmp)
    z ^= tmp
    return z


def _column_keys(seed: int, d: int, stride: int) -> np.ndarray:
    """Per-coordinate hash keys ``splitmix(splitmix(seed) ^ (j+1) * stride)``."""
    seed_key = _splitmix64(_U64(seed & _MASK64))
    mixed = np.array([(j + 1) * stride & _MASK64 for j in range(d)], dtype=np.uint64)
    return _splitmix64(seed_key ^ mixed)


def _flip_table(dim_key, depth: int) -> np.ndarray:
    """Flip masks of the top ``depth`` bits for every ``depth``-bit prefix.

    Entry ``q`` holds the flip of level ``k`` at bit ``depth - k``.  Level
    ``k`` hashes only its ``2^(k-1)`` distinct prefixes, and each entry of
    the level below inherits the flips of its parent ``q >> 1``.
    """
    table = np.zeros(1, dtype=np.uint32)
    for k in range(1, depth + 1):
        level_key = _splitmix64(dim_key ^ _U64(k))
        prefixes = np.arange(1 << (k - 1), dtype=np.uint64)
        flips = (_splitmix64(level_key ^ prefixes) & _U64(1)).astype(np.uint32)
        table = np.repeat((table << np.uint32(1)) | flips, 2)
    return table


def owen_scramble(raw, seed: int, bits: int = SOBOL_BITS) -> np.ndarray:
    """Nested uniform scrambling of base-2 digital points.

    ``raw`` holds ``(n, d)`` nonnegative integer fractions below ``2^bits``.
    The flip of bit ``k`` of a coordinate is a hash of (seed, dimension,
    level, the k-1 more-significant bits), so equal prefixes always receive
    equal flips and no permutation tree needs to be stored.  The flips of
    the top ``K = min(bits, bit_length(n - 1), 20)`` bits depend on those
    bits alone; they come from one table per coordinate
    (:func:`_flip_table`, about ``2^K`` hashes) by a gather, and the lower
    levels are hashed for all coordinates at once in row blocks.
    """
    raw = np.asarray(raw)
    if raw.ndim != 2:
        raise ValueError(f"raw must be an (n, d) array, got shape {raw.shape}")
    if not np.issubdtype(raw.dtype, np.integer):
        raise ValueError(f"raw must hold integers, got dtype {raw.dtype}")
    if not 1 <= bits <= 63:
        raise ValueError(f"bits must be in 1..63, got {bits}")
    if raw.size and raw.min() < 0:
        raise ValueError("raw must be nonnegative")
    if raw.size and int(raw.max()) >= (1 << bits):
        raise ValueError(f"raw values must be < 2^{bits}")
    n, d = raw.shape
    if not raw.size:
        return np.empty((n, d), dtype=np.float64)
    return _fill_rows(_owen_kernel(seed, d, bits, n), n, d, _BLOCK_ROWS, indices=raw)


def _owen_kernel(seed: int, d: int, bits: int, n: int):
    """``fill(x, block)`` Owen-scrambles the integer words ``x`` into ``block``,
    with prefix tables sized for ``n`` rows in all."""
    dim_keys = _column_keys(seed, d, 0x9E3779B97F4A7C15)
    depth = min(bits, (n - 1).bit_length(), 20)
    tables = np.empty(d << depth, dtype=np.uint32)  # one table per coordinate
    for j, key in enumerate(dim_keys):
        tables[j << depth : (j + 1) << depth] = _flip_table(key, depth)
    # offset of each coordinate's table, added to the prefix it is indexed by
    offsets = np.arange(d, dtype=np.uint64) << _U64(depth)
    levels = [(k, _splitmix64(dim_keys ^ _U64(k))) for k in range(depth + 1, bits + 1)]
    rows = min(n, _BLOCK_ROWS)
    mask, h, tmp = (np.empty((rows, d), dtype=np.uint64) for _ in range(3))
    top = np.empty((rows, d), dtype=np.uint32)

    def fill(x, block):
        m = len(block)
        x = x.astype(np.uint64, copy=False)
        bm, bh, bt = mask[:m], h[:m], tmp[:m]
        np.right_shift(x, _U64(bits - depth), out=bh)
        bh += offsets
        np.take(tables, bh, out=top[:m])
        np.left_shift(top[:m], _U64(bits - depth), out=bm)
        for k, level_keys in levels:
            np.right_shift(x, _U64(bits - k + 1), out=bh)
            bh ^= level_keys
            _splitmix64_inplace(bh, bt)
            bh &= _U64(1)
            bh <<= _U64(bits - k)
            bm ^= bh
        bm ^= x
        np.multiply(bm, 2.0**-bits, out=block)

    return fill


def _uniform_kernel(seed: int, dim: int, n: int):
    """Counter-based uniform variates, a pure hash of (seed, index, coord)."""
    dim_keys = _column_keys(seed, dim, 0xD1B54A32D192ED03)
    h, tmp = (np.empty((min(n, _BLOCK_ROWS), dim), dtype=np.uint64) for _ in range(2))

    def kernel(idx, block):
        m = len(block)
        bh = h[:m]
        np.multiply(idx.astype(np.uint64)[:, None], _U64(0x9E3779B97F4A7C15), out=bh)
        bh ^= dim_keys
        _splitmix64_inplace(bh, tmp[:m])
        bh >>= _U64(11)
        np.multiply(bh, 2.0**-53, out=block)

    return kernel


# ---------------------------------------------------------------------------
# sequence descriptions and the one-stop generator

@dataclass(frozen=True)
class SequenceSpec:
    """What to generate: a kind, a dimension, a burn-in, and (when the kind
    is randomized) a seed, or (when neural) a model path."""

    kind: str
    dim: int
    burn_in: int = 0
    seed: int | None = None
    model_path: str | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown sequence kind {self.kind!r}; expected one of {KINDS}")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.burn_in < 0:
            raise ValueError("burn_in must be >= 0")
        if self.kind == "vdc" and self.dim != 1:
            raise ValueError("van der Corput is one-dimensional")
        if self.kind in RANDOMIZED_KINDS:
            if self.seed is None:
                raise ValueError(f"kind {self.kind!r} requires a seed")
        elif self.seed is not None:
            raise ValueError(f"kind {self.kind!r} is deterministic; seed must be None")
        if self.kind == "neural":
            if not self.model_path:
                raise ValueError("kind 'neural' requires model_path")
        elif self.model_path is not None:
            raise ValueError("model_path only applies to kind 'neural'")


def generate(spec: SequenceSpec, n: int) -> np.ndarray:
    """Points for raw indices ``burn_in .. burn_in + n - 1`` as an (n, d) array.

    Raw index 0 is the origin point of the classical constructions; the
    neural sequence is 1-indexed, so its raw indices are shifted by one.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    last = spec.burn_in + n - 1 + (spec.kind == "neural")  # a neural model takes raw index + 1
    if last >= 1 << 63:
        raise ValueError(f"the largest index {last} does not fit in int64 (burn_in={spec.burn_in}, n={n})")
    rows = _BLOCK_ROWS
    if spec.kind in ("vdc", "halton"):
        rows, kernel = _HALTON_ROWS, _radical_inverse_kernel(primes(spec.dim), n)
    elif spec.kind in ("sobol", "sobol-scrambled"):
        VT = _sobol_directions(spec.dim, None, spec.burn_in + n - 1)
        finish = _to_unit if spec.kind == "sobol" else _owen_kernel(spec.seed, spec.dim, SOBOL_BITS, n)
        kernel = _sobol_kernel(n, VT, finish)
    elif spec.kind == "uniform":
        kernel = _uniform_kernel(spec.seed, spec.dim, n)
    else:
        from . import neuralnet

        model = neuralnet.load_model(spec.model_path)
        if model.out_dim != spec.dim:
            raise ValueError(
                f"model at {spec.model_path} generates dimension {model.out_dim}, "
                f"spec asks for {spec.dim}"
            )
        # one block: BLAS picks its kernels by the matrix sizes, so smaller
        # products could round differently.  The model consumes 1-based indices.
        rows = n

        def kernel(idx, block):
            block[...] = neuralnet.forward(model, idx + 1)

    return _fill_rows(kernel, n, spec.dim, rows, first=spec.burn_in)


# ---------------------------------------------------------------------------
# point file formats

POINT_MAGIC = b"LDP1"
_POINT_HEADER = struct.Struct("<4sIII")  # magic, version, n, d


def save_points_csv(points: np.ndarray, path) -> None:
    """One point per row, 17-significant-digit decimals (lossless for f64)."""
    np.savetxt(path, np.atleast_2d(points), fmt="%.17g", delimiter=",")


def unit_cube_points(points) -> np.ndarray:
    """``points`` as a float64 (n, d) array, or a ValueError naming the first
    point that is not a finite point of the unit cube [0, 1]^d."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.size == 0:
        raise ValueError("points must be a nonempty (n, d) array")
    if not (pts.min() >= 0.0 and pts.max() <= 1.0):  # nan fails both
        row = int(np.argmax(~((pts >= 0.0) & (pts <= 1.0)).all(axis=1)))
        problem = ("lies outside the unit cube [0, 1]^d" if np.isfinite(pts[row]).all()
                   else "has non-finite coordinates")
        raise ValueError(f"point {row + 1} {pts[row].tolist()} {problem}")
    return pts


def load_points_csv(path) -> np.ndarray:
    with open(path, "rb") as fh:
        if not any(line.split(b"#", 1)[0].strip() for line in fh):  # '#' starts a comment
            raise ValueError(f"{path}: point file is empty")
    try:
        return unit_cube_points(np.loadtxt(path, delimiter=",", ndmin=2))
    except ValueError as exc:  # a ragged row, a cell that is not a number, or a bad point
        raise ValueError(f"{path}: {exc}") from None


def save_points_bin(points: np.ndarray, path) -> None:
    pts = np.ascontiguousarray(np.atleast_2d(points), dtype="<f8")
    n, d = pts.shape
    with open(path, "wb") as fh:
        fh.write(_POINT_HEADER.pack(POINT_MAGIC, 1, n, d))
        fh.write(pts.tobytes())


def load_points_bin(path) -> np.ndarray:
    data = Path(path).read_bytes()
    if len(data) < _POINT_HEADER.size:
        raise ValueError(
            f"{path}: {len(data)} bytes is shorter than the "
            f"{_POINT_HEADER.size}-byte point-file header"
        )
    magic, version, n, d = _POINT_HEADER.unpack_from(data)
    if magic != POINT_MAGIC:
        raise ValueError(f"{path}: not a point file (bad magic)")
    if version != 1:
        raise ValueError(f"{path}: unsupported point-file version {version}")
    if (len(data) - _POINT_HEADER.size) % 8:
        raise ValueError(f"{path}: body is not a whole number of float64 values")
    body = np.frombuffer(data, dtype="<f8", offset=_POINT_HEADER.size)
    if body.size != n * d:
        raise ValueError(f"{path}: truncated point file")
    try:
        return unit_cube_points(body.reshape(n, d).copy())
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def load_points(path) -> np.ndarray:
    """Load either format, sniffing the binary magic."""
    with open(path, "rb") as fh:
        head = fh.read(4)
    if head == POINT_MAGIC:
        return load_points_bin(path)
    return load_points_csv(path)
