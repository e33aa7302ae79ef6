"""Edge colourings of complete graphs, with bitset neighbourhoods.

A colouring stores the colour of each unordered pair once (upper triangle,
row-major) and additionally caches, for every colour ``i`` and vertex ``v``,
the neighbourhood ``N_i(v)`` as an int bitmask, so codegree queries cost one
``&`` and one popcount.

Vertex sets throughout the package are plain Python ints used as bitmasks
over ``[0, n)``; the small helpers for building and unpacking them live here,
and ``EdgeColouring.check_vertices`` and ``check_colour`` are the one vertex
rule and the one colour rule that every public function applies to its inputs.

Memory: a colouring holds its n(n-1)/2 colour bytes and r n-bit masks per
vertex.  Building one takes a single n x n byte matrix besides them, and
reading or writing the ``.rcg`` text (about n^2 bytes) peaks at about twice
the text, because each step holds one text-sized buffer at a time.
"""

from __future__ import annotations

import hashlib
import random
from pathlib import Path

from .errors import (
    InvalidBook,
    InvalidColour,
    InvalidInput,
    InvalidPair,
    InvalidVertex,
    ParseError,
)

MAX_COLOURS = 64

# byte c <-> the digit that writes colour c, for the colours 0-9
_DIGITS = bytes.maketrans(bytes(range(10)), b"0123456789")
_VALUES = bytes.maketrans(b"0123456789", bytes(range(10)))
_ASCII = bytes(range(128))


def full_mask(n: int) -> int:
    """Bitmask of all vertices 0..n-1."""
    return (1 << n) - 1


def mask_of(vertices) -> int:
    """Bitmask with exactly the given vertices set; a negative vertex is InvalidVertex."""
    m = 0
    for v in vertices:
        if v < 0:
            raise InvalidVertex(f"vertex {v} is negative")
        m |= 1 << v
    return m


def iter_vertices(mask: int):
    """Yield the members of a bitmask in ascending order.  A negative int,
    which has infinitely many bits set, is InvalidVertex."""
    if mask < 0:
        raise InvalidVertex(f"vertex set {mask} is negative")
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def vertex_list(mask: int) -> list[int]:
    return list(iter_vertices(mask))


def pair_index(n: int, u: int, v: int) -> int:
    """Index of the unordered pair {u, v} (u < v required) in row-major order."""
    return u * n - (u * (u + 1)) // 2 + (v - u - 1)


def check_size(n: int, r: int) -> None:
    """The size rule of every colouring, read, built or named in a trace header:
    n >= 1 vertices and r in [1, MAX_COLOURS] colours, else InvalidInput."""
    if n < 1:
        raise InvalidInput(f"need at least one vertex, got n={n}")
    if not 1 <= r <= MAX_COLOURS:
        raise InvalidInput(f"colour count must be in [1, {MAX_COLOURS}], got r={r}")


class EdgeColouring:
    """An r-colouring of the edges of the complete graph on n vertices.

    Immutable after construction; all queries are safe for concurrent readers.
    """

    __slots__ = ("n", "r", "_tri", "_neigh", "_sha256")

    def __init__(self, n: int, r: int, triangle):
        check_size(n, r)
        try:
            tri = bytes(triangle)
        except ValueError:  # an int outside [0, 256)
            raise InvalidColour(f"edge colour out of range [0, {r})") from None
        expected = n * (n - 1) // 2
        if len(tri) != expected:
            raise InvalidInput(f"expected {expected} edge colours for n={n}, got {len(tri)}")
        if tri.translate(None, bytes(range(r))):
            raise InvalidColour(f"edge colour out of range [0, {r})")
        self.n = n
        self.r = r
        self._tri = tri
        self._sha256 = None  # set by parse_colouring, or on the first sha256()
        # the symmetric n x n colour matrix, 0xff on the diagonal: row u of the
        # upper triangle goes in as row u right of the diagonal and, by one
        # extended slice, as column u below it
        full = bytearray(b"\xff") * (n * n)
        idx = 0
        for u in range(n - 1):
            row = tri[idx : idx + n - 1 - u]
            idx += n - 1 - u
            full[u * n + u + 1 : (u + 1) * n] = row
            full[(u + 1) * n + u :: n] = row
        # reversed, and translated by a table that maps byte i to "1" and
        # every other byte to "0", the matrix holds N_i(v) in binary at row
        # n - 1 - v; each row is translated on its own, so no second n x n
        # buffer is made
        full.reverse()
        self._neigh = []
        for i in range(r):
            table = b"0" * i + b"1" + b"0" * (255 - i)
            self._neigh.append([int(full[k : k + n].translate(table), 2) for k in range((n - 1) * n, -1, -n)])

    @property
    def vertices(self) -> int:
        return full_mask(self.n)

    def check_colour(self, i: int) -> None:
        """The colour rule: a colour lies in [0, r), else InvalidColour."""
        if not 0 <= i < self.r:
            raise InvalidColour(f"colour {i} out of range [0, {self.r})")

    def check_vertices(self, name: str, mask: int) -> None:
        """The vertex rule: a vertex set has no vertex outside [0, n), else
        InvalidVertex naming it.  Every negative int breaks it, since it
        shifts to -1."""
        if mask >> self.n:
            raise InvalidVertex(f"{name} contains vertices out of range [0, {self.n})")

    def colour(self, u: int, v: int) -> int:
        """Colour of the edge {u, v}; symmetric in its arguments."""
        if u == v:
            raise InvalidPair(f"self-loop {u} has no colour")
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise InvalidPair(f"pair ({u}, {v}) out of range [0, {self.n})")
        if u > v:
            u, v = v, u
        return self._tri[pair_index(self.n, u, v)]

    def neighbourhood(self, v: int, i: int) -> int:
        """Bitmask of N_i(v).  The r neighbourhoods of v are disjoint and cover V \\ {v}."""
        if not 0 <= v < self.n:
            raise InvalidVertex(f"vertex {v} out of range [0, {self.n})")
        self.check_colour(i)
        return self._neigh[i][v]

    def is_mono_clique(self, subset: int, i: int) -> bool:
        """True iff every pair inside ``subset`` has colour i (vacuous for size <= 1)."""
        self.check_colour(i)
        self.check_vertices("subset", subset)
        for v in iter_vertices(subset):
            if subset & ~self._neigh[i][v] & ~(1 << v):
                return False
        return True

    def is_mono_book(self, spine: int, pages: int, i: int) -> bool:
        """True iff ``spine`` is an i-clique and every spine-page edge has colour i.

        Edges inside ``pages`` are unconstrained.  Spine and pages must be
        disjoint vertex sets.
        """
        if spine & pages:
            raise InvalidBook("spine and pages overlap")
        clique = self.is_mono_clique(spine, i)  # checks i and the spine
        self.check_vertices("pages", pages)
        return clique and not any(pages & ~self._neigh[i][v] for v in iter_vertices(spine))

    def serialize(self) -> str:
        """The ``.rcg`` text: the header ``n r``, then row u's colours of the
        pairs {u, v}, v > u, separated by single spaces."""
        return self._rcg().decode("ascii")

    def sha256(self) -> str:
        """SHA-256 of the colouring's one ``.rcg`` text, ``serialize()``."""
        if self._sha256 is None:
            self._sha256 = hashlib.sha256(self._rcg()).hexdigest()
        return self._sha256

    def _rcg(self) -> bytearray:
        """The ``.rcg`` text as ASCII bytes, written into one buffer.

        When every colour is a single digit, each field of the body takes two
        bytes with its separator, so the body is the digits at the even offsets
        and :func:`_separators` at the odd ones; any colour of 10 or more is
        written row by row.
        """
        n, tri = self.n, self._tri
        head = f"{n} {self.r}\n".encode("ascii")
        if not tri.translate(None, bytes(range(10))):  # no colour >= 10
            out = bytearray(len(head) + 2 * len(tri))
            out[: len(head)] = head
            out[len(head) :: 2] = tri.translate(_DIGITS)
            out[len(head) + 1 :: 2] = _separators(n)
            return out
        names = [str(c).encode("ascii") for c in range(self.r)]
        out = bytearray(head)
        idx = 0
        for u in range(n - 1):
            out += b" ".join(map(names.__getitem__, tri[idx : idx + n - 1 - u]))
            out += b"\n"
            idx += n - 1 - u
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, EdgeColouring):
            return NotImplemented
        return self.n == other.n and self.r == other.r and self._tri == other._tri

    def __hash__(self) -> int:
        return hash((self.n, self.r, self._tri))

    def __repr__(self) -> str:
        return f"EdgeColouring(n={self.n}, r={self.r})"


def _separators(n: int) -> bytearray:
    """The byte after each field of a body of single-digit fields: a space, or
    the newline that ends the field's row."""
    seps = bytearray(b" ") * (n * (n - 1) // 2)
    end = -1
    for k in range(n - 1, 0, -1):
        end += k
        seps[end] = ord("\n")
    return seps


def from_pair_function(n: int, r: int, colour_of) -> EdgeColouring:
    """Build a colouring from a callable on ordered pairs u < v."""
    return EdgeColouring(n, r, [colour_of(u, v) for u in range(n - 1) for v in range(u + 1, n)])


def pentagon_colouring() -> EdgeColouring:
    """The C5 fixture: n=5, r=2; pentagon edges {i, i+1 mod 5} colour 0, diagonals colour 1."""
    def col(u, v):
        return 0 if (v - u) % 5 in (1, 4) else 1
    return from_pair_function(5, 2, col)


def random_colouring(n: int, r: int, seed: int) -> EdgeColouring:
    """Each edge gets an i.i.d. uniform colour in [0, r); deterministic in ``seed``.

    Edge j in row-major order (the order of :func:`pair_index`) gets the j-th
    value of ``random.Random(seed).randrange(r)``.  The seed must be at least
    0, since ``Random(-s)`` draws the same stream as ``Random(s)``.
    """
    check_size(n, r)
    if seed < 0:
        raise InvalidInput(f"seed must be at least 0, got {seed}")
    # randrange(r) takes the top k bits of one 32-bit Mersenne Twister word
    # and draws again while they are >= r.  The little-endian bytes of
    # getrandbits(32 * w) are the next w words in order, so their top bytes,
    # less the rejected ones and shifted down to k bits, are the same draws.
    k = r.bit_length()
    top_k = bytes(b >> (8 - k) for b in range(256))
    reject = bytes(b for b in range(256) if b >> (8 - k) >= r)
    rng = random.Random(seed)
    m = n * (n - 1) // 2
    tri = bytearray()
    while len(tri) < m:
        # at least half the words are accepted; 2^16 words bound the transient
        w = min(2 * (m - len(tri)), 1 << 16)
        tri += rng.getrandbits(32 * w).to_bytes(4 * w, "little")[3::4].translate(top_k, reject)
    del tri[m:]
    tri = bytes(tri)  # frees the bytearray before the n x n matrix is built
    return EdgeColouring(n, r, tri)


def product_colouring(c1: EdgeColouring, c2: EdgeColouring) -> EdgeColouring:
    """Product construction on vertex pairs (a, b) ~ a*n2 + b.

    The edge {(a,b), (a',b')} gets colour ``c1.colour(a, a')`` when a != a',
    and ``c1.r + c2.colour(b, b')`` otherwise.  A monochromatic clique in a
    first-block colour projects injectively to an equally large clique of c1,
    and likewise for second-block colours and c2.
    """
    n1, n2, r1 = c1.n, c2.n, c1.r
    if r1 + c2.r > MAX_COLOURS:
        raise InvalidInput("product would exceed the colour-count cap")
    # row (a, b) of the product's triangle is row b of c2, shifted by r1,
    # followed by row a of c1 with each colour repeated n2 times
    shifted = c2._tri.translate(bytes.maketrans(bytes(range(c2.r)), bytes(range(r1, r1 + c2.r))))
    rows2 = []
    idx = 0
    for b in range(n2):
        rows2.append(shifted[idx : idx + n2 - 1 - b])
        idx += n2 - 1 - b
    tri = bytearray()
    idx = 0
    for a in range(n1):
        row1 = c1._tri[idx : idx + n1 - 1 - a]
        idx += n1 - 1 - a
        later = bytearray(len(row1) * n2)
        for j in range(n2):
            later[j::n2] = row1
        for row2 in rows2:
            tri += row2
            tri += later
    return EdgeColouring(n1 * n2, r1 + c2.r, tri)


def read_ascii(path) -> bytes:
    """The bytes of a file, checked to be ASCII; a non-ASCII byte is a ParseError naming its line."""
    data = Path(path).read_bytes()
    _check_ascii(data)
    return data


def _check_ascii(data: bytes) -> None:
    if not data.isascii():
        start = len(data) - len(data.lstrip(_ASCII))
        raise ParseError(f"non-ASCII byte {data[start]:#04x}", line=data.count(b"\n", 0, start) + 1)


def parse_colouring(text: str | bytes) -> EdgeColouring:
    """Parse the ``.rcg`` text format, given as a str or as its ASCII bytes.
    Raises ParseError with the offending line.

    Every number must be written as ``str`` writes it (no sign, leading zero,
    underscore or stray whitespace), so each colouring has exactly one text,
    and the colouring's ``sha256()`` is taken from the text read.

    A str is encoded once, as UTF-8, so that a non-ASCII character stays
    whole for the error that names it; bytes are read as they are.  A body in
    the single-digit layout that ``serialize`` writes (digits below r at the
    even offsets, its separators at the odd ones) is checked and read on
    strided slices of those bytes; any other body, with two-digit colours or
    an error, is decoded, split into lines and read row by row, which names
    the first bad row and field.
    """
    if isinstance(text, str):
        data = text.encode("utf-8", "surrogatepass")
    else:
        _check_ascii(text)
        data = text
    if not data.endswith(b"\n"):
        raise ParseError("missing trailing newline")
    header = data[: data.index(b"\n")].decode("utf-8", "surrogatepass")
    head = header.split(" ")
    if len(head) != 2:
        raise ParseError("header must be 'n r'", line=1)
    try:
        n, r = int(head[0]), int(head[1])
    except ValueError:
        raise ParseError("header must contain two integers", line=1) from None
    if n < 1 or not 1 <= r <= MAX_COLOURS:
        raise ParseError(f"invalid header values n={n} r={r}", line=1)
    if header != f"{n} {r}":
        raise ParseError(f"header {header!r} is not written as {f'{n} {r}'!r}", line=1)
    lines = data.count(b"\n")
    if lines != n:
        raise ParseError(f"expected {n - 1} rows after the header, got {lines - 1}", line=lines)
    tri = _read_body(data, len(header) + 1, n, r)
    digest = hashlib.sha256(data).hexdigest()
    del text, data  # the bytes, and bytes passed in that no caller keeps, go before the n x n matrix is built
    c = EdgeColouring(n, r, tri)
    c._sha256 = digest
    return c


def _read_body(data: bytes, start: int, n: int, r: int) -> bytes:
    """The colours of the rows of ``data``, whose body begins at ``start``.
    Every part of the text is checked to be canonical, so the SHA-256 of
    ``data`` is that of ``serialize()``."""
    # a byte above 0x7f, part of a non-ASCII character, is neither a digit nor
    # a separator, so such a body always takes the row loop, which rejects it
    if len(data) - start == n * (n - 1) and data[start + 1 :: 2] == _separators(n):
        digits = data[start::2]
        if not digits.translate(None, b"0123456789"[: min(r, 10)]):
            return digits.translate(_VALUES)
    return _read_rows(data.decode("utf-8", "surrogatepass").split("\n")[:-1], r)


def _read_rows(lines: list[str], r: int) -> bytearray:
    """The colours of the rows ``lines[1:]``, read field by field; a ParseError
    names the first row with a wrong field count or a bad field."""
    n = len(lines)
    # the keys are exactly the canonical spellings of [0, r), so one lookup
    # checks a field's range and spelling
    colour_of = {str(c): c for c in range(r)}.__getitem__
    tri = bytearray()
    for u in range(n - 1):
        lineno = u + 2
        line = lines[u + 1]
        fields = line.split(" ") if line else []
        k = n - 1 - u
        if len(fields) != k:
            raise ParseError(f"row {u} must have {k} entries, got {len(fields)}", line=lineno)
        try:
            tri += bytes(map(colour_of, fields))
        except KeyError:
            raise ParseError(_bad_field(fields, r), line=lineno) from None
    return tri


def _bad_field(fields, r: int) -> str:
    """The message for the first field of a row that is not a colour in [0, r),
    or else for the first one not written canonically."""
    for f in fields:
        try:
            c = int(f)
        except ValueError:
            return f"bad colour value {f!r}"
        if not 0 <= c < r:
            return f"colour {c} out of range [0, {r})"
    for f in fields:
        if f != str(int(f)):
            return f"colour value {f!r} is not written as {str(int(f))!r}"
