import hashlib
import itertools
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ramseybook.cli import _load_colouring
from ramseybook.colouring import (
    MAX_COLOURS,
    EdgeColouring,
    from_pair_function,
    full_mask,
    iter_vertices,
    mask_of,
    parse_colouring,
    product_colouring,
    random_colouring,
    vertex_list,
)
from ramseybook.errors import (
    InvalidBook,
    InvalidColour,
    InvalidInput,
    InvalidPair,
    InvalidVertex,
    ParseError,
)


def reference_neighbourhoods(n, r, tri):
    """N_i(v) for every colour and vertex, built with two ``|=`` per edge (the
    loop EdgeColouring's bulk build replaced)."""
    neigh = [[0] * n for _ in range(r)]
    idx = 0
    for u in range(n - 1):
        for v in range(u + 1, n):
            c = tri[idx]
            idx += 1
            neigh[c][u] |= 1 << v
            neigh[c][v] |= 1 << u
    return neigh


def reference_row(fields, r):
    """The colours of one parsed row, or the message of its first bad field
    (the per-field loop parse_colouring's bulk parse replaced).  Only when
    every field is a colour in [0, r) does a field spelled otherwise than
    str() spells it (sign, leading zero, underscore, whitespace) count as bad."""
    row = []
    for f in fields:
        try:
            c = int(f)
        except ValueError:
            return f"bad colour value {f!r}"
        if not 0 <= c < r:
            return f"colour {c} out of range [0, {r})"
        row.append(c)
    for f, c in zip(fields, row):
        if f != str(c):
            return f"colour value {f!r} is not written as {str(c)!r}"
    return row


def reference_random(n, r, seed):
    """The colours random_colouring draws, one randrange call per edge (the
    loop its batched draw replaced)."""
    rng = random.Random(seed)
    return bytes(rng.randrange(r) for _ in range(n * (n - 1) // 2))


def reference_serialize(n, r, tri):
    """The .rcg text written row by row with one join per row (the only path
    serialize keeps, for colourings with a colour of 10 or more)."""
    lines, idx = [f"{n} {r}"], 0
    for u in range(n - 1):
        lines.append(" ".join(map(str, tri[idx : idx + n - 1 - u])))
        idx += n - 1 - u
    return "\n".join(lines) + "\n"


def reference_product(c1, c2):
    """The product colouring built with one ``c1.colour`` or ``c2.colour`` call
    per pair (the callback product_colouring's row copies replaced)."""
    n2 = c2.n

    def col(x, y):
        a, b = divmod(x, n2)
        a2, b2 = divmod(y, n2)
        if a != a2:
            return c1.colour(a, a2)
        return c1.r + c2.colour(b, b2)

    return from_pair_function(c1.n * n2, c1.r + c2.r, col)


def traced_peak(call):
    """The tracemalloc peak, in bytes, of the allocations ``call()`` makes.

    An untraced warm-up call comes first.  It leaves CPython's free lists
    (of lists, tuples, dicts ...) holding what a call takes from them, so the
    traced call allocates none of those objects anew; otherwise a peak counts
    them or not by the state the code run before left, a few hundred bytes.
    """
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def reference_parse(text):
    """What reading a text with a canonical header row by row gives: its
    colours, or the (line, message) of the first ParseError."""
    lines = text.split("\n")[:-1]
    n, r = map(int, lines[0].split(" "))
    if len(lines) != n:
        return len(lines), f"expected {n - 1} rows after the header, got {len(lines) - 1}"
    tri = []
    for u, line in enumerate(lines[1:]):
        fields = line.split(" ") if line else []
        if len(fields) != n - 1 - u:
            return u + 2, f"row {u} must have {n - 1 - u} entries, got {len(fields)}"
        got = reference_row(fields, r)
        if isinstance(got, str):
            return u + 2, got
        tri += got
    return bytes(tri)


@st.composite
def small_colourings(draw):
    """(n, r, colours) with n <= 14 and every colour below a drawn top <= r:
    a top of at most 10 writes every colour as one digit, also when r > 10."""
    n = draw(st.integers(1, 14))
    r = draw(st.integers(1, MAX_COLOURS))
    top = draw(st.integers(1, r))
    m = n * (n - 1) // 2
    return n, r, bytes(draw(st.lists(st.integers(0, top - 1), min_size=m, max_size=m)))


class TestColour:
    def test_pentagon_edge(self, c5):
        assert c5.colour(0, 1) == 0

    def test_pentagon_diagonal(self, c5):
        assert c5.colour(0, 2) == 1

    def test_symmetric(self, c5):
        for u in range(5):
            for v in range(5):
                if u != v:
                    assert c5.colour(u, v) == c5.colour(v, u)

    def test_self_loop_rejected(self, c5):
        with pytest.raises(InvalidPair):
            c5.colour(3, 3)

    def test_out_of_range_rejected(self, c5):
        with pytest.raises(InvalidPair):
            c5.colour(0, 5)


class TestNeighbourhood:
    def test_pentagon_neighbours(self, c5):
        assert vertex_list(c5.neighbourhood(0, 0)) == [1, 4]
        assert vertex_list(c5.neighbourhood(0, 1)) == [2, 3]

    def test_single_vertex(self):
        c = EdgeColouring(1, 3, b"")
        assert c.neighbourhood(0, 0) == 0
        assert c.neighbourhood(0, 2) == 0

    def test_bad_colour(self, c5):
        with pytest.raises(InvalidColour):
            c5.neighbourhood(0, 2)

    def test_bad_vertex(self, c5):
        with pytest.raises(InvalidVertex):
            c5.neighbourhood(9, 0)

    def test_partition(self):
        c = random_colouring(37, 3, 11)
        for v in range(c.n):
            union = 0
            total = 0
            for i in range(c.r):
                nb = c.neighbourhood(v, i)
                assert nb & union == 0
                union |= nb
                total += nb.bit_count()
            assert union == c.vertices & ~(1 << v)
            assert total == c.n - 1


    @given(st.integers(1, 40), st.integers(1, MAX_COLOURS), st.randoms(use_true_random=False))
    @settings(max_examples=200, deadline=None)
    def test_matches_per_edge_build(self, n, r, rnd):
        # r >= 11 has two-digit colours, which the serialized text must keep
        tri = bytes(rnd.randrange(r) for _ in range(n * (n - 1) // 2))
        c = EdgeColouring(n, r, tri)
        want = reference_neighbourhoods(n, r, tri)
        assert [[c.neighbourhood(v, i) for v in range(n)] for i in range(r)] == want
        parsed = parse_colouring(c.serialize())
        assert parsed == c and parsed.sha256() == c.sha256()

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("r", [1, 2, 10, 11])
    def test_smallest_round_trips(self, n, r):
        # r = 10 is the largest r whose text is all single digits; r = 11 is
        # written and read row by row
        tri = bytes((r - 1 - j) % r for j in range(n * (n - 1) // 2))
        c = EdgeColouring(n, r, tri)
        assert [[c.neighbourhood(v, i) for v in range(n)] for i in range(r)] == reference_neighbourhoods(n, r, tri)
        parsed = parse_colouring(c.serialize())
        assert parsed == c and parsed.sha256() == c.sha256()


class TestVertexSets:
    def test_mask_round_trip(self):
        assert vertex_list(mask_of([5, 0, 3])) == [0, 3, 5]

    def test_negative_set_is_invalid_vertex(self):
        # -1 has infinitely many bits set, so a loop over its members would never end
        with pytest.raises(InvalidVertex):
            next(iter_vertices(-1))

    def test_negative_vertex_is_invalid_vertex(self):
        # 1 << -1 is a bare ValueError, "negative shift count"
        with pytest.raises(InvalidVertex):
            mask_of([2, -1])


class TestMonoPredicates:
    def test_clique_edge(self, c5):
        assert c5.is_mono_clique(mask_of([0, 1]), 0)

    def test_clique_broken_by_diagonal(self, c5):
        assert not c5.is_mono_clique(mask_of([0, 1, 2]), 0)

    def test_clique_vacuous(self, c5):
        assert c5.is_mono_clique(0, 0)
        assert c5.is_mono_clique(0, 1)

    def test_book_valid(self, c5):
        assert c5.is_mono_book(mask_of([0]), mask_of([1, 4]), 0)

    def test_book_wrong_colour_page(self, c5):
        assert not c5.is_mono_book(mask_of([0]), mask_of([1, 2]), 0)

    def test_book_vacuous(self, c5):
        assert c5.is_mono_book(0, mask_of([1, 2]), 0)

    def test_book_overlap_rejected(self, c5):
        with pytest.raises(InvalidBook):
            c5.is_mono_book(mask_of([0, 1]), mask_of([1]), 0)

    def test_book_pages_unconstrained_inside(self, c5):
        # pages {1,4} carry a colour-1 edge; book in colour 0 is still fine
        assert c5.colour(1, 4) == 1
        assert c5.is_mono_book(mask_of([0]), mask_of([1, 4]), 0)


class TestRandomColouring:
    def test_single_colour(self):
        c = random_colouring(2, 1, 7)
        assert c.colour(0, 1) == 0

    def test_deterministic(self):
        assert random_colouring(5, 2, 123) == random_colouring(5, 2, 123)

    def test_concentration(self):
        c = random_colouring(40, 2, 9)
        zeros = sum(
            1 for u in range(40) for v in range(u + 1, 40) if c.colour(u, v) == 0
        )
        frac = zeros / (40 * 39 / 2)
        assert 0.4 <= frac <= 0.6

    @pytest.mark.parametrize("r", [1, 2, 3, 4, 5, 8, 9, 16, 17, 63, 64])
    def test_draws_the_randrange_stream(self, r):
        # n = 400 has 79800 edges, more than one draw of at most 2^16 words gives
        for n in (1, 2, 3, 50, 400):
            for seed in (0, 1, 2**40 + 3):
                assert random_colouring(n, r, seed)._tri == reference_random(n, r, seed), (n, seed)

    @pytest.mark.parametrize(
        "n, r, seed, digest",
        [
            (60, 2, 7, "738e545bec538f8d"),  # README's generate example
            (1000, 3, 1, "9c948ddd61b9aa76"),
            (30, 64, 5, "5ff1265d93d5a39b"),
            (700, 2, 12345, "2c6e8198f378b82a"),
        ],
    )
    def test_pinned_digests(self, n, r, seed, digest):
        assert random_colouring(n, r, seed).sha256()[:16] == digest

    @pytest.mark.parametrize("seed", [-1, -5])
    def test_negative_seed_rejected(self, seed):
        # Random(-s) seeds the same stream as Random(s)
        with pytest.raises(InvalidInput, match="seed must be at least 0"):
            random_colouring(5, 2, seed)


class TestProductColouring:
    def test_single_edges(self):
        e = EdgeColouring(2, 1, b"\x00")
        p = product_colouring(e, e)
        assert p.n == 4 and p.r == 2
        # brute force: no colour contains a triangle, both contain an edge
        for colour in range(2):
            best = 1
            for size in (3, 2):
                for combo in itertools.combinations(range(4), size):
                    if all(p.colour(u, v) == colour for u, v in itertools.combinations(combo, 2)):
                        best = max(best, size)
                        break
            assert best == 2

    def test_degenerate_factor(self, c5):
        one = EdgeColouring(1, 1, b"")
        p = product_colouring(c5, one)
        assert p.n == 5 and p.r == 3
        for u in range(5):
            for v in range(u + 1, 5):
                assert p.colour(u, v) == c5.colour(u, v)

    def test_c5_squared_triangle_free_in_factor_colours(self, c5):
        p = product_colouring(c5, c5)
        assert p.n == 25 and p.r == 4
        for colour in (0, 1):
            for combo in itertools.combinations(range(25), 3):
                assert not all(
                    p.colour(u, v) == colour for u, v in itertools.combinations(combo, 2)
                )

    def test_projection_soundness(self):
        c1 = random_colouring(5, 2, 2)
        c2 = random_colouring(4, 2, 3)
        p = product_colouring(c1, c2)
        for combo in itertools.combinations(range(p.n), 3):
            for colour in range(p.r):
                if all(p.colour(u, v) == colour for u, v in itertools.combinations(combo, 2)):
                    if colour < c1.r:
                        proj = {x // c2.n for x in combo}
                        assert len(proj) == 3
                        assert all(
                            c1.colour(u, v) == colour
                            for u, v in itertools.combinations(sorted(proj), 2)
                        )
                    else:
                        proj = {x % c2.n for x in combo}
                        assert len(proj) == 3
                        assert all(
                            c2.colour(u, v) == colour - c1.r
                            for u, v in itertools.combinations(sorted(proj), 2)
                        )

    @given(
        st.integers(1, 8),
        st.integers(1, 8),
        st.integers(1, MAX_COLOURS - 1).flatmap(lambda r1: st.tuples(st.just(r1), st.integers(1, MAX_COLOURS - r1))),
        st.integers(0, 2**32),
    )
    @example(1, 1, (1, 1), 0)
    @example(1, 7, (40, 24), 3)
    @example(6, 1, (63, 1), 5)
    @example(8, 8, (32, 32), 9)
    @settings(max_examples=60, deadline=None)
    def test_matches_per_pair_build(self, n1, n2, rs, seed):
        c1, c2 = random_colouring(n1, rs[0], seed), random_colouring(n2, rs[1], seed + 1)
        assert product_colouring(c1, c2) == reference_product(c1, c2)


class TestSerialization:
    def test_c5_header(self, c5):
        assert c5.serialize().startswith("5 2\n0 1 1 0\n")

    def test_parse_single_edge(self):
        c = parse_colouring("2 1\n0\n")
        assert c.n == 2 and c.r == 1 and c.colour(0, 1) == 0

    def test_parse_colour_out_of_range(self):
        with pytest.raises(ParseError) as ei:
            parse_colouring("2 1\n5\n")
        assert ei.value.line == 2

    def test_parse_bad_header(self):
        with pytest.raises(ParseError) as ei:
            parse_colouring("2\n0\n")
        assert ei.value.line == 1

    def test_parse_short_row(self):
        with pytest.raises(ParseError) as ei:
            parse_colouring("3 2\n0 1\n0 0\n")
        assert ei.value.line == 3

    def test_parse_missing_trailing_newline(self):
        with pytest.raises(ParseError):
            parse_colouring("2 1\n0")

    @staticmethod
    def assert_one_digest(c, text):
        """The parsed colouring's digest, taken from the text read, is the
        digest of that text and of the same colouring built from its bytes."""
        want = hashlib.sha256(text.encode()).hexdigest()
        assert parse_colouring(text).sha256() == want
        assert EdgeColouring(c.n, c.r, c._tri).sha256() == want

    @given(st.integers(1, 12), st.integers(1, 4), st.integers(0, 10**6))
    @example(1, 1, 0)
    @example(1, 11, 0)
    @example(12, 11, 3)
    @settings(max_examples=60, deadline=None)
    def test_roundtrip(self, n, r, seed):
        c = random_colouring(n, r, seed)
        assert parse_colouring(c.serialize()) == c
        self.assert_one_digest(c, c.serialize())


    def test_roundtrip_at_colour_cap(self):
        c = random_colouring(30, MAX_COLOURS, 5)
        assert max(c.colour(u, v) for u, v in itertools.combinations(range(30), 2)) == MAX_COLOURS - 1
        text = c.serialize()
        assert parse_colouring(text) == c
        assert parse_colouring(text).serialize() == text
        self.assert_one_digest(c, text)

    @pytest.mark.parametrize(
        "rows, line, message",
        [
            ("1 x\n0\n", 2, "bad colour value 'x'"),
            ("1 \n0\n", 2, "bad colour value ''"),
            ("1 -1\n0\n", 2, "colour -1 out of range [0, 2)"),
            ("1 300\n0\n", 2, "colour 300 out of range [0, 2)"),
            ("5 x\n0\n", 2, "colour 5 out of range [0, 2)"),
            ("x 5\n0\n", 2, "bad colour value 'x'"),
            ("1 0\nx\n", 3, "bad colour value 'x'"),
            ("1 0\n300\n", 3, "colour 300 out of range [0, 2)"),
        ],
    )
    def test_parse_names_first_bad_field(self, rows, line, message):
        with pytest.raises(ParseError) as ei:
            parse_colouring("3 2\n" + rows)
        assert ei.value.line == line
        assert str(ei.value) == f"line {line}: {message}"

    @given(st.integers(1, 12), st.data())
    @settings(max_examples=300, deadline=None)
    def test_parse_rows_match_per_field_loop(self, r, data):
        # n = 4: rows of 3, 2 and 1 fields, mostly colours, some of them bad
        token = st.one_of(
            st.integers(0, 70).map(str),
            st.sampled_from(["-1", "255", "256", "300", "+1", "01", "1_0", "x", "", "0x1"]),
        )
        rows = [data.draw(st.lists(token, min_size=k, max_size=k)) for k in (3, 2, 1)]
        text = "4 %d\n" % r + "".join(" ".join(fields) + "\n" for fields in rows)
        want = []
        for u, fields in enumerate(rows):
            # an empty line is a row with no fields at all
            got = "row 2 must have 1 entries, got 0" if fields == [""] else reference_row(fields, r)
            if isinstance(got, str):
                with pytest.raises(ParseError) as ei:
                    parse_colouring(text)
                assert (ei.value.line, str(ei.value)) == (u + 2, f"line {u + 2}: {got}")
                return
            want += got
        assert parse_colouring(text) == EdgeColouring(4, r, bytes(want))

    def test_non_canonical_fields_rejected(self):
        # int() reads each of these fields, so the text used to parse to the
        # colouring of "3 11\n10 1\n1\n" and share its SHA-256
        with pytest.raises(ParseError) as ei:
            parse_colouring("3 11\n1_0 +1\n01\n")
        assert (ei.value.line, str(ei.value)) == (2, "line 2: colour value '1_0' is not written as '10'")
        assert parse_colouring("3 11\n10 1\n1\n").serialize() == "3 11\n10 1\n1\n"

    @pytest.mark.parametrize("field", ["+1", "01", "-0", "1_0", "\t1", "1\t", "1\r", "\u0661", "\uff11", "010"])
    @pytest.mark.parametrize("r", [2, 11, MAX_COLOURS])
    def test_each_spelling_rejected_where_it_stands(self, field, r):
        value = int(field)
        # a value out of range keeps its old message, however it is spelled
        want = (f"colour {value} out of range [0, {r})" if value >= r
                else f"colour value {field!r} is not written as {str(value)!r}")
        for rows, line in ((f"{field} 0\n0\n", 2), (f"0 {field}\n0\n", 2), (f"0 0\n{field}\n", 3)):
            with pytest.raises(ParseError) as ei:
                parse_colouring(f"3 {r}\n" + rows)
            assert str(ei.value) == f"line {line}: {want}"

    @pytest.mark.parametrize("header", ["03 2", "3 +2", "3 02", "+3 2", "3 2\t", "3_0 2", "\u0663 2"])
    def test_non_canonical_header_rejected(self, header):
        with pytest.raises(ParseError) as ei:
            parse_colouring(header + "\n0 1\n1\n")
        assert ei.value.line == 1
        assert "is not written as '" in str(ei.value)

    @given(small_colourings())
    @example((12, MAX_COLOURS, bytes(c % 10 for c in range(66))))
    @settings(max_examples=300, deadline=None)
    def test_one_buffer_paths_match_row_paths(self, case):
        n, r, tri = case
        c = EdgeColouring(n, r, tri)
        text = c.serialize()
        assert text == reference_serialize(n, r, tri)
        assert reference_parse(text) == tri
        got = parse_colouring(text)
        assert got == c and got.sha256() == hashlib.sha256(text.encode()).hexdigest()

    @pytest.mark.parametrize("char", ["\t", "\r", " ", "\n", "x", "0", "7", "\u0661"])
    @pytest.mark.parametrize("r", [3, 11, MAX_COLOURS])
    def test_one_byte_changes_keep_row_errors(self, char, r):
        # every body of exactly 2m characters one character away from a
        # single-digit text reads as row by row: the same colours, or the
        # same ParseError line and message
        base = EdgeColouring(6, r, bytes(c % 3 for c in range(15))).serialize()
        body_start = len(f"6 {r}\n")
        for at in range(body_start, len(base) - 1):  # the final newline stays
            text = base[:at] + char + base[at + 1 :]
            want = reference_parse(text)
            if isinstance(want, bytes):
                assert parse_colouring(text) == EdgeColouring(6, r, want)
                continue
            with pytest.raises(ParseError) as ei:
                parse_colouring(text)
            assert (ei.value.line, str(ei.value)) == (want[0], f"line {want[0]}: {want[1]}")

    @pytest.mark.parametrize("text, line", [(b"3 2\n0 1\n\xff\n", 3), (b"\xc3\xa9 2\n", 1), (b"2 1\r0\x80\n", 1)])
    def test_non_ascii_bytes_named_by_line(self, text, line):
        with pytest.raises(ParseError) as ei:
            parse_colouring(text)
        byte = next(b for b in text if b > 0x7F)
        assert str(ei.value) == f"line {line}: non-ASCII byte {byte:#04x}"

    @pytest.mark.parametrize("field", ["\u00e9", "\udc80", "\U0001d7ce"])
    def test_non_ascii_fields_named_where_they_stand(self, field):
        # also a lone surrogate, which UTF-8 cannot encode strictly
        text = f"3 2\n0 {field}\n0\n"
        with pytest.raises(ParseError) as ei:
            parse_colouring(text)
        assert (ei.value.line, str(ei.value)) == (2, f"line 2: {reference_parse(text)[1]}")

    def test_canonical_check_keeps_old_messages(self):
        # out of range is reported as before, also next to a non-canonical field
        with pytest.raises(ParseError) as ei:
            parse_colouring("3 2\n+1 5\n0\n")
        assert str(ei.value) == "line 2: colour 5 out of range [0, 2)"
        with pytest.raises(ParseError) as ei:
            parse_colouring("0 02\n")
        assert str(ei.value) == "line 1: invalid header values n=0 r=2"


class TestMemory:
    def test_one_quadratic_buffer_at_a_time(self):
        # reading, building and writing each hold at most one buffer the size
        # of the text or of the n x n matrix besides their input and output;
        # an extra copy of either breaks its bound
        n, r = 600, 3
        c = random_colouring(n, r, 1)
        text = c.serialize()
        assert traced_peak(lambda: parse_colouring(text)) < 3.0 * len(text)
        assert traced_peak(lambda: EdgeColouring(n, r, c._tri)) < 2.0 * n * n
        assert traced_peak(c.serialize) < 2.5 * len(text)

    def test_cli_load_holds_no_copy_of_the_text(self, tmp_path):
        # the file's bytes are checked and hashed as read, never decoded to a str
        text = random_colouring(1000, 3, 1).serialize()
        rcg = tmp_path / "c.rcg"
        rcg.write_text(text, encoding="ascii")
        assert traced_peak(lambda: _load_colouring(rcg)) <= traced_peak(lambda: parse_colouring(text))
        loaded, parsed = _load_colouring(rcg), parse_colouring(text)
        assert loaded == parsed and loaded.sha256() == parsed.sha256()


class TestValidation:
    def test_too_many_colours(self):
        with pytest.raises(InvalidInput):
            random_colouring(3, 65, 0)

    def test_colour_value_checked(self):
        with pytest.raises(InvalidColour):
            EdgeColouring(2, 1, b"\x01")
        # a colour equal to r at the very last edge of a large colouring
        n, r = 1000, 3
        ok = bytes(i % r for i in range(n * (n - 1) // 2))
        assert EdgeColouring(n, r, ok).r == r
        with pytest.raises(InvalidColour) as ei:
            EdgeColouring(n, r, ok[:-1] + bytes([r]))
        assert str(ei.value) == f"edge colour out of range [0, {r})"
        with pytest.raises(InvalidColour):
            EdgeColouring(n, r, ok[:-1] + b"\xff")
        assert EdgeColouring(1, r, b"").n == 1

    @pytest.mark.parametrize("colour", [-1, 256, 300])
    def test_colour_outside_a_byte_checked(self, colour):
        with pytest.raises(InvalidColour):
            EdgeColouring(3, 2, [0, colour, 1])
        with pytest.raises(InvalidColour):
            from_pair_function(3, 2, lambda u, v: colour if v == 2 else 0)

    def test_pair_function_builder(self):
        c = from_pair_function(3, 1, lambda u, v: 0)
        assert c.is_mono_clique(full_mask(3), 0)
