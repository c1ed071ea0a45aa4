import io
import itertools
import os
import threading
import tracemalloc
import zlib

import numpy as np
import pytest

from kerndebias import embeddings
from kerndebias import (
    DataError,
    EmbeddingTable,
    FormatError,
    parse_embedding_text,
    unit_normalize,
    write_embedding_text,
)
from kerndebias.embeddings import iter_embedding_text
from oracles import decimal_fixed_point, float_parse_embedding_text, fstring_embedding_text


def parse(text: str) -> EmbeddingTable:
    return parse_embedding_text(io.StringIO(text))


class TestParse:
    def test_basic(self):
        table = parse("a 1 0\nb 0 1\n")
        assert table.words == ("a", "b")
        assert table.dim == 2
        np.testing.assert_array_equal(table.lookup("a"), [1.0, 0.0])
        np.testing.assert_array_equal(table.lookup("b"), [0.0, 1.0])

    def test_header_consumed(self):
        with_header = parse("2 2\na 1 0\nb 0 1\n")
        without = parse("a 1 0\nb 0 1\n")
        assert with_header.words == without.words
        np.testing.assert_array_equal(with_header.matrix, without.matrix)

    def test_dimension_mismatch_reports_line(self):
        with pytest.raises(FormatError, match="line 2"):
            parse("a 1 0\nb 1\n")

    def test_duplicate_word(self):
        with pytest.raises(FormatError, match="'a'"):
            parse("a 1 0\na 0 1\n")

    def test_nonfinite_value(self):
        with pytest.raises(FormatError, match="line 1"):
            parse("a nan 0\n")

    def test_tabs_and_space_runs_accepted(self):
        table = parse("a\t1.5   2.5\n")
        np.testing.assert_array_equal(table.lookup("a"), [1.5, 2.5])

    def test_lookup_unique_row(self):
        table = parse("x 1 2\ny 3 4\n")
        assert table.row_index("y") == 1
        with pytest.raises(DataError):
            table.row_index("z")

    @pytest.mark.parametrize("per_line", [False, True], ids=["blocks", "per-line"])
    @pytest.mark.parametrize(
        "text, words, rows",
        [
            ("2 1\n7 5\n8 6\n", ("7", "8"), [[5.0], [6.0]]),
            ("1999 2\n2000 3\n", ("2000",), [[3.0]]),
            ("\n \n3 2\n4 5\n", ("4",), [[5.0]]),
            ("a 1 2\n3 4 5\n", ("a", "3"), [[1.0, 2.0], [4.0, 5.0]]),
        ],
    )
    def test_only_first_nonblank_line_is_a_header(self, monkeypatch, per_line, text, words, rows):
        if per_line:
            monkeypatch.setattr(embeddings._TableBuilder, "add_block", lambda self, block: False)
        table = parse(text)
        assert table.words == words
        np.testing.assert_array_equal(table.matrix, rows)


# Tokens float() and numpy's C converter may treat differently, and
# separators that str.split() and numpy's tokenizer may treat differently.
_ODD_TOKENS = [
    "1_0", "\u0661", "\uff11", "#1", '"1.0"', "1,0", "1.0j", "0x10", "1d5", "-nan", "1e400",
]
_SEPARATORS = ["\xa0", "\x0b", "\x1c", "\r"]
_ROWS = ["a 1 2", "b 3 4", "c 5 6", "d 7 8", "e 9 10"]
_FAULTS = {
    "dup": lambda row: "a 0 0",
    "dim": lambda row: row + " 0",
    "nan": lambda row: row.split()[0] + " nan 0",
    "token": lambda row: row.split()[0] + " 1 x",
    "empty": lambda row: row.split()[0],
}


def _with(rows: list[str], changes: dict[int, str]) -> str:
    return "\n".join(changes.get(i, row) for i, row in enumerate(rows)) + "\n"


def _parser_corpus() -> list[str]:
    cases = []
    for i, token in itertools.product(range(len(_ROWS)), _ODD_TOKENS):
        cases.append(_with(_ROWS, {i: _ROWS[i] + " " + token}))
        cases.append(_with(_ROWS, {i: _ROWS[i].rsplit(" ", 1)[0] + " " + token}))
    for i, sep in itertools.product(range(len(_ROWS)), _SEPARATORS):
        cases.append(_with(_ROWS, {i: sep.join(_ROWS[i].split())}))
        cases.append(_with(_ROWS, {i: sep + _ROWS[i] + sep}))
    body = "\n".join(_ROWS) + "\n"
    cases += [
        body.replace("\n", "\r\n"),
        body.replace("\n", "\n\n  \t\n"),
        "5 2\n" + body,
        "\n\n5 2\r\n" + body,
        "5 2\n5 2\n" + body,
        "-5 +2\n" + body,
        "5 2 1\n" + body,
        body + "\n5 2\n",
        "",
        "\n \n",
        "5 2\n",
    ]
    # Two faults in every order and at every distance, so that one block,
    # or two blocks on either side of a boundary, hold them.
    for (first, second), (i, j) in itertools.product(
        itertools.permutations(_FAULTS, 2), itertools.combinations(range(len(_ROWS)), 2)
    ):
        if first != "dup" or i > 0:
            cases.append(_with(_ROWS, {i: _FAULTS[first](_ROWS[i]), j: _FAULTS[second](_ROWS[j])}))
    return cases


def _outcome(text: str) -> tuple:
    try:
        table = parse(text)
    except FormatError as exc:
        return ("error", str(exc))
    return (table.words, table.matrix.shape, table.matrix.tobytes())


class TestBlockParser:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("block", [2, 3])
    def test_blocks_match_the_per_line_loop(self, monkeypatch, block):
        monkeypatch.setattr(embeddings, "_INITIAL_ROWS", block)
        corpus = _parser_corpus()
        fast = [_outcome(text) for text in corpus]
        monkeypatch.setattr(embeddings._TableBuilder, "add_block", lambda self, block: False)
        slow = [_outcome(text) for text in corpus]
        for text, got, want in zip(corpus, fast, slow):
            assert got == want, repr(text)
        assert sum(o[0] == "error" for o in slow) > len(corpus) // 2

    def test_clean_blocks_take_the_fast_path(self, monkeypatch):
        monkeypatch.setattr(embeddings, "_INITIAL_ROWS", 2)
        taken = []
        add_block = embeddings._TableBuilder.add_block
        monkeypatch.setattr(
            embeddings._TableBuilder, "add_block",
            lambda self, block: taken.append(add_block(self, block)) or taken[-1],
        )
        table = parse("5 2\n" + "\n".join(_ROWS) + "\n")
        assert taken == [True, True, True]
        assert len(table) == 5

    def test_peak_memory_is_the_table_plus_a_few_blocks(self, monkeypatch, rng):
        block = 64
        monkeypatch.setattr(embeddings, "_INITIAL_ROWS", block)
        n, dim = 64 * block, 16
        lines = [
            f"w{i} " + " ".join(repr(float(v)) for v in row)
            for i, row in enumerate(rng.normal(size=(n, dim)))
        ]
        block_bytes = max(len(line) for line in lines) * block
        stream = io.StringIO("\n".join(lines) + "\n")
        tracemalloc.start()
        try:
            table = parse_embedding_text(stream)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(table) == n
        # The text is 2.5x the matrix here: reading it whole breaks the bound.
        assert peak - kept <= 2 * table.matrix.nbytes + 8 * block_bytes


class TestWrite:
    @pytest.mark.parametrize(
        "words, matrix, message",
        [
            (("a",), [[1.0, np.inf]], "non-finite"),
            (("a",), [[np.nan]], "non-finite"),
            (("a", "b"), [[1.0]], "2 words but a matrix of shape (1, 1)"),
            (("a",), [1.0], "1 words but a matrix of shape (1,)"),
        ],
        ids=["inf", "nan", "rows", "1-d"],
    )
    def test_stream_refuses_before_any_block(self, words, matrix, message):
        with pytest.raises(FormatError) as exc:
            iter_embedding_text(words, np.array(matrix), 9)
        assert message in str(exc.value)

    def test_stream_peak_memory_is_set_by_the_block(self, rng, monkeypatch):
        block, dim = 4096, 16
        monkeypatch.setattr(embeddings, "_WRITE_COMPONENTS", block)
        bound = 200 * block + 64 * 1024
        for rows in (16 * block // dim, 64 * block // dim):
            matrix = rng.normal(size=(rows, dim))
            words = [f"w{i}" for i in range(rows)]
            tracemalloc.start()
            try:
                size = sum(len(text) for text in iter_embedding_text(words, matrix, 9))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= bound
        # The larger table's text alone would break the bound.
        assert size > 3 * bound

    def test_fixed_precision(self):
        table = EmbeddingTable(words=("a",), matrix=np.array([[1.0, 0.0]]))
        assert write_embedding_text(table, precision=6) == "a 1.000000 0.000000\n"

    def test_round_trip_exact_at_max_precision(self, rng):
        # Unit-scale entries: 17 decimals carry >= 17 significant digits.
        matrix = rng.uniform(0.1, 1.0, size=(5, 3)) * rng.choice([-1.0, 1.0], size=(5, 3))
        table = EmbeddingTable(words=tuple("abcde"), matrix=matrix)
        back = parse(write_embedding_text(table, precision=17))
        np.testing.assert_array_equal(back.matrix, table.matrix)
        assert back.words == table.words

    def test_round_trip_tolerance_any_precision(self, rng):
        matrix = rng.normal(size=(4, 3))
        table = EmbeddingTable(words=tuple("abcd"), matrix=matrix)
        for precision in (3, 6, 12):
            back = parse(write_embedding_text(table, precision=precision))
            assert np.max(np.abs(back.matrix - table.matrix)) <= 10.0 ** (1 - precision)

    def test_empty_table(self):
        table = EmbeddingTable(words=(), matrix=np.zeros((0, 3)))
        assert write_embedding_text(table, precision=5) == ""

    def test_precision_validated(self):
        table = EmbeddingTable(words=("a",), matrix=np.array([[1.0]]))
        with pytest.raises(FormatError):
            write_embedding_text(table, precision=0)
        with pytest.raises(FormatError):
            write_embedding_text(table, precision=18)


class TestOracleAgreement:
    @pytest.mark.parametrize("precision", range(1, 18))
    def test_writer_matches_per_value_fstrings(self, rng, precision):
        scales = 10.0 ** rng.integers(-12, 12, size=(6, 5))
        special = [
            [-0.0, 0.0, 1e300, -1e300, 5e-324],
            [0.125, 2.675, -0.5, 1.5, 1e-17],
        ]
        matrix = np.vstack([rng.normal(size=(6, 5)) * scales, special])
        table = EmbeddingTable(words=tuple(f"w{i}" for i in range(8)), matrix=matrix)
        assert write_embedding_text(table, precision=precision) == fstring_embedding_text(
            table.words, table.matrix, precision
        )

    @pytest.mark.parametrize("precision", [1, 9, 17])
    def test_small_blocks_join_to_the_whole_text(self, rng, monkeypatch, precision):
        monkeypatch.setattr(embeddings, "_WRITE_COMPONENTS", 12)  # 3 rows of 4 per block
        matrix = rng.normal(size=(20, 4)) * 10.0 ** rng.integers(-3, 3, size=(20, 4))
        matrix[4, 1] = -1e300
        words = tuple(f"w{i}" for i in range(19)) + ("caf\u00e9",)
        blocks = list(iter_embedding_text(words, matrix, precision))
        assert len(blocks) == 7
        text = write_embedding_text(EmbeddingTable(words=words, matrix=matrix), precision)
        assert text == fstring_embedding_text(words, matrix, precision)
        assert b"".join(blocks) == text.encode("utf-8")

    def test_rows_wider_than_a_block_and_empty_tables(self, rng, monkeypatch):
        monkeypatch.setattr(embeddings, "_WRITE_COMPONENTS", 3)
        matrix = rng.normal(size=(3, 5))
        blocks = list(iter_embedding_text(("a", "b", "c"), matrix, 6))
        assert len(blocks) == 3
        assert b"".join(blocks).decode() == fstring_embedding_text("abc", matrix, 6)
        assert list(iter_embedding_text((), np.zeros((0, 5)), 6)) == []
        assert b"".join(iter_embedding_text(("a", "b"), np.zeros((2, 0)), 6)) == b"a\nb\n"

    @pytest.mark.parametrize("precision", range(1, 18))
    def test_writer_matches_exact_decimal_rounding(self, rng, monkeypatch, precision):
        scale = 10.0**precision
        k = rng.integers(0, 10 ** min(precision, 15), size=64).astype(float)
        half_ways = (k + 0.5) / scale
        bound = 2.0**62 / scale  # _format_block's int64 limit on |v|·10^p
        values = np.concatenate([
            rng.integers(-(2**20), 2**20, size=64) / 2.0 ** (precision + 1),  # exact ties
            half_ways, np.nextafter(half_ways, np.inf), np.nextafter(half_ways, -np.inf),
            -half_ways,
            [-0.0, 0.0, -1e-300, -0.1 / scale, -0.49 / scale, 0.5 / scale, -0.5 / scale],
            [5e-324, -5e-324, 2.5e-310, -2.2250738585072014e-308],  # subnormals
            [np.nextafter(bound, 0.0), -np.nextafter(bound, 0.0), bound, -bound,
             np.nextafter(bound, np.inf), -bound * (1 + 2.0**-40)],
            rng.normal(size=64) * 10.0 ** rng.integers(-20, 4, size=64),
        ])
        values = np.concatenate([values, np.zeros(-len(values) % 4)])
        matrix = values.reshape(-1, 4)
        # Two rows per block; the words at block starts are not ASCII.
        monkeypatch.setattr(embeddings, "_WRITE_COMPONENTS", 8)
        words = [f"w{i}" if i % 2 else f"caf\u00e9{i}\u65e5" for i in range(len(matrix))]
        expected = "".join(
            word + "".join(" " + decimal_fixed_point(float(v), precision) for v in row) + "\n"
            for word, row in zip(words, matrix)
        )
        assert b"".join(iter_embedding_text(words, matrix, precision)) == expected.encode()

    def test_decimal_oracle_agrees_with_percent_formatting(self):
        for v, precision, text in [(0.125, 2, "0.12"), (0.375, 2, "0.38"), (2.675, 2, "2.67"),
                                   (-0.0, 3, "-0.000"), (-1e-12, 5, "-0.00000"),
                                   (1e22, 1, "10000000000000000000000.0")]:
            assert decimal_fixed_point(v, precision) == text == f"{v:.{precision}f}"

    @pytest.mark.parametrize("precision", range(1, 18))
    def test_unit_rows_never_take_the_percent_fallback(self, rng, monkeypatch, precision):
        calls = []
        percent_block = embeddings._percent_block
        monkeypatch.setattr(embeddings, "_percent_block",
                            lambda *args: calls.append(args) or percent_block(*args))
        monkeypatch.setattr(embeddings, "_WRITE_COMPONENTS", 40)  # 5 rows of 8 per block
        matrix = rng.normal(size=(30, 8))
        matrix /= np.linalg.norm(matrix, axis=1, keepdims=True)
        matrix[:8] = np.eye(8) * np.where(np.arange(8) % 2, -1.0, 1.0)[:, None]
        words = [f"w{i}" for i in range(30)]
        text = b"".join(iter_embedding_text(words, matrix, precision))
        assert calls == []
        assert text == fstring_embedding_text(words, matrix, precision).encode()
        # One value just past the int64 bound sends its block, and only it, to "%".
        matrix[17, 3] = -(2.0**62) / 10.0**precision * (1 + 2.0**-40)
        text = b"".join(iter_embedding_text(words, matrix, precision))
        assert [len(args[0]) for args in calls] == [5] and calls[0][0][0] == "w15"
        assert text == fstring_embedding_text(words, matrix, precision).encode()

    def test_parser_matches_per_token_float(self, rng):
        values = rng.normal(size=(5, 4)) * 10.0 ** rng.integers(-20, 20, size=(5, 4))
        rows = [[repr(float(v)) for v in row] for row in values]
        rows[0][:3] = ["1_0", "+.5", "-0"]
        rows[1][:3] = ["1e-400", "4.9e-324", "\u0663.\u0665"]
        text = "5 4\r\n\r\n"
        for i, row in enumerate(rows):
            sep = "\t" if i % 2 else " "
            text += f"w{i}{sep}" + sep.join(row) + ("\r\n" if i % 2 else "\n")
            if i == 2:
                text += "  \t \n\n"
        words, matrix = float_parse_embedding_text(text)
        table = parse(text)
        assert list(table.words) == words == [f"w{i}" for i in range(5)]
        assert table.matrix.shape == (5, 4)
        assert table.matrix.tobytes() == matrix.tobytes()

    def test_bad_token_reports_its_line(self):
        with pytest.raises(FormatError, match="line 3: could not convert.*'x'"):
            parse("a 1 2\nb 3 4\nc 5 x\n")

    def test_nonfinite_after_header_reports_file_line(self):
        with pytest.raises(FormatError, match="line 3: non-finite value for 'b'"):
            parse("2 2\na 1 2\nb inf 4\n")

    def test_first_error_in_file_order_wins(self):
        with pytest.raises(FormatError, match="line 2: non-finite"):
            parse("a 1 2\nb nan 4\nc 5 x\n")
        with pytest.raises(FormatError, match="line 2: non-finite"):
            parse("a 1 2\nb 1e999 4\nb 5 6\n")


class TestNormalize:
    def test_three_four_five(self):
        table = EmbeddingTable(words=("a",), matrix=np.array([[3.0, 4.0]]))
        np.testing.assert_allclose(unit_normalize(table).matrix, [[0.6, 0.8]])

    def test_unit_row_unchanged(self):
        table = EmbeddingTable(words=("a",), matrix=np.array([[0.0, 1.0]]))
        np.testing.assert_array_equal(unit_normalize(table).matrix, table.matrix)

    def test_zero_row_rejected_with_word(self):
        table = EmbeddingTable(words=("a", "z"), matrix=np.array([[1.0, 0.0], [0.0, 0.0]]))
        with pytest.raises(DataError, match="'z'"):
            unit_normalize(table)

    def test_norms_within_tolerance(self, rng):
        table = EmbeddingTable(
            words=tuple(f"w{i}" for i in range(20)), matrix=rng.normal(size=(20, 7))
        )
        norms = np.linalg.norm(unit_normalize(table).matrix, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)

    def test_exactly_idempotent(self, rng):
        table = EmbeddingTable(
            words=tuple(f"w{i}" for i in range(30)), matrix=rng.normal(size=(30, 9))
        )
        once = unit_normalize(table)
        twice = unit_normalize(once)
        np.testing.assert_array_equal(once.matrix, twice.matrix)

    def test_equals_division_by_numpy_norm_bit_for_bit(self, rng):
        # dim 300 does not divide 2^16: 218 rows a block, so 3 blocks and
        # part of a fourth; every seventh row is already of unit norm.
        dim = 300
        n = 3 * (embeddings._WRITE_COMPONENTS // dim) + 5
        matrix = rng.normal(size=(n, dim)) * rng.uniform(0.01, 100.0, size=(n, 1))
        unit = np.arange(n) % 7 == 0
        matrix[unit] /= np.linalg.norm(matrix[unit], axis=1)[:, None]
        norms = np.linalg.norm(matrix, axis=1)
        assert np.all(np.abs(norms[unit] - 1.0) <= embeddings._UNIT_SLACK)
        assert not np.any(np.abs(norms[~unit] - 1.0) <= embeddings._UNIT_SLACK)
        table = EmbeddingTable(words=tuple(f"w{i}" for i in range(n)), matrix=matrix)
        normed = unit_normalize(table).matrix
        assert np.array_equal(normed[unit], matrix[unit])
        assert np.array_equal(normed[~unit], (matrix / norms[:, None])[~unit])

    def test_result_is_a_read_only_table_of_its_own(self, rng):
        table = EmbeddingTable(words=("a", "b", "c"), matrix=rng.normal(size=(3, 4)))
        normed = unit_normalize(table)
        assert normed.words == table.words and normed.row_index("c") == 2
        assert "d" not in normed
        assert not normed.matrix.flags.writeable
        assert not np.shares_memory(normed.matrix, table.matrix)


class TestTableInvariants:
    def test_duplicate_word_rejected(self):
        with pytest.raises(FormatError):
            EmbeddingTable(words=("a", "a"), matrix=np.zeros((2, 2)))

    @pytest.mark.parametrize(
        "words, message",
        [
            (("a", "b\xa0c", "a"), "word 'b\\xa0c' contains whitespace"),
            (("a", "b", "a", "c d"), "duplicate word 'a'"),
            (("a", "b", "c d", "b"), "word 'c d' contains whitespace"),
        ],
    )
    def test_first_offending_word_named(self, words, message):
        with pytest.raises(FormatError) as info:
            EmbeddingTable(words=words, matrix=np.zeros((len(words), 2)))
        assert str(info.value) == message

    def test_immutable_matrix(self):
        table = EmbeddingTable(words=("a",), matrix=np.array([[1.0, 2.0]]))
        with pytest.raises(ValueError):
            table.matrix[0, 0] = 5.0

    def test_parse_write_identity_property(self, rng):
        # Random unit-scale tables survive a max-precision round trip.
        for _ in range(10):
            n = int(rng.integers(1, 6))
            d = int(rng.integers(1, 5))
            matrix = rng.uniform(0.1, 2.0, size=(n, d)) * rng.choice([-1, 1], size=(n, d))
            table = EmbeddingTable(
                words=tuple(f"w{i}" for i in range(n)), matrix=matrix
            )
            back = parse(write_embedding_text(table, precision=17))
            np.testing.assert_array_equal(back.matrix, table.matrix)


def _entries(cache) -> list:
    root = cache / "kerndebias" / "tables-v2"
    return sorted(root.iterdir()) if root.exists() else []


class _Entry:
    """A cache entry file's bytes and the offsets of its regions."""

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.trailer = len(data) - embeddings._TRAILER.size
        self.sizes = embeddings._TRAILER.unpack(data[self.trailer :])[:3]
        n_source, n_matrix, n_words = self.sizes
        self.matrix = n_source
        self.words = n_source + n_matrix
        assert self.words + n_words == self.trailer

    def matrix_bytes(self) -> np.ndarray:
        return np.frombuffer(self.data[self.matrix : self.words], "<f8")

    def words_bytes(self) -> bytes:
        return self.data[self.words : self.trailer]

    def flip(self, at: int) -> bytes:
        """The entry with one bit of the byte at `at` flipped."""
        return self.data[:at] + bytes([self.data[at] ^ 1]) + self.data[at + 1 :]

    def with_words(self, words: bytes) -> bytes:
        """The entry with these words, of the same size, under a matching crc."""
        crc = zlib.crc32(words, zlib.crc32(self.data[self.matrix : self.words]))
        return self.data[: self.words] + words + embeddings._TRAILER.pack(*self.sizes, crc)


def _open_parse(path) -> EmbeddingTable:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_embedding_text(handle)


def _same_table(got: EmbeddingTable, want: EmbeddingTable) -> bool:
    return (
        got.words == want.words
        and got.matrix.shape == want.matrix.shape
        and got.matrix.tobytes() == want.matrix.tobytes()
    )


@pytest.fixture
def parse_calls(monkeypatch):
    """The streams read_embedding_file has parsed, in order."""
    calls = []
    parse_text = embeddings.parse_embedding_text
    monkeypatch.setattr(
        embeddings, "parse_embedding_text",
        lambda stream: calls.append(stream) or parse_text(stream),
    )
    return calls


class TestTableCache:
    def test_cold_and_warm_reads_equal_the_parse(self, tmp_path, private_table_cache):
        path = tmp_path / "table.txt"
        for text in _parser_corpus():
            path.write_bytes(text.encode("utf-8"))
            try:
                want = _open_parse(path)
            except FormatError as exc:
                with pytest.raises(FormatError) as got:
                    embeddings.read_embedding_file(str(path))
                assert str(got.value) == str(exc), repr(text)
                continue
            for _ in ("cold", "warm"):
                assert _same_table(embeddings.read_embedding_file(str(path)), want), repr(text)
        assert len(_entries(private_table_cache)) == 1

    def test_warm_read_is_a_hit(self, tmp_path, private_table_cache, parse_calls):
        path = tmp_path / "table.txt"
        path.write_text("3 2\na 1 2\nb 0.5 -1e-3\nc 3 4\n")
        cold = embeddings.read_embedding_file(str(path))
        warm = embeddings.read_embedding_file(str(path))
        assert len(parse_calls) == 1
        assert _same_table(warm, cold)
        assert not warm.matrix.flags.writeable
        # The entry is keyed by real path: a symlink to the file hits it too.
        (tmp_path / "link.txt").symlink_to(path)
        embeddings.read_embedding_file(str(tmp_path / "link.txt"))
        assert len(parse_calls) == 1
        assert len(_entries(private_table_cache)) == 1

    def test_entry_dirs_are_private(self, tmp_path, private_table_cache):
        path = tmp_path / "table.txt"
        path.write_text("a 1 2\n")
        embeddings.read_embedding_file(str(path))
        root = private_table_cache / "kerndebias" / "tables-v2"
        assert [entry.is_file() for entry in _entries(private_table_cache)] == [True]
        for directory in (root.parent, root):
            assert directory.stat().st_mode & 0o777 == 0o700

    # A file of one compare read, and one of two with the change in each.
    @pytest.mark.parametrize("n_rows, at", [(1, -1), (100_000, 0), (100_000, -1)])
    def test_same_size_rewrite_is_parsed_again(self, tmp_path, parse_calls, n_rows, at):
        path = tmp_path / "table.txt"
        rows = [b"w%d 1.5 2\n" % i for i in range(n_rows)]
        rows.insert(len(rows) if at == -1 else at, b"b 3 4\n")
        path.write_bytes(b"".join(rows))
        assert path.stat().st_size > embeddings._COMPARE_BYTES or n_rows == 1
        embeddings.read_embedding_file(str(path))
        stat = path.stat()
        path.write_bytes(b"".join(rows).replace(b"b 3 4\n", b"b 3 5\n"))
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        table = embeddings.read_embedding_file(str(path))
        assert len(parse_calls) == 2
        np.testing.assert_array_equal(table.lookup("b"), [3.0, 5.0])

    # A rewrite of the last byte alone, in a file of part of one compare
    # read, of exactly one, and of one and a byte.
    @pytest.mark.parametrize("size", [
        100, embeddings._COMPARE_BYTES, embeddings._COMPARE_BYTES + 1,
    ], ids=["short", "one-read", "one-read-and-a-byte"])
    def test_last_byte_rewrite_is_parsed_again(self, tmp_path, parse_calls, size):
        path = tmp_path / "table.txt"
        rows = b"".join(b"w%d 1.5 2\n" % i for i in range(size // 20))
        last = b"b 3" + b" " * (size - len(rows) - len(b"b 3 4")) + b" 4"
        path.write_bytes(rows + last)
        assert path.stat().st_size == size
        embeddings.read_embedding_file(str(path))
        stat = path.stat()
        path.write_bytes(rows + last[:-1] + b"5")
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        table = embeddings.read_embedding_file(str(path))
        assert len(parse_calls) == 2
        np.testing.assert_array_equal(table.lookup("b"), [3.0, 5.0])
        assert embeddings.read_embedding_file(str(path)).lookup("b").tolist() == [3.0, 5.0]
        assert len(parse_calls) == 2

    @pytest.mark.parametrize("corrupt", [
        lambda e: e.data[: e.matrix + 5],
        lambda e: e.data[: e.matrix] + b"garbage" + e.data[e.matrix + 7 :],
        lambda e: e.flip(e.words - 1),
        lambda e: e.data[: e.matrix] + e.matrix_bytes().byteswap().tobytes() + e.data[e.words :],
        lambda e: e.data[: e.matrix] + e.data[e.words :],
        lambda e: e.data[: e.trailer - 1],
        lambda e: e.data[: e.words] + e.words_bytes().replace(b"b", b"z") + e.data[e.trailer :],
        lambda e: e.with_words(b"\xff" + e.words_bytes()[1:]),
        lambda e: e.with_words(e.words_bytes().replace(b"b", b"a")),
        lambda e: e.flip(len(e.data) - 1),
        lambda e: e.flip(e.trailer),
        lambda e: e.flip(e.trailer + 15),
        lambda e: e.data[:-1],
        lambda e: e.data[:5],
        lambda e: e.flip(2),
        lambda e: b"",
    ], ids=["matrix-truncated", "matrix-header", "matrix-bit", "matrix-dtype",
            "matrix-empty", "words-truncated", "words-renamed", "words-not-utf8",
            "words-duplicate", "crc-mismatch", "crc-garbled", "sizes-huge", "crc-short",
            "source-truncated", "source-bit", "entry-empty"])
    def test_damaged_entry_falls_back_to_a_parse(
        self, tmp_path, private_table_cache, parse_calls, corrupt
    ):
        path = tmp_path / "table.txt"
        path.write_text("a 1 2\nb 3 4\nc 5 6\n")
        want = embeddings.read_embedding_file(str(path))
        (entry,) = _entries(private_table_cache)
        entry.write_bytes(corrupt(_Entry(entry.read_bytes())))
        assert _same_table(embeddings.read_embedding_file(str(path)), want)
        assert len(parse_calls) == 2
        # The parse wrote a whole entry again.
        assert _same_table(embeddings.read_embedding_file(str(path)), want)
        assert len(parse_calls) == 2

    @pytest.mark.parametrize("missing", ["source", "words", "matrix", "trailer"])
    def test_entry_missing_a_file_falls_back_to_a_parse(
        self, tmp_path, private_table_cache, parse_calls, missing
    ):
        path = tmp_path / "table.txt"
        path.write_text("a 1 2\nb 3 4\n")
        want = embeddings.read_embedding_file(str(path))
        (entry,) = _entries(private_table_cache)
        e = _Entry(entry.read_bytes())  # cut one region out of the entry
        start, end = {
            "source": (0, e.matrix), "matrix": (e.matrix, e.words),
            "words": (e.words, e.trailer), "trailer": (e.trailer, len(e.data)),
        }[missing]
        entry.write_bytes(e.data[:start] + e.data[end:])
        assert _same_table(embeddings.read_embedding_file(str(path)), want)
        assert len(parse_calls) == 2

    def test_failed_parse_leaves_no_entry(self, tmp_path, private_table_cache):
        path = tmp_path / "table.txt"
        path.write_text("a 1 2\nb 3\n")
        with pytest.raises(FormatError, match="line 2: expected 2 components, got 1"):
            embeddings.read_embedding_file(str(path))
        path.write_bytes(b"".join(b"w%d 1 2\n" % i for i in range(3000)) + b"caf\xe9 1 2\n")
        with pytest.raises(UnicodeDecodeError) as got:
            embeddings.read_embedding_file(str(path))
        with pytest.raises(UnicodeDecodeError) as want:
            _open_parse(path)
        assert str(got.value) == str(want.value)
        assert _entries(private_table_cache) == []

    @pytest.mark.parametrize("fault", ["cache-home-is-a-file", "save-fails", "replace-fails",
                                       "copy-write-fails"])
    def test_unusable_cache_still_reads_the_table(
        self, tmp_path, monkeypatch, private_table_cache, fault
    ):
        path = tmp_path / "table.txt"
        path.write_bytes(b"".join(b"w%d %d.25 -%d\n" % (i, i, i) for i in range(3000)))

        def fail(*args, **kwargs):
            raise OSError(28, "No space left on device")

        if fault == "cache-home-is-a-file":
            private_table_cache.write_text("")
        elif fault == "replace-fails":
            monkeypatch.setattr(os, "replace", fail)
        else:
            # The copy fails once while the tee writes to it, or, after the
            # parse, while the matrix, words and trailer are appended.
            init = embeddings._Tee.__init__
            parse_text = embeddings.parse_embedding_text
            copies = []

            def fail_once(data):
                del copies[-1].write  # later writes succeed
                fail()

            def keep_copy(self, source, copy):
                init(self, source, copy)
                copies.append(copy)
                if fault == "copy-write-fails":
                    copy.write = fail_once

            def parse_then_fail(stream):
                table = parse_text(stream)
                if fault == "save-fails":
                    copies[-1].write = fail
                return table

            monkeypatch.setattr(embeddings._Tee, "__init__", keep_copy)
            monkeypatch.setattr(embeddings, "parse_embedding_text", parse_then_fail)
        for _ in range(2):
            assert _same_table(embeddings.read_embedding_file(str(path)), _open_parse(path))
        if fault != "cache-home-is-a-file":
            assert _entries(private_table_cache) == []

    def test_fifo_bypasses_the_cache(self, tmp_path, private_table_cache, parse_calls):
        fifo = tmp_path / "table.fifo"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_text, args=("a 1 2\nb 3 4\n",))
        writer.start()
        try:
            table = embeddings.read_embedding_file(str(fifo))
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()
        assert table.words == ("a", "b")
        assert len(parse_calls) == 1
        assert _entries(private_table_cache) == []

    def test_lru_cap(self, tmp_path, private_table_cache, parse_calls):
        paths = [tmp_path / f"t{i}.txt" for i in range(embeddings._CACHE_ENTRIES + 3)]
        for i, path in enumerate(paths):
            path.write_text(f"w {i} 1\n")
            embeddings.read_embedding_file(str(path))
            assert len(_entries(private_table_cache)) == min(i + 1, embeddings._CACHE_ENTRIES)
        # Give the kept entries distinct ages, oldest first in file order.
        kept = sorted(_entries(private_table_cache), key=lambda e: e.stat().st_mtime_ns)
        for age, entry in enumerate(kept):
            os.utime(entry, ns=(0, (age + 1) * 10**9))
        oldest = paths[len(paths) - len(kept)]
        calls = len(parse_calls)
        embeddings.read_embedding_file(str(oldest))  # a hit makes it the newest
        assert len(parse_calls) == calls
        (tmp_path / "new.txt").write_text("w 0 0\n")
        embeddings.read_embedding_file(str(tmp_path / "new.txt"))
        assert kept[0].exists() and not kept[1].exists()
        assert len(_entries(private_table_cache)) == embeddings._CACHE_ENTRIES

    def test_cold_read_does_not_hold_the_file(self, tmp_path, monkeypatch, rng):
        block = 64
        monkeypatch.setattr(embeddings, "_INITIAL_ROWS", block)
        n, dim = 64 * block, 16
        lines = [
            f"w{i} " + " ".join(repr(float(v)) for v in row)
            for i, row in enumerate(rng.normal(size=(n, dim)))
        ]
        block_bytes = max(len(line) for line in lines) * block
        path = tmp_path / "table.txt"
        path.write_text("\n".join(lines) + "\n")
        for _ in ("cold", "warm"):
            tracemalloc.start()
            try:
                table = embeddings.read_embedding_file(str(path))
                kept, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert len(table) == n
            # The text is 2.5x the matrix: holding it whole breaks the bound.
            bound = 2 * table.matrix.nbytes + 8 * block_bytes + 2 * embeddings._COMPARE_BYTES
            assert peak - kept <= bound
