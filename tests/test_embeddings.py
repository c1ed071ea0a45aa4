import io

import numpy as np
import pytest

from kerndebias import (
    DataError,
    EmbeddingTable,
    FormatError,
    parse_embedding_text,
    subset,
    unit_normalize,
    write_embedding_text,
)
from oracles import float_parse_embedding_text, fstring_embedding_text


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


class TestWrite:
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


class TestSubset:
    def test_request_order(self):
        table = parse("a 1 0\nb 0 1\nc 1 1\n")
        sub, missing = subset(table, ["c", "a"])
        assert sub.words == ("c", "a")
        assert missing == []

    def test_missing_reported_not_fatal(self):
        table = parse("a 1 0\n")
        sub, missing = subset(table, ["a", "x"])
        assert sub.words == ("a",)
        assert missing == ["x"]

    def test_empty_request(self):
        table = parse("a 1 0\n")
        sub, missing = subset(table, [])
        assert len(sub) == 0
        assert missing == []


class TestTableInvariants:
    def test_duplicate_word_rejected(self):
        with pytest.raises(FormatError):
            EmbeddingTable(words=("a", "a"), matrix=np.zeros((2, 2)))

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
