"""Word-embedding tables: parsing, writing and normalization.

The on-disk format is the common line-oriented text layout: one word per
line followed by its vector components, separated by whitespace.  The
first non-blank line is skipped when it is a `"<count> <dim>"` header of
two integers.  All arithmetic is 64-bit.

The parser reads its stream in blocks of at most _INITIAL_ROWS lines and
tries each block on a fast path first: one np.loadtxt call converts the
whole block in C.  The per-line loop, which reads each token as
``float()`` does, runs only on a block the fast path rejects, and is the
only code that handles malformed lines and reports errors.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from typing import IO, Iterable

import numpy as np

from .errors import DataError, FormatError

_INT_TOKEN = re.compile(r"^[+-]?\d+$")
_SPACE = re.compile(r"\s")

# Lines per parse block, and rows in the parse buffer before its first
# doubling.
_INITIAL_ROWS = 128

# Rows already this close to unit norm are left untouched, which makes
# unit_normalize exactly idempotent.
_UNIT_SLACK = 1e-14


@dataclass(frozen=True, eq=False)
class EmbeddingTable:
    """Immutable vocabulary-ordered matrix of word vectors.

    Attributes:
        words: Unique word strings, one per matrix row.
        matrix: Array of shape (len(words), dim), float64, read-only.
    """

    words: tuple[str, ...]
    matrix: np.ndarray
    _index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        matrix = np.asarray(self.matrix, dtype=np.float64)
        if matrix.ndim != 2:
            raise FormatError(f"embedding matrix must be 2-D, got {matrix.ndim}-D")
        if matrix.shape[0] != len(self.words):
            raise FormatError(
                f"{len(self.words)} words but {matrix.shape[0]} matrix rows"
            )
        if not np.all(np.isfinite(matrix)):
            raise FormatError("embedding matrix contains non-finite values")
        index = dict(zip(self.words, range(len(self.words))))
        if len(index) < len(self.words) or _SPACE.search("".join(self.words)):
            seen: set[str] = set()
            for word in self.words:  # name the first offending word
                if word in seen:
                    raise FormatError(f"duplicate word {word!r}")
                if _SPACE.search(word):
                    raise FormatError(f"word {word!r} contains whitespace")
                seen.add(word)
        matrix = matrix.copy()
        matrix.setflags(write=False)
        object.__setattr__(self, "words", tuple(self.words))
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "_index", index)

    @property
    def dim(self) -> int:
        return int(self.matrix.shape[1])

    def __len__(self) -> int:
        return len(self.words)

    def __contains__(self, word: str) -> bool:
        return word in self._index

    def row_index(self, word: str) -> int:
        try:
            return self._index[word]
        except KeyError:
            raise DataError(f"word {word!r} not in vocabulary") from None

    def lookup(self, word: str) -> np.ndarray:
        return self.matrix[self.row_index(word)]


def _is_header(tokens: list[str]) -> bool:
    """Whether a line's tokens are a `"<count> <dim>"` header."""
    return len(tokens) == 2 and all(_INT_TOKEN.match(t) for t in tokens)


class _TableBuilder:
    """Parse state carried from one block of lines to the next.

    Rows go into a float64 buffer that doubles when full; linenos keeps
    each row's line number for the non-finite check at the end.
    """

    def __init__(self) -> None:
        self.words: list[str] = []
        self.linenos: list[int] = []
        self.seen: set[str] = set()
        self.dim: int | None = None
        self.buf = np.empty((0, 0))
        self.header_possible = True  # until the first non-blank line

    def _set_dim(self, dim: int) -> None:
        self.dim = dim
        self.buf = np.empty((_INITIAL_ROWS, dim))

    def _reserve(self, rows: int) -> None:
        """Room for `rows` more rows, doubling the buffer as often as needed."""
        n = len(self.words)
        size = self.buf.shape[0]
        if n + rows > size:
            while n + rows > size:
                size *= 2
            grown = np.empty((size, self.dim))
            grown[:n] = self.buf[:n]
            self.buf = grown

    def add_block(self, block: list[tuple[int, str]]) -> bool:
        """Add a block of (line number, line) through one np.loadtxt call.

        Returns False, with the state unchanged, when anything in the
        block does not fit: a token numpy cannot read, a column count
        other than dim, a duplicate word or a line with no components.
        Non-finite rows are kept, as the per-line loop keeps them.
        """
        words: list[str] = []
        linenos: list[int] = []
        rests: list[str] = []
        header_possible = self.header_possible
        for lineno, raw in block:
            parts = raw.split(None, 1)
            if not parts:
                continue
            if header_possible:
                header_possible = False
                if _is_header(raw.split()):
                    continue
            if len(parts) == 1:
                return False
            words.append(parts[0])
            linenos.append(lineno)
            rests.append(parts[1])
        if words:
            if len(set(words)) < len(words) or not self.seen.isdisjoint(words):
                return False
            try:
                values = np.loadtxt(
                    rests, dtype=np.float64, comments=None, delimiter=None,
                    quotechar=None, ndmin=2,
                )
            except ValueError:
                return False
            dim = values.shape[1] if self.dim is None else self.dim
            if values.shape != (len(words), dim):
                return False
            if self.dim is None:
                self._set_dim(dim)
            self._reserve(len(words))
            n = len(self.words)
            self.buf[n : n + len(words)] = values
            self.words += words
            self.linenos += linenos
            self.seen.update(words)
        self.header_possible = header_possible
        return True

    def add_lines(self, block: list[tuple[int, str]]) -> str | None:
        """Add a block line by line; the message of its first bad line, if any.

        Each line's tokens go straight into the buffer, which parses them
        as ``float()`` does.  A non-finite row is kept: finish reports it.
        """
        for lineno, raw in block:
            tokens = raw.split()
            if not tokens:
                continue
            if self.header_possible:
                self.header_possible = False
                if _is_header(tokens):
                    continue
            word, values = tokens[0], tokens[1:]
            if not values:
                return f"line {lineno}: no vector components"
            if self.dim is None:
                self._set_dim(len(values))
            elif len(values) != self.dim:
                return f"line {lineno}: expected {self.dim} components, got {len(values)}"
            if word in self.seen:
                return f"line {lineno}: duplicate word {word!r}"
            self._reserve(1)
            try:
                self.buf[len(self.words)] = values
            except ValueError as exc:
                return f"line {lineno}: {exc}"
            self.seen.add(word)
            self.words.append(word)
            self.linenos.append(lineno)
        return None

    def finish(self, error: str | None) -> EmbeddingTable:
        # A non-finite row read before a structural error is the earlier error.
        matrix = self.buf[: len(self.words)]
        bad = np.flatnonzero(~np.isfinite(matrix).all(axis=1))
        if bad.size:
            row = int(bad[0])
            raise FormatError(
                f"line {self.linenos[row]}: non-finite value for {self.words[row]!r}"
            )
        if error is not None:
            raise FormatError(error)
        return EmbeddingTable(words=tuple(self.words), matrix=matrix)


def parse_embedding_text(stream: IO[str] | Iterable[str]) -> EmbeddingTable:
    """Parse the text embedding format into a table.

    The stream is read in blocks of at most _INITIAL_ROWS lines.  Each
    block is tried whole first: every line is split once into its word and
    the rest, and one np.loadtxt call converts all the rests, splitting in
    numpy's C tokenizer and converting with the correctly rounded
    PyOS_string_to_double that ``float()`` also uses.  A block that does
    not fit is parsed again, from the same state, by the per-line loop,
    which reads each token with ``float()`` (so it also takes "1_0" and
    non-ASCII digits) and is the only code that reports errors.  Errors
    are reported for the first offending line in file order.  Memory
    beyond the table is one block of text.

    Args:
        stream: Iterable of lines (an open file works).

    Returns:
        EmbeddingTable with words in file order.

    Raises:
        FormatError: on inconsistent dimensions (with line number),
            duplicate words, or non-finite values.
    """
    builder = _TableBuilder()
    lines = enumerate(stream, start=1)
    error: str | None = None
    while error is None:
        block = list(itertools.islice(lines, _INITIAL_ROWS))
        if not block:
            break
        if not builder.add_block(block):
            error = builder.add_lines(block)
    return builder.finish(error)


def write_embedding_text(table: EmbeddingTable, precision: int = 9) -> str:
    """Render a table in the text format with fixed-point components.

    Args:
        table: Table to write.
        precision: Decimal places per component, in [1, 17].
    """
    if not 1 <= precision <= 17:
        raise FormatError(f"precision must be in [1, 17], got {precision}")
    # "%" and format() share one float formatter: "%.9f" % v == f"{v:.9f}".
    fmt = "%s" + f" %.{precision}f" * table.dim
    lines = [fmt % (word, *row.tolist()) for word, row in zip(table.words, table.matrix)]
    return "\n".join(lines) + ("\n" if lines else "")


def unit_normalize(table: EmbeddingTable) -> EmbeddingTable:
    """Scale every row to unit Euclidean norm.

    Rows already within 1e-14 of unit norm are returned unchanged, so the
    operation is exactly idempotent.

    Raises:
        DataError: if any row has zero norm (names the word).
    """
    norms = np.linalg.norm(table.matrix, axis=1)
    zero = np.nonzero(norms == 0.0)[0]
    if zero.size:
        raise DataError(f"cannot normalize zero vector for word {table.words[zero[0]]!r}")
    scale = np.where(np.abs(norms - 1.0) <= _UNIT_SLACK, 1.0, norms)
    return EmbeddingTable(words=table.words, matrix=table.matrix / scale[:, None])
