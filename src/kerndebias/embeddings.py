"""Word-embedding tables: parsing, writing, normalization, subsetting.

The on-disk format is the common line-oriented text layout: one word per
line followed by its vector components, separated by whitespace.  An
optional `"<count> <dim>"` header line is detected and skipped.  All
arithmetic is 64-bit.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import IO, Iterable

import numpy as np

from .errors import DataError, FormatError

_INT_TOKEN = re.compile(r"^[+-]?\d+$")

# Rows in the parse buffer before its first doubling.
_INITIAL_ROWS = 1024

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
        index: dict[str, int] = {}
        for i, word in enumerate(self.words):
            if word in index:
                raise FormatError(f"duplicate word {word!r}")
            if re.search(r"\s", word):
                raise FormatError(f"word {word!r} contains whitespace")
            index[word] = i
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


def parse_embedding_text(stream: IO[str] | Iterable[str]) -> EmbeddingTable:
    """Parse the text embedding format into a table.

    Each line's tokens go straight into a preallocated float64 buffer,
    which parses them as ``float()`` does; the buffer doubles when full.
    Errors are reported for the first offending line in file order.

    Args:
        stream: Iterable of lines (an open file works).

    Returns:
        EmbeddingTable with words in file order.

    Raises:
        FormatError: on inconsistent dimensions (with line number),
            duplicate words, or non-finite values.
    """
    words: list[str] = []
    linenos: list[int] = []
    seen: set[str] = set()
    dim: int | None = None
    buf = np.empty((0, 0))
    error: str | None = None

    for lineno, raw in enumerate(stream, start=1):
        line = raw.rstrip("\n").rstrip("\r")
        if not line.strip():
            continue
        tokens = line.split()
        if (
            dim is None
            and not words
            and len(tokens) == 2
            and all(_INT_TOKEN.match(t) for t in tokens)
        ):
            continue  # "<count> <dim>" header
        word, values = tokens[0], tokens[1:]
        if not values:
            error = f"line {lineno}: no vector components"
            break
        if dim is None:
            dim = len(values)
            buf = np.empty((_INITIAL_ROWS, dim))
        elif len(values) != dim:
            error = f"line {lineno}: expected {dim} components, got {len(values)}"
            break
        if word in seen:
            error = f"line {lineno}: duplicate word {word!r}"
            break
        n = len(words)
        if n == buf.shape[0]:
            grown = np.empty((2 * n, dim))
            grown[:n] = buf
            buf = grown
        try:
            buf[n] = values
        except ValueError as exc:
            error = f"line {lineno}: {exc}"
            break
        seen.add(word)
        words.append(word)
        linenos.append(lineno)

    # A non-finite row read before a structural error is the earlier error.
    matrix = buf[: len(words)]
    bad = np.flatnonzero(~np.isfinite(matrix).all(axis=1))
    if bad.size:
        row = int(bad[0])
        raise FormatError(f"line {linenos[row]}: non-finite value for {words[row]!r}")
    if error is not None:
        raise FormatError(error)
    return EmbeddingTable(words=tuple(words), matrix=matrix)


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


def subset(
    table: EmbeddingTable, words: Iterable[str]
) -> tuple[EmbeddingTable, list[str]]:
    """Extract the requested words that exist, in request order.

    Returns:
        (sub-table, missing) where missing lists requested words absent
        from the vocabulary.  Missing words are reported, not fatal.
    """
    keep: list[str] = []
    missing: list[str] = []
    seen: set[str] = set()
    for word in words:
        if word in seen:
            continue
        seen.add(word)
        if word in table:
            keep.append(word)
        else:
            missing.append(word)
    if keep:
        rows = np.vstack([table.lookup(w) for w in keep])
    else:
        rows = np.zeros((0, table.dim))
    return EmbeddingTable(words=tuple(keep), matrix=rows), missing
