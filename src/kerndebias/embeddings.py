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

read_embedding_file parses a table file once and keeps the result on
disk, in $XDG_CACHE_HOME/kerndebias/tables-v2/ (~/.cache/kerndebias/...
when XDG_CACHE_HOME is unset): one entry file per file path, at most
_CACHE_ENTRIES of them, least recently used removed first.  An entry
holds the bytes the table was parsed from, the matrix as little-endian
float64, the words in UTF-8 and _TRAILER.  It is used only while the
file's bytes equal its copy of them, so an edited file is always parsed
again, and deleting the directory at any time is always safe.  An entry
takes the file's size plus 8 bytes per component of disk.

Tables are written with the bytes of ("%s" + " %.{p}f" * dim) % (word,
*row) per line, in blocks of at most _WRITE_COMPONENTS components.
iter_embedding_text yields the encoded blocks, which is how `apply` streams
its table with bounded memory; write_embedding_text joins the same blocks
into one string, so the two give the same bytes.  Each block is formatted
in numpy, not value by value: "%.pf" prints |v|·10^p rounded to an integer,
ties to even, and that integer is computed exactly in int64 from Dekker's
two-product of |v| and 10^p (see _scaled_integers), so the digits are
those of "%" for every finite value.  Only a block holding a |v|·10^p of
2^62 or more, out of int64's reach, is formatted with "%" itself; unit
rows never are, at any precision from 1 to 17.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import os
import re
import stat
import struct
import zlib
from dataclasses import dataclass, field
from typing import IO, BinaryIO, Iterable, Iterator, Sequence

import numpy as np

from .errors import DataError, FormatError

_INT_TOKEN = re.compile(r"^[+-]?\d+$")
_SPACE = re.compile(r"\s")

# Lines per parse block.
_INITIAL_ROWS = 128

# Entries kept by read_embedding_file, the size of the reads that
# compare a file with an entry's copy of it, and an entry's trailer: the
# sizes of its source copy, matrix and words, and their crc32.
_CACHE_ENTRIES = 8
_COMPARE_BYTES = 1 << 20
_TRAILER = struct.Struct("<QQQI")

# Components per block of iter_embedding_text, and of unit_normalize's
# squares.  A text block's work arrays and text take about 110 bytes per
# component at precision 9 and 150 at 17, 7 to 10 MB.
_WRITE_COMPONENTS = 1 << 16

# Veltkamp's splitter for float64 (2^27 + 1), and the bound on |v|·10^p
# below which _format_block rounds in int64.
_SPLIT = 134217729.0
_FAST_LIMIT = 2.0**62

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
        words = tuple(self.words)
        matrix = np.asarray(self.matrix, dtype=np.float64)
        index = _checked_index(words, matrix)
        _own(self, words, matrix.copy(), index)

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


def _checked_index(words: tuple[str, ...], matrix: np.ndarray) -> dict[str, int]:
    """Each word's row, once matrix is checked to be a finite float64
    matrix of one row per word, and the words unique and free of
    whitespace."""
    if matrix.ndim != 2:
        raise FormatError(f"embedding matrix must be 2-D, got {matrix.ndim}-D")
    if matrix.shape[0] != len(words):
        raise FormatError(f"{len(words)} words but {matrix.shape[0]} matrix rows")
    if not np.all(np.isfinite(matrix)):
        raise FormatError("embedding matrix contains non-finite values")
    index = dict(zip(words, range(len(words))))
    if len(index) < len(words) or _SPACE.search("".join(words)):
        seen: set[str] = set()
        for word in words:  # name the first offending word
            if word in seen:
                raise FormatError(f"duplicate word {word!r}")
            if _SPACE.search(word):
                raise FormatError(f"word {word!r} contains whitespace")
            seen.add(word)
    return index


def _own(
    table: EmbeddingTable, words: tuple[str, ...], matrix: np.ndarray, index: dict[str, int]
) -> EmbeddingTable:
    """table made of checked parts; matrix, which no caller holds, is made
    read-only and kept without a copy."""
    matrix.setflags(write=False)
    object.__setattr__(table, "words", words)
    object.__setattr__(table, "matrix", matrix)
    object.__setattr__(table, "_index", index)
    return table


def _new_table(
    words: tuple[str, ...], matrix: np.ndarray, index: dict[str, int] | None = None
) -> EmbeddingTable:
    """An EmbeddingTable that keeps matrix, a new float64 array, without
    copying it: checked here unless the index of its checked words is given."""
    if index is None:
        index = _checked_index(words, matrix)
    return _own(object.__new__(EmbeddingTable), words, matrix, index)


def _is_header(tokens: list[str]) -> bool:
    """Whether a line's tokens are a `"<count> <dim>"` header."""
    return len(tokens) == 2 and all(_INT_TOKEN.match(t) for t in tokens)


class _TableBuilder:
    """Parse state carried from one block of lines to the next.

    rows holds the parsed rows as 2-D float64 arrays, one per block, each
    checked finite when it is read; finish joins them once.
    """

    def __init__(self) -> None:
        self.words: list[str] = []
        self.rows: list[np.ndarray] = []
        self.seen: set[str] = set()
        self.dim: int | None = None
        self.header_possible = True  # until the first non-blank line

    def add_block(self, block: list[tuple[int, str]]) -> bool:
        """Add a block of (line number, line) through one np.loadtxt call.

        Returns False, with the state unchanged, when anything in the
        block does not fit: a token numpy cannot read, a non-finite value,
        a column count other than dim, a duplicate word or a line with no
        components.
        """
        words: list[str] = []
        rests: list[str] = []
        header_possible = self.header_possible
        for _, raw in block:
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
            if values.shape != (len(words), dim) or not np.isfinite(values).all():
                return False
            self.dim = dim
            self.rows.append(values)
            self.words += words
            self.seen.update(words)
        self.header_possible = header_possible
        return True

    def add_lines(self, block: list[tuple[int, str]]) -> str | None:
        """Add a block line by line; the message of its first bad line, if any.

        Each line's tokens are converted by np.array, which parses them as
        ``float()`` does, and a non-finite row is reported at its line.
        """
        rows: list[np.ndarray] = []
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
                self.dim = len(values)
            elif len(values) != self.dim:
                return f"line {lineno}: expected {self.dim} components, got {len(values)}"
            if word in self.seen:
                return f"line {lineno}: duplicate word {word!r}"
            try:
                row = np.array(values, dtype=np.float64)
            except ValueError as exc:
                return f"line {lineno}: {exc}"
            if not np.isfinite(row).all():
                return f"line {lineno}: non-finite value for {word!r}"
            self.seen.add(word)
            self.words.append(word)
            rows.append(row)
        if rows:
            self.rows.append(np.stack(rows))
        return None

    def finish(self, error: str | None) -> EmbeddingTable:
        if error is not None:
            raise FormatError(error)
        matrix = np.concatenate(self.rows) if self.rows else np.empty((0, 0))
        return _new_table(tuple(self.words), matrix)


def parse_embedding_text(stream: IO[str] | Iterable[str]) -> EmbeddingTable:
    """Parse the text embedding format into a table.

    The stream is read in blocks of at most _INITIAL_ROWS lines.  Each
    block is tried whole first: every line is split once into its word and
    the rest, and one np.loadtxt call converts all the rests, splitting in
    numpy's C tokenizer and converting with the correctly rounded
    PyOS_string_to_double that ``float()`` also uses.  A block that does
    not fit, or holds a non-finite value, is parsed again, from the same
    state, by the per-line loop, which reads each token with ``float()``
    (so it also takes "1_0" and non-ASCII digits) and is the only code
    that reports errors.  Errors are reported for the first offending line
    in file order.  The rows are kept as one array per block and joined
    once at the end; memory beyond that is one block of text.

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


def read_embedding_file(path: str) -> EmbeddingTable:
    """parse_embedding_text of a UTF-8 file, through the on-disk table cache.

    A regular file is looked up by its real path in the cache directory
    (see the module docstring).  Its entry is used when the file's bytes
    equal the entry's copy of them, compared _COMPARE_BYTES at a time,
    and its matrix and words match the entry's crc32; the matrix is read
    straight into the table's array, and checked once, as EmbeddingTable
    checks it.  Otherwise the file is parsed through
    a tee that copies every byte parsed into a new entry file, which gets
    the matrix, the words and the trailer and replaces the old entry only
    once the parse has succeeded.  A FIFO or other non-regular file is
    parsed without the cache, and so is every file when the cache fails:
    its OSErrors never reach the caller.

    Raises:
        What parse_embedding_text of ``open(path, encoding="utf-8")``
        raises, with the same messages.
    """
    with open(path, "rb") as source:
        if stat.S_ISREG(os.fstat(source.fileno()).st_mode):
            try:
                root = _cache_root()
                entry = os.path.join(root, _entry_name(path))
                table = _cached_table(entry, source)
                if table is not None:
                    return table
                source.seek(0)
                return _parse_into_entry(source, root, entry)
            except OSError:
                source.seek(0)
        with io.TextIOWrapper(source, encoding="utf-8") as text:
            return parse_embedding_text(text)


def _cache_root() -> str:
    """The cache directory, made with mode 0700 where missing."""
    home = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(home):
        home = os.path.join(os.path.expanduser("~"), ".cache")
        if not os.path.isabs(home):
            raise OSError("no home directory for the table cache")
    root = os.path.join(home, "kerndebias", "tables-v2")
    os.makedirs(os.path.dirname(root), mode=0o700, exist_ok=True)
    os.makedirs(root, mode=0o700, exist_ok=True)
    return root


def _entry_name(path: str) -> str:
    """An entry's name: the crc32 of its file's real path.  Two paths with
    one name share an entry, each replacing the other's."""
    return f"{zlib.crc32(os.fsencode(os.path.realpath(path))):08x}"


def _cached_table(entry: str, source: BinaryIO) -> EmbeddingTable | None:
    """The table kept in entry, or None unless it is whole and was parsed
    from exactly the bytes of source.

    The entry file is opened once, so all of it comes from one entry even
    while another process replaces it.  Its trailer's sizes must add up
    to the file's and the first must be source's; then the source copy is
    compared, and the matrix and words are read once and checked against
    the crc.  A hit marks the entry as just used.
    """
    try:
        handle = open(entry, "rb")
    except FileNotFoundError:
        return None
    with handle:
        size = os.fstat(handle.fileno()).st_size
        if size < _TRAILER.size:
            return None
        handle.seek(size - _TRAILER.size)
        n_source, n_matrix, n_words, crc = _TRAILER.unpack(handle.read(_TRAILER.size))
        if n_source + n_matrix + n_words + _TRAILER.size != size or (
            n_source != os.fstat(source.fileno()).st_size
        ):
            return None
        handle.seek(0)
        if n_matrix % 8 or not _same_bytes(source, handle, n_source):
            return None
        matrix = np.empty(n_matrix // 8, "<f8")
        if handle.readinto(matrix) != n_matrix:
            return None
        words = handle.read(n_words)
    if zlib.crc32(words, zlib.crc32(matrix)) != crc:
        return None
    try:
        names = tuple(words.decode("utf-8").split("\n")) if words else ()
        table = _new_table(names, matrix.reshape(len(names), -1 if names else 0))
    except (ValueError, FormatError):
        return None
    with contextlib.suppress(OSError):
        os.utime(entry)
    return table


def _same_bytes(a: BinaryIO, b: BinaryIO, size: int) -> bool:
    """Whether two binary files, read from where they stand, hold the same
    next size bytes.  They are read _COMPARE_BYTES at a time into two
    buffers made once."""
    first = bytearray(min(size, _COMPARE_BYTES))
    second = bytearray(len(first))
    while size > 0:
        if size < len(first):
            del first[size:], second[size:]
        n = len(first)
        if a.readinto(first) != n or b.readinto(second) != n or first != second:
            return False
        size -= n
    return True


class _Tee(io.RawIOBase):
    """Reads of a binary file, each also written to a copy.

    A failed write stops the copy, not the reads: ``copied`` says whether
    the copy holds every byte read.
    """

    def __init__(self, source: BinaryIO, copy: BinaryIO) -> None:
        super().__init__()
        self._source = source
        self._copy = copy
        self.copied = True

    def readable(self) -> bool:
        return True

    def fileno(self) -> int:  # the parsed file, for callers that stat it
        return self._source.fileno()

    def readinto(self, buffer) -> int:
        n = self._source.readinto(buffer)
        if n and self.copied:
            try:
                self._copy.write(memoryview(buffer)[:n])
            except OSError:
                self.copied = False
        return n


def _parse_into_entry(source: BinaryIO, root: str, entry: str) -> EmbeddingTable:
    """Parse source, keeping the result as entry when all of it can be written.

    The tee copies the bytes parsed into a file named after this process.
    Once the parse has succeeded, the matrix, the words and the trailer
    follow them, and os.replace moves the file into place; then the least
    recently used entries beyond _CACHE_ENTRIES are removed.
    """
    work = os.path.join(root, f".tmp-{os.getpid()}")
    try:
        with open(work, "wb") as copy:
            tee = _Tee(source, copy)
            with io.TextIOWrapper(io.BufferedReader(tee), encoding="utf-8") as text:
                table = parse_embedding_text(text)
            with contextlib.suppress(OSError):
                if tee.copied:
                    words = "\n".join(table.words).encode("utf-8")
                    matrix = table.matrix.astype("<f8", copy=False)
                    crc = zlib.crc32(words, zlib.crc32(matrix))
                    trailer = _TRAILER.pack(copy.tell(), matrix.nbytes, len(words), crc)
                    for part in (matrix, words, trailer):
                        copy.write(part)
                    copy.close()
                    os.replace(work, entry)
                    _evict(root)
    finally:
        with contextlib.suppress(OSError):
            os.unlink(work)
    return table


def _evict(root: str) -> None:
    """Remove all but the _CACHE_ENTRIES most recently used entries."""
    with os.scandir(root) as scan:
        entries = sorted(scan, key=lambda e: e.stat().st_mtime_ns, reverse=True)
    for old in entries[_CACHE_ENTRIES:]:
        os.unlink(old.path)


def iter_embedding_text(
    words: Sequence[str], matrix: np.ndarray, precision: int = 9
) -> Iterator[bytes]:
    """The UTF-8 text of the rows of matrix, each led by its word, in blocks
    of at most _WRITE_COMPONENTS components.

    Joined, the blocks are write_embedding_text's text, encoded.  The
    precision, the shapes and the finiteness of matrix are checked when
    this is called, before any block is made.

    Raises:
        FormatError: on a precision outside [1, 17], a matrix that is not
            one row per word, or a non-finite component.
    """
    if not 1 <= precision <= 17:
        raise FormatError(f"precision must be in [1, 17], got {precision}")
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] != len(words):
        raise FormatError(f"{len(words)} words but a matrix of shape {matrix.shape}")
    rows = max(1, _WRITE_COMPONENTS // max(1, matrix.shape[1]))
    starts = range(0, len(words), rows)
    if not all(np.isfinite(matrix[i : i + rows]).all() for i in starts):
        raise FormatError("embedding matrix contains non-finite values")
    return (_format_block(words[i : i + rows], matrix[i : i + rows], precision) for i in starts)


def _format_block(words: Sequence[str], block: np.ndarray, precision: int) -> bytes:
    """Lines of ("%s" + " %.{precision}f" * dim) % (word, *row), encoded.

    "%.pf" prints the exact value of |v|·10^p rounded to the nearest
    integer n, ties to even, with a "-" wherever v's sign bit is set (so
    -0.0 and tiny negatives print as "-0.000...").  Here n is exact too:
    Dekker's two-product gives |v|·10^p as hi + lo with no error, and
    exact float comparisons of lo with the half-way points around rint(hi)
    decide the rounding and its ties (_scaled_integers).  That needs
    |v|·10^p < 2^62, so that n fits int64; a block holding a larger value
    goes to _percent_block.  The digits of n are laid out in one uint8
    cell matrix: per value a space, a sign, a fixed number of integer
    digits, a point and p decimals, and a newline per row.  One boolean
    mask drops the unused sign and leading-zero cells, and the rows are
    joined with their words.
    """
    scale = 10.0 ** precision
    magnitude = np.abs(block)
    with np.errstate(over="ignore"):
        hi = magnitude * scale
    if hi.size and hi.max() >= _FAST_LIMIT:
        return _percent_block(words, block, precision)
    n = _scaled_integers(magnitude, hi, scale)
    del magnitude, hi
    int_digits = len(str(int(n.max(initial=0)) // 10**precision))
    width = int_digits + precision + 3
    rows, dim = block.shape
    cells = np.empty((rows, dim * width + 1), np.uint8)
    keep = np.ones(cells.shape, bool)
    # Views of the cells of each value; the last column is the newline.
    value_cells = cells[:, :-1].reshape(rows, dim, width)
    value_keep = keep[:, :-1].reshape(rows, dim, width)
    cells[:, -1] = ord("\n")
    value_cells[..., 0] = ord(" ")
    value_cells[..., 1] = ord("-")
    value_cells[..., 2 + int_digits] = ord(".")
    # Not np.signbit(block, out=...): numpy 2.4 writes a strided out wrongly.
    value_keep[..., 1] = np.signbit(block)
    digits = [*range(width - 1, 2 + int_digits, -1), *range(1 + int_digits, 1, -1)]
    rest = n
    for k, cell in enumerate(digits):
        if k > precision:  # a leading zero of the integer part is dropped
            np.greater_equal(n, 10**k, out=value_keep[..., cell])
        quotient = rest // 10
        value_cells[..., cell] = rest - quotient * 10 + ord("0")
        rest = quotient
    body = memoryview(cells[keep])
    ends = np.cumsum(np.count_nonzero(keep, axis=1)).tolist()
    parts: list = []
    start = 0
    for word, end in zip(words, ends):
        parts += (word.encode(), body[start:end])
        start = end
    return b"".join(parts)


def _scaled_integers(magnitude: np.ndarray, hi: np.ndarray, scale: float) -> np.ndarray:
    """The int64 n = round(magnitude·scale), ties to even, exactly.

    hi = fl(a·s) and lo = a·s − hi are Dekker's two-product of a and s:
    both are split into 26-bit halves (Veltkamp) whose products are
    exact, so hi + lo equals a·s, and |lo| <= ulp(hi)/2.  Then n0 =
    rint(hi) and f = hi − n0 are exact, with |f| <= 1/2.  Where hi >= 2^53,
    hi is even and f is 0, and lo may exceed 1/2: rint(lo) moves to n0
    (its ties to even keep the sum's), and what is left of lo is at most
    1/2.  a·s − n0 = f + lo then lies in (−1, 1), so n is n0, n0 + 1 when
    lo > 1/2 − f, or n0 − 1 when lo < −1/2 − f; where lo equals either
    edge, a·s is half-way and n is the even neighbour.  The edges are
    exact wherever lo can reach them (f and 1/2 are multiples of
    ulp(hi) <= 1/2 there), so every comparison is exact.  Needs
    a·s < 2^62, so that n fits int64, and no underflow in the products
    where they decide a tie (a >= 1/(2s), far above the subnormals).
    """
    s_hi, s_lo = _split(scale)
    a_hi, a_lo = _split(magnitude)
    lo = a_hi * s_hi - hi
    lo += a_hi * s_lo
    lo += a_lo * s_hi
    lo += a_lo * s_lo
    whole = np.rint(hi)
    frac = hi - whole
    carry = np.rint(lo)
    lo -= carry
    n = whole.astype(np.int64) + carry.astype(np.int64)
    odd = (n & 1).astype(bool)
    edge = 0.5 - frac
    n += (lo > edge) | ((lo == edge) & odd)
    edge -= 1.0
    n -= (lo < edge) | ((lo == edge) & odd)
    return n


def _split(x):
    """Veltkamp's split of float64 x into hi + lo, each of at most 26 bits."""
    c = x * _SPLIT
    hi = c - (c - x)
    return hi, x - hi


def _percent_block(words: Sequence[str], block: np.ndarray, precision: int) -> bytes:
    """_format_block's text made with "%", one row at a time."""
    # "%" and format() share one float formatter: "%.9f" % v == f"{v:.9f}".
    fmt = "%s" + f" %.{precision}f" * block.shape[1] + "\n"
    return "".join([fmt % (word, *row) for word, row in zip(words, block.tolist())]).encode()


def write_embedding_text(table: EmbeddingTable, precision: int = 9) -> str:
    """Render a table in the text format with fixed-point components.

    Each line is ("%s" + " %.{precision}f" * dim) % (word, *row), to the
    byte: every component is rounded exactly, ties to even (see
    _format_block).  The text is the blocks of iter_embedding_text, joined
    and decoded.

    Args:
        table: Table to write.
        precision: Decimal places per component, in [1, 17].
    """
    return b"".join(iter_embedding_text(table.words, table.matrix, precision)).decode("utf-8")


def unit_normalize(table: EmbeddingTable) -> EmbeddingTable:
    """Scale every row to unit Euclidean norm.

    Rows already within 1e-14 of unit norm are returned unchanged, so the
    operation is exactly idempotent.

    Raises:
        DataError: if any row has zero norm (names the word).
    """
    matrix = table.matrix
    # np.linalg.norm(matrix, axis=1)'s arithmetic, sqrt(add.reduce(x * x)),
    # a block of rows at a time, so no temporary is the matrix's size.
    rows = max(1, _WRITE_COMPONENTS // max(1, matrix.shape[1]))
    squares = np.empty((min(rows, len(matrix)), matrix.shape[1]))
    norms = np.empty(len(matrix))
    for start in range(0, len(matrix), rows):
        block = matrix[start : start + rows]
        part = squares[: len(block)]
        np.multiply(block, block, out=part)
        np.add.reduce(part, axis=1, out=norms[start : start + len(block)])
    np.sqrt(norms, out=norms)
    zero = np.nonzero(norms == 0.0)[0]
    if zero.size:
        raise DataError(f"cannot normalize zero vector for word {table.words[zero[0]]!r}")
    scale = np.where(np.abs(norms - 1.0) <= _UNIT_SLACK, 1.0, norms)
    # Finite rows divided by their positive norms stay finite.
    return _new_table(table.words, matrix / scale[:, None], table._index)
