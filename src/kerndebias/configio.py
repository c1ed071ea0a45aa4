"""Loaders for the JSON/TSV input formats consumed by the CLI.

Every JSON object file -- a model, a sets file, a WEAT config -- is read
by read_json_object; load_model picks the loader by the file's "type",
and either loader returns a KernelBiasModel.
"""

from __future__ import annotations

import json
from pathlib import Path

from .errors import FormatError, checked_integer
from .evaluation import DEFAULT_PERMUTATIONS, DEFAULT_SEED, WeatConfig
from .linear import linear_model_from_dict
from .rkhs import KernelBiasModel, kernel_model_from_dict


def read_json_object(path: str | Path) -> dict:
    """The JSON object in a file; FormatError if it is not JSON or not an object."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise FormatError(f"{path}: expected a JSON object")
    return data


def _check_word_pairs(path: str | Path, key: str, pairs: object) -> None:
    """FormatError unless pairs is a list of [word, word] string pairs."""
    if not isinstance(pairs, list):
        raise FormatError(f"{path}: {key!r} must be a list of word pairs")
    for pair in pairs:
        if not (isinstance(pair, list) and len(pair) == 2 and all(isinstance(w, str) for w in pair)):
            raise FormatError(f"{path}: {key!r} must be word pairs, got {pair!r}")


def load_model(path: str | Path) -> tuple[KernelBiasModel, dict]:
    """A model file written by `fit`, and the dict it was parsed from.

    The dict keeps the fields the model does not hold (`pair_words`, a
    pre-image block), so a caller can read them or write the file back;
    `pair_words`, when present, is checked to be word pairs.
    """
    data = read_json_object(path)
    if "pair_words" in data:
        _check_word_pairs(path, "pair_words", data["pair_words"])
    if data.get("type") == "linear":
        return linear_model_from_dict(data), data
    if data.get("type") == "kernel":
        return kernel_model_from_dict(data), data
    raise FormatError(f"{path}: not a model file (type {data.get('type')!r})")


def load_sets_file(path: str | Path) -> tuple[list[list[str]], list[list[str]]]:
    """Sets file: {"defining_sets": [[a, b], ...], "equality_sets": [[...], ...]}."""
    data = read_json_object(path)
    defining = data.get("defining_sets")
    if not isinstance(defining, list) or not defining:
        raise FormatError(f"{path}: missing or empty 'defining_sets'")
    _check_word_pairs(path, "defining_sets", defining)
    equality = data.get("equality_sets", [])
    if not isinstance(equality, list):
        raise FormatError(f"{path}: 'equality_sets' must be a list")
    for group in equality:
        if not (isinstance(group, list) and all(isinstance(w, str) for w in group)):
            raise FormatError(f"{path}: equality sets must be word lists, got {group!r}")
    return defining, equality


def load_weat_config(path: str | Path) -> WeatConfig:
    """WEAT config: {"X": [...], "Y": [...], "A": [...], "B": [...], ...}."""
    data = read_json_object(path)
    lists = {}
    for key in ("X", "Y", "A", "B"):
        value = data.get(key)
        if not (isinstance(value, list) and value and all(isinstance(w, str) for w in value)):
            raise FormatError(f"{path}: missing or invalid word list {key!r}")
        lists[key] = tuple(value)
    numbers = {
        key: checked_integer(data.get(key, default), key)
        for key, default in (("permutations", DEFAULT_PERMUTATIONS), ("seed", DEFAULT_SEED))
    }
    return WeatConfig(
        x_words=lists["X"],
        y_words=lists["Y"],
        a_words=lists["A"],
        b_words=lists["B"],
        **numbers,
    )


def load_word_list(path: str | Path) -> list[str]:
    """One word per line; blank lines and '#' comments ignored.

    A JSON array file is also accepted.
    """
    text = Path(path).read_text(encoding="utf-8")
    stripped = text.lstrip()
    if stripped.startswith("["):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: invalid JSON: {exc}") from None
        if not all(isinstance(w, str) for w in data):
            raise FormatError(f"{path}: expected an array of strings")
        return list(data)
    words = []
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            words.append(line.split()[0])
    return words


def load_simlex_pairs(path: str | Path) -> list[tuple[str, str, float]]:
    """Tab-separated word1, word2, score rows; a header row is skipped."""
    pairs: list[tuple[str, str, float]] = []
    for lineno, line in enumerate(
        Path(path).read_text(encoding="utf-8").splitlines(), start=1
    ):
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) < 3:
            raise FormatError(f"{path}:{lineno}: expected 3 tab-separated fields")
        try:
            score = float(fields[2])
        except ValueError:
            if lineno == 1:
                continue  # header
            raise FormatError(f"{path}:{lineno}: bad score {fields[2]!r}") from None
        pairs.append((fields[0], fields[1], score))
    if not pairs:
        raise FormatError(f"{path}: no pairs found")
    return pairs
