"""Loaders for the JSON/TSV input formats consumed by the CLI."""

from __future__ import annotations

import json
from pathlib import Path

from .errors import FormatError
from .evaluation import DEFAULT_PERMUTATIONS, DEFAULT_SEED, WeatConfig


def _load_json(path: str | Path) -> dict:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise FormatError(f"{path}: expected a JSON object")
    return data


def load_sets_file(path: str | Path) -> tuple[list[list[str]], list[list[str]]]:
    """Sets file: {"defining_sets": [[a, b], ...], "equality_sets": [[...], ...]}."""
    data = _load_json(path)
    defining = data.get("defining_sets")
    if not isinstance(defining, list) or not defining:
        raise FormatError(f"{path}: missing or empty 'defining_sets'")
    for pair in defining:
        if not (isinstance(pair, list) and len(pair) == 2 and all(isinstance(w, str) for w in pair)):
            raise FormatError(f"{path}: defining sets must be word pairs, got {pair!r}")
    equality = data.get("equality_sets", [])
    if not isinstance(equality, list):
        raise FormatError(f"{path}: 'equality_sets' must be a list")
    for group in equality:
        if not (isinstance(group, list) and all(isinstance(w, str) for w in group)):
            raise FormatError(f"{path}: equality sets must be word lists, got {group!r}")
    return defining, equality


def load_weat_config(path: str | Path) -> WeatConfig:
    """WEAT config: {"X": [...], "Y": [...], "A": [...], "B": [...], ...}."""
    data = _load_json(path)
    lists = {}
    for key in ("X", "Y", "A", "B"):
        value = data.get(key)
        if not (isinstance(value, list) and value and all(isinstance(w, str) for w in value)):
            raise FormatError(f"{path}: missing or invalid word list {key!r}")
        lists[key] = tuple(value)
    numbers = {}
    for key, default in (("permutations", DEFAULT_PERMUTATIONS), ("seed", DEFAULT_SEED)):
        value = data.get(key, default)
        try:
            numbers[key] = int(value)
        except (TypeError, ValueError, OverflowError):
            raise FormatError(f"{path}: {key!r} must be an integer, got {value!r}") from None
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
