"""The package's input and model files.

This module alone knows the model file: model_to_dict writes a
KernelBiasModel as a "linear" file (its orthonormal basis) or a "kernel"
file (spec, pairs and dual coefficients), and model_from_dict reads
either back; load_model also gives the type to write it back as.  The
reader only decodes the file; KernelBiasModel checks the model.  Every
JSON file is decoded by _decode_json, and every JSON object file -- a
model, a sets file, a WEAT config -- read by read_json_object.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from . import evaluation
from .errors import FormatError, checked_finite, checked_integer
from .kernels import KernelSpec
from .rkhs import KernelBiasModel

# The array fields of each model-file type, in the order a file holds them.
_MODEL_ARRAYS = {
    "linear": ("basis", "eigenvalues"),
    "kernel": ("eigenvalues", "alphas", "pairs_a", "pairs_b"),
}


def _decode_json(path: str | Path, text: str):
    """The JSON value of a file's text; FormatError naming the file if it is not JSON."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: invalid JSON: {exc}") from None


def read_json_object(path: str | Path) -> dict:
    """The JSON object in a file; FormatError if it is not JSON or not an object."""
    data = _decode_json(path, Path(path).read_text(encoding="utf-8"))
    if not isinstance(data, dict):
        raise FormatError(f"{path}: expected a JSON object")
    return data


def model_to_dict(model: KernelBiasModel, kind: str) -> dict:
    """The file form of a model: kind "linear" stores the basis
    input_directions(), kind "kernel" the spec, pairs and alphas."""
    if kind == "linear":
        return {
            "type": "linear",
            "k": model.k,
            "dim": model.dim,
            "basis": model.input_directions().tolist(),
            "eigenvalues": model.eigenvalues.tolist(),
        }
    return {
        "type": "kernel",
        "kernel": model.spec.to_dict(),
        "k": model.k,
        "dim": model.dim,
        **{name: getattr(model, name).tolist() for name in _MODEL_ARRAYS["kernel"]},
        "gram_scale": model.gram_scale,
        "discarded_negative": model.discarded_negative,
    }


def model_from_dict(data: dict) -> KernelBiasModel:
    """Rebuild a model from its file form: decode each field and check its
    JSON type, build the model, which checks itself, and check the file's k
    and dim against it.

    Raises:
        FormatError: on an unknown "type", a missing field, a non-numeric
            array, a k, dim or discarded_negative that is not an integer,
            a gram_scale that is not a finite number, or a k or dim below 1
            or not the model's; and as KernelBiasModel raises it.
    """
    kind = data.get("type")
    if not isinstance(kind, str) or kind not in _MODEL_ARRAYS:
        raise FormatError(f"not a model file (type {kind!r})")
    try:
        fields = {name: np.array(data[name], dtype=np.float64) for name in _MODEL_ARRAYS[kind]}
        k, dim = (checked_integer(data[name], name) for name in ("k", "dim"))
        if kind == "kernel":
            fields.update(
                spec=KernelSpec.from_dict(data["kernel"]),
                gram_scale=checked_finite(data.get("gram_scale", 1.0), "gram_scale"),
                discarded_negative=checked_integer(
                    data.get("discarded_negative", 0), "discarded_negative"
                ),
            )
    except KeyError as exc:
        raise FormatError(f"{kind} model is missing field {exc.args[0]!r}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"malformed {kind} model: {exc}") from None
    model = KernelBiasModel.from_basis(**fields) if kind == "linear" else KernelBiasModel(**fields)
    if min(k, dim) < 1 or (k, dim) != (model.k, model.dim):
        raise FormatError(f"{kind} model shapes disagree: the file's k {k} and dim {dim}, its "
                          f"arrays' k {model.k} and dim {model.dim}; each at least 1")
    return model


def load_model(path: str | Path) -> tuple[KernelBiasModel, str]:
    """A model file written by `fit`, and its "type", the kind that
    model_to_dict writes it back as.  Every FormatError names the file."""
    data = read_json_object(path)
    try:
        return model_from_dict(data), data["type"]
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from None


def load_sets_file(path: str | Path) -> tuple[list[list[str]], list[list[str]]]:
    """Sets file: {"defining_sets": [[a, b], ...], "equality_sets": [[...], ...]}."""
    data = read_json_object(path)
    defining = data.get("defining_sets")
    if not isinstance(defining, list) or not defining:
        raise FormatError(f"{path}: missing or empty 'defining_sets'")
    for pair in defining:
        if not (isinstance(pair, list) and len(pair) == 2 and all(isinstance(w, str) for w in pair)):
            raise FormatError(f"{path}: 'defining_sets' must be word pairs, got {pair!r}")
    equality = data.get("equality_sets", [])
    if not isinstance(equality, list):
        raise FormatError(f"{path}: 'equality_sets' must be a list")
    for group in equality:
        if not (isinstance(group, list) and all(isinstance(w, str) for w in group)):
            raise FormatError(f"{path}: equality sets must be word lists, got {group!r}")
    return defining, equality


def load_weat_config(path: str | Path) -> evaluation.WeatConfig:
    """WEAT config: {"X": [...], "Y": [...], "A": [...], "B": [...], ...}."""
    data = read_json_object(path)
    lists = {}
    for key in ("X", "Y", "A", "B"):
        value = data.get(key)
        if not (isinstance(value, list) and value and all(isinstance(w, str) for w in value)):
            raise FormatError(f"{path}: missing or invalid word list {key!r}")
        lists[key] = tuple(value)
    defaults = {"permutations": evaluation.DEFAULT_PERMUTATIONS, "seed": evaluation.DEFAULT_SEED}
    numbers = {key: checked_integer(data.get(key, value), key) for key, value in defaults.items()}
    return evaluation.WeatConfig(
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
    if text.lstrip().startswith("["):
        data = _decode_json(path, text)
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
    """Tab-separated word1, word2, score rows; blank lines are skipped, and
    so is the first non-blank line when its score is not a number (a
    header).

    Raises:
        FormatError: naming file:line, on a row with fewer than 3 fields or
            a score that is not a finite number.
    """
    pairs: list[tuple[str, str, float]] = []
    first = None  # the number of the first non-blank line
    for lineno, line in enumerate(
        Path(path).read_text(encoding="utf-8").splitlines(), start=1
    ):
        if not line.strip():
            continue
        first = first or lineno
        fields = line.split("\t")
        if len(fields) < 3:
            raise FormatError(f"{path}:{lineno}: expected 3 tab-separated fields")
        try:
            score = float(fields[2])
        except ValueError:
            if lineno == first:
                continue  # header
            raise FormatError(f"{path}:{lineno}: bad score {fields[2]!r}") from None
        if not math.isfinite(score):
            raise FormatError(f"{path}:{lineno}: score {fields[2]!r} is not finite")
        pairs.append((fields[0], fields[1], score))
    if not pairs:
        raise FormatError(f"{path}: no pairs found")
    return pairs
