"""The package's input and model files.

This module alone knows the model file: model_to_dict writes a
KernelBiasModel as a "linear" file (its orthonormal basis) or a "kernel"
file (spec, pairs and dual coefficients), and model_from_dict reads
either back.  Every JSON object file -- a model, a sets file, a WEAT
config -- is read by read_json_object.
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

# The arrays of each model-file type, with their shapes over k (bias
# directions), dim (input dimension) and n (defining pairs).
_MODEL_ARRAYS = {
    "linear": {"basis": ("k", "dim"), "eigenvalues": ("k",)},
    "kernel": {
        "eigenvalues": ("k",),
        "alphas": ("k", "n"),
        "pairs_a": ("n", "dim"),
        "pairs_b": ("n", "dim"),
    },
}

# Largest |B B^T - I| entry accepted for a linear file's basis; fitted
# bases are within 1e-15.
_ORTHONORMAL_TOL = 1e-10


def read_json_object(path: str | Path) -> dict:
    """The JSON object in a file; FormatError if it is not JSON or not an object."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: invalid JSON: {exc}") from None
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
    """Rebuild a model from its file form, checking fields, shapes and values.

    Raises:
        FormatError: on an unknown "type", a missing field, a non-numeric
            or non-finite array, a k, dim or discarded_negative that is not
            an integer, a gram_scale that is not a finite positive number,
            array shapes that disagree with _MODEL_ARRAYS, or a linear
            basis that is not orthonormal within 1e-10.
    """
    kind = data.get("type")
    if not isinstance(kind, str) or kind not in _MODEL_ARRAYS:
        raise FormatError(f"not a model file (type {kind!r})")
    shapes = _MODEL_ARRAYS[kind]
    try:
        arrays = {name: np.array(data[name], dtype=np.float64) for name in shapes}
        sizes = {"k": checked_integer(data["k"], "k"), "dim": checked_integer(data["dim"], "dim")}
        if kind == "kernel":
            kernel_fields = {
                "spec": KernelSpec.from_dict(data["kernel"]),
                "gram_scale": checked_finite(data.get("gram_scale", 1.0), "gram_scale"),
                "discarded_negative": checked_integer(
                    data.get("discarded_negative", 0), "discarded_negative"
                ),
            }
    except KeyError as exc:
        raise FormatError(f"{kind} model is missing field {exc.args[0]!r}") from None
    except (TypeError, ValueError) as exc:
        raise FormatError(f"malformed {kind} model: {exc}") from None
    for name, axes in shapes.items():  # n: the first size found on an "n" axis
        for axis, size in zip(axes, arrays[name].shape):
            sizes.setdefault(axis, size)
    if min(sizes.values()) < 1 or any(
        arrays[name].shape != tuple(sizes.get(axis) for axis in axes)
        for name, axes in shapes.items()
    ):
        found = ", ".join(f"{name} {arr.shape}" for name, arr in arrays.items())
        expected = ", ".join(f"{name} ({', '.join(axes)})" for name, axes in shapes.items())
        raise FormatError(
            f"{kind} model shapes disagree: {found}, dim {sizes['dim']}, k {sizes['k']}; "
            f"expected {expected}, each size at least 1"
        )
    if not all(np.all(np.isfinite(arr)) for arr in arrays.values()):
        raise FormatError(f"{kind} model contains non-finite values")
    if kind == "linear":
        basis = arrays["basis"]
        error = float(np.max(np.abs(basis @ basis.T - np.eye(sizes["k"]))))
        if error > _ORTHONORMAL_TOL:
            raise FormatError(
                f"linear model basis is not orthonormal: max |B B^T - I| = {error:.3g}"
            )
        return KernelBiasModel.from_basis(basis, arrays["eigenvalues"])
    gram_scale = kernel_fields["gram_scale"]
    if gram_scale <= 0.0:
        raise FormatError(f"kernel model gram_scale must be positive, got {gram_scale}")
    return KernelBiasModel(**arrays, **kernel_fields)


def load_model(path: str | Path) -> tuple[KernelBiasModel, dict]:
    """A model file written by `fit`, and the dict it was parsed from.

    Fields the model does not hold, such as entries that earlier versions
    wrote, are left unread in the dict, so a caller can write the file
    back.  Every FormatError names the file.
    """
    data = read_json_object(path)
    try:
        return model_from_dict(data), data
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
