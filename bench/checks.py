"""Property checks on each stage's output.

The checks follow from the planted bias, not from reference outputs, so
they hold under legitimate numeric changes to the program (another
eigensolver, another SVM solver).  Eigenvalues are compared with numpy's
``eigvalsh`` of matrices the benchmark builds itself.  A corrected
evaluation is judged against the raw stage of the same kind in the same
sequence.

Each check returns None when the stage passes and a message otherwise.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np

from gen import Inputs
from workloads import Stage

EIG_RTOL = 1e-6
_TOY_LINE = re.compile(r"bias-direction variance: (\S+) -> (\S+)")


def _reference_eigenvalues(inputs: Inputs, model: dict) -> np.ndarray:
    a = inputs.rows([p[0] for p in inputs.pairs])
    b = inputs.rows([p[1] for p in inputs.pairs])
    if model["type"] == "linear":
        half = (a - b) / 2.0
        design = np.vstack([half, -half])
        matrix = 0.5 * design.T @ design
    else:
        spec = model["kernel"]
        if spec.get("family") != "rbf":
            raise ValueError(f"unexpected kernel {spec}")
        first = np.empty((2 * len(a), a.shape[1]))
        first[0::2], first[1::2] = a, b
        swapped = np.empty_like(first)
        swapped[0::2], swapped[1::2] = b, a

        def rbf(x, y):
            sq = np.sum(x * x, 1)[:, None] + np.sum(y * y, 1)[None, :] - 2.0 * x @ y.T
            return np.exp(-spec["gamma"] * np.maximum(sq, 0.0))

        # Half the Gram of the signed feature differences phi(first) - phi(swapped).
        matrix = 0.5 * (rbf(first, first) - rbf(first, swapped)
                        - rbf(swapped, first) + rbf(swapped, swapped))
    return np.sort(np.linalg.eigvalsh(matrix))[::-1]


def _fit(stage, inputs, payload, raw):
    got = np.asarray(payload["eigenvalues"], dtype=float)
    want = _reference_eigenvalues(inputs, payload)[: got.size]
    if got.size == 0 or not np.allclose(got, want, rtol=EIG_RTOL, atol=EIG_RTOL * abs(want[0])):
        return f"eigenvalues {got.tolist()} differ from eigvalsh {want.tolist()}"
    return None


def _bias_variance(matrix: np.ndarray, direction: np.ndarray) -> float:
    return float(np.var(matrix @ direction))


def _apply(stage, inputs, payload, raw):
    words, matrix = payload
    if words != inputs.words:
        return "output words differ from the input words or their order"
    if matrix.shape != inputs.matrix.shape or not np.all(np.isfinite(matrix)):
        return f"output matrix has shape {matrix.shape} or non-finite values"
    before = _bias_variance(inputs.matrix, inputs.bias_direction)
    after = _bias_variance(matrix, inputs.bias_direction)
    if not after < 0.5 * before:
        return f"bias-coordinate variance {before:.4g} -> {after:.4g} did not halve"
    return None


def _sim(stage, inputs, payload, raw):
    he, she = inputs.rows(["he", "she"])
    raw_cos = float(he @ she)
    value = payload["pairs"][0]["similarity"]
    if not -1.0 <= value <= 1.0:
        return f"similarity {value} outside [-1, 1]"
    if not value > raw_cos + 0.1:
        return f"corrected he/she similarity {value:.4f} not above raw {raw_cos:.4f}"
    return None


def _corrected_below(value, raw_value, name, floor, margin):
    """Raw value must reach floor; the corrected one must sit margin below it."""
    if raw_value is None:
        return f"no raw {name} to compare with"
    if raw_value < floor:
        return f"raw {name} {raw_value:.4f} below {floor}"
    if value is not None and not value <= raw_value - margin:
        return f"corrected {name} {value:.4f} not {margin} below raw {raw_value:.4f}"
    return None


def _weat(stage, inputs, payload, raw):
    effect = payload["effect_size"]
    if not 0.0 <= payload["p_value"] <= 1.0:
        return f"p-value {payload['p_value']} outside [0, 1]"
    base = raw["effect_size"] if raw else None
    return _corrected_below(None if stage.backend == "raw" else effect, base,
                            "WEAT effect size", 1.0, 0.5)


def _professions(stage, inputs, payload, raw):
    r = abs(payload["pearson"])
    base = abs(raw["pearson"]) if raw else None
    return _corrected_below(None if stage.backend == "raw" else r, base,
                            "professions |r|", 0.6, 0.3)


def _simlex(stage, inputs, payload, raw):
    if payload["dropped"]:
        return f"{payload['dropped']} SimLex pairs dropped"
    rho = payload["spearman"]
    base = raw["spearman"] if raw else None
    if base is None or base < 0.4:
        return f"raw SimLex spearman {base} below 0.4"
    if stage.backend != "raw" and rho < base - 0.15:
        return f"corrected SimLex spearman {rho:.4f} collapsed from raw {base:.4f}"
    return None


def _classify(stage, inputs, payload, raw):
    acc = payload["test_accuracy"]
    if stage.backend == "raw":
        return None if acc >= 0.8 else f"raw test accuracy {acc:.3f} below 0.8"
    if abs(acc - 0.5) > 0.15:
        return f"corrected test accuracy {acc:.3f} not near chance"
    return None


def _toy(stage, inputs, payload, raw):
    before, after = payload
    if not after < 0.5 * before:
        return f"toy bias variance {before:.4g} -> {after:.4g} did not halve"
    return None


_CHECKS = {
    "fit": _fit,
    "apply": _apply,
    "sim": _sim,
    "weat": _weat,
    "professions": _professions,
    "simlex": _simlex,
    "classify": _classify,
    "toy": _toy,
}


def load_output(stage: Stage, stderr: Path):
    """The stage's result as its check reads it."""
    if stage.kind == "apply":
        with open(stage.output, encoding="utf-8") as handle:
            words = [line.split(" ", 1)[0] for line in handle]
            handle.seek(0)
            width = len(handle.readline().split())
            handle.seek(0)
            matrix = np.loadtxt(handle, usecols=range(1, width), ndmin=2, comments=None)
        return words, matrix
    if stage.kind == "toy":
        match = _TOY_LINE.search(stderr.read_text(encoding="utf-8"))
        if match is None:
            raise ValueError("no bias-direction variance line on stderr")
        return float(match.group(1)), float(match.group(2))
    return json.loads(stage.output.read_text(encoding="utf-8"))


def check(stage: Stage, inputs: Inputs, payload, raw_payload) -> str | None:
    return _CHECKS[stage.kind](stage, inputs, payload, raw_payload)
