"""Layer spans for one kerndebias CLI stage, and their per-layer summary.

Run as a script, this file executes one stage in its own process:

    python3 bench/tracing.py SPANS.json -- fit --embeddings ... --out model.json

It wraps the public functions and methods of every kerndebias module at
the names callers look them up by (the modules import names directly, so
a function is replaced in every module that holds it), calls
``kerndebias.cli.main(argv)``, keeps each span (name, start, end, parent,
counts) in memory and writes them to SPANS.json when the stage ends.

The program is not changed; spans are taken around the calls into each
layer.  ``summarize`` turns the span files of a run into per-layer self
time and work counts.
"""

from __future__ import annotations

import io
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np

_DIFF_FAMILIES = ("rbf", "laplace")


class Tracer:
    """In-memory span recorder; spans nest through a stack of open spans."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, overhead, counts]
        self.counters: dict[str, float] = defaultdict(float)
        self.fingerprints: list[np.ndarray] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._weights: dict[int, np.ndarray] = {}

    def wrap(self, name, fn, count=None):
        """fn wrapped in a span; count(args, kwargs, result) -> dict runs after it.

        The time spent counting is kept as the span's overhead and is
        charged to no layer.
        """
        tracer = self

        def traced(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            record = [name, time.perf_counter(), 0.0, parent, 0.0, {}]
            tracer.spans.append(record)
            tracer._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._stack.pop()
                record[2] = time.perf_counter()
            if count is not None:
                record[5] = count(args, kwargs, result)
                done = time.perf_counter()
                record[4] = done - record[2]
                record[2] = done
            return result

        return traced

    def fingerprint(self, rows: np.ndarray) -> None:
        """Remember an exact integer hash of each row, to count distinct rows."""
        rows = np.ascontiguousarray(rows, dtype=np.float64)
        dim = rows.shape[1]
        if dim not in self._weights:
            rng = np.random.default_rng(dim)
            self._weights[dim] = rng.integers(1, 2**63, size=dim, dtype=np.uint64) | np.uint64(1)
        self.fingerprints.append((rows.view(np.uint64) * self._weights[dim]).sum(axis=1))

    def document(self) -> dict:
        distinct = (
            int(np.unique(np.concatenate(self.fingerprints)).size) if self.fingerprints else 0
        )
        return {
            "spans": self.spans,
            "counters": dict(self.counters),
            "beta_distinct_rows": distinct,
            "missing": self.missing,
        }


# ---------------------------------------------------------------------------
# work counts taken at the layer boundaries
# ---------------------------------------------------------------------------


def _parse_counts(args, kwargs, table):
    size = 0
    try:
        size = os.fstat(args[0].fileno()).st_size
    except (AttributeError, io.UnsupportedOperation, OSError):
        pass
    return {"rows": len(table), "mb": size / 1e6}


def _write_counts(args, kwargs, text):
    return {"mb": len(text) / 1e6}


def _eig_counts(args, kwargs, result):
    return {"n_max": int(np.shape(args[0])[0])}


def _diff_tensors(spec) -> int:
    if spec.family == "convex_combination":
        return sum(_diff_tensors(sub) for _, sub in spec.components)
    return int(spec.family in _DIFF_FAMILIES)


def _gram_counts(args, kwargs, gram):
    spec, x = args[0], args[1]
    rows, cols = gram.shape
    dim = np.shape(x)[-1]
    # Bytes of the (rows, cols, dim) difference tensors rbf/laplace build,
    # computed from the shapes, not measured.
    return {
        "entries": rows * cols,
        "diff_mb": rows * cols * dim * 8 * _diff_tensors(spec) / 1e6,
    }


def _similarity_row_counts(args, kwargs, row):
    return {"candidates": len(row)}


def install(tracer: Tracer) -> None:
    """Wrap the kerndebias layers in spans, in every module that holds them."""
    import kerndebias.cli  # noqa: F401  (imports every layer the CLI uses)

    modules = [m for name, m in sys.modules.items() if name.startswith("kerndebias") and m]

    def beta_counts(args, kwargs, beta):
        x = args[1]
        if np.ndim(x) != 2:
            return {}
        tracer.fingerprint(x)
        return {"rows": int(np.shape(x)[0])}

    def function(module, attr, name, count=None):
        owner = sys.modules.get(f"kerndebias.{module}")
        original = getattr(owner, attr, None)
        if original is None:
            tracer.missing.append(f"{module}.{attr}")
            return
        traced = tracer.wrap(name, original, count)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)

    def methods(module, cls_name, attrs, name, count=None):
        cls = getattr(sys.modules.get(f"kerndebias.{module}"), cls_name, None)
        for attr in attrs:
            original = vars(cls).get(attr) if cls is not None else None
            if original is None:
                tracer.missing.append(f"{module}.{cls_name}.{attr}")
                continue
            setattr(cls, attr, tracer.wrap(name, original, count))

    function("embeddings", "parse_embedding_text", "embeddings.parse", _parse_counts)
    function("embeddings", "unit_normalize", "embeddings.unit_normalize")
    function("embeddings", "write_embedding_text", "embeddings.write", _write_counts)
    function("numerics", "symmetric_eig", "numerics.symmetric_eig", _eig_counts)
    function("linear", "fit_linear_subspace", "linear.fit_linear_subspace")
    function("linear", "neutralize_matrix", "linear.neutralize_matrix")
    function("linear", "equalize_set", "linear.equalize_set")
    function("kernels", "gram_matrix", "kernels.gram_matrix", _gram_counts)
    function("kernels", "kernel_diag", "kernels.kernel_diag")
    function("rkhs", "fit_kernel_model", "rkhs.fit_kernel_model")
    function("rkhs", "beta_matrix", "rkhs.beta_matrix", beta_counts)
    function("preimage", "fit_preimage_map", "preimage.fit_preimage_map")
    function("preimage", "preimage_neutralize_matrix", "preimage.preimage_neutralize_matrix")
    function("evaluation", "professions_correlation", "evaluation.professions_correlation")
    function("evaluation", "weat_test", "evaluation.weat_test")
    function("evaluation", "svm_train", "evaluation.svm_train")
    function("evaluation", "svm_accuracy", "evaluation.svm_accuracy")
    function("toydemo", "run_toy_demo", "toydemo.run_toy_demo")
    function("cli", "main", "cli.main")

    corrected = [
        attr for attr, value in vars(getattr(kerndebias.rkhs, "CorrectedMetric", object)).items()
        if callable(value) and not attr.startswith("_")
    ]
    methods("rkhs", "CorrectedMetric", corrected, "rkhs.corrected")
    for backend in ("RawCosineBackend", "LinearNeutralizedBackend", "CorrectedKernelBackend"):
        methods("evaluation", backend, ["__init__"], "evaluation.backend_init")
    for backend in ("_VectorCosineBackend", "CorrectedKernelBackend"):
        methods("evaluation", backend, ["similarity"], "evaluation.similarity")
        methods("evaluation", backend, ["similarity_row"], "evaluation.similarity_row",
                _similarity_row_counts)

    evaluation = sys.modules["kerndebias.evaluation"]
    make_kernel = getattr(evaluation, "rbf_on_squared_distance", None)
    if make_kernel is None:
        tracer.missing.append("evaluation.rbf_on_squared_distance")
        return

    def counted_rbf(*args, **kwargs):
        kernel = make_kernel(*args, **kwargs)

        def counted(x, y):
            values = kernel(x, y)
            tracer.counters["evaluation.svm_kernel.calls"] += 1
            tracer.counters["evaluation.svm_kernel.entries"] += np.size(values)
            return values

        return counted

    evaluation.rbf_on_squared_distance = counted_rbf


# ---------------------------------------------------------------------------
# summary over the span files of one run
# ---------------------------------------------------------------------------


def summarize(documents: list[dict]) -> dict[str, float]:
    """Per-name self time ('<name>.s'), outermost call count and summed counts.

    Self time is a span's duration minus the part its child spans cover
    (children run inside their parent, one thread) minus its counting
    overhead.  A call is counted once however deeply it recurses into
    its own name.  ``n_max`` keys take the maximum; other counts add up.
    """
    out: dict[str, float] = defaultdict(float)
    beta_rows = 0
    beta_distinct = 0
    for doc in documents:
        spans = doc["spans"]
        child_time = [0.0] * len(spans)
        for name, start, end, parent, overhead, counts in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for index, (name, start, end, parent, overhead, counts) in enumerate(spans):
            out[f"{name}.s"] += end - start - child_time[index] - overhead
            if parent < 0 or spans[parent][0] != name:
                out[f"{name}.calls"] += 1
            for key, value in counts.items():
                field = f"{name}.{key}"
                out[field] = max(out[field], value) if key == "n_max" else out[field] + value
                if name == "rkhs.beta_matrix" and key == "rows":
                    beta_rows += value
        for key, value in doc["counters"].items():
            out[key] += value
        beta_distinct += doc["beta_distinct_rows"]
    out["rkhs.beta_matrix.rows_per_word"] = beta_rows / beta_distinct if beta_distinct else 0.0
    return dict(out)


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracing.py SPANS.json -- <kerndebias arguments>", file=sys.stderr)
        return 2
    tracer = Tracer()
    install(tracer)
    import kerndebias.cli

    code = 1
    try:
        code = kerndebias.cli.main(argv[2:])
    except SystemExit as exc:  # argparse exits on bad arguments
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        with open(argv[0], "w", encoding="utf-8") as handle:
            json.dump(tracer.document(), handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
