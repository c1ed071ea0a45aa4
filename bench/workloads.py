"""The benchmark's workloads: input sizes and the kerndebias stages each runs.

Each stage is one CLI invocation.  Its ``kind`` says which end-to-end
timing it adds to and which property check reads its output; ``output``
is the file that check reads.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

from gen import Inputs

EVAL_KINDS = ("weat", "professions", "simlex", "classify")

# Corrected rbf distances are about dim/2 times smaller than raw ones, so
# the classifier's width differs per backend; at one shared width SMO
# degenerates to 0.5 train and test accuracy on every backend.
SVM_GAMMA = {"raw": 0.5, "kernel": 150.0}


@dataclass(frozen=True)
class Sizes:
    n_words: int
    dim: int
    n_professions: int
    n_simlex: int
    n_biased: int = 0
    n_train: int = 0
    toy_points: int = 0


@dataclass(frozen=True)
class Stage:
    label: str  # unique in a sequence; names the stage's files
    kind: str  # fit | apply | sim | weat | professions | simlex | classify | toy
    backend: str  # raw | linear | kernel
    argv: tuple[str, ...]
    output: Path


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    sizes: dict[str, Sizes]  # by --size
    stages: Callable[[Inputs, Path, int, Sizes], list[Stage]]


class _Builder:
    """Builds the argv of each stage over one input set and output directory."""

    def __init__(self, inputs: Inputs, out: Path, seed: int):
        self.inputs = inputs
        self.out = out
        self.common = ("--embeddings", str(inputs.embeddings), "--seed", str(seed))

    def stage(self, label, kind, backend, command, *args, output=None, model=None):
        out = self.out / label
        argv = [*command, *self.common, *map(str, args)]
        if model is not None:
            argv += ["--model", str(model)]
        if output is None:
            output = out.with_suffix(".json")
            argv += ["--out", str(out)]
        return Stage(label, kind, backend, tuple(argv), output)

    def fit(self, backend: str, dim: int) -> Stage:
        model = self.out / f"{backend}.json"
        args = ["--sets", self.inputs.sets, "--backend", backend, "--out", model]
        if backend == "kernel":
            args += ["--kernel", "rbf", "--gamma", repr(1.0 / dim)]
        return self.stage("fit", "fit", backend, ["fit"], *args, output=model)

    def sim(self, backend: str, model: Path) -> Stage:
        output = self.out / "sim.json"
        return self.stage("sim", "sim", backend, ["sim"], "--out", output, "he", "she",
                          output=output, model=model)

    def weat(self, backend: str, model: Path | None) -> Stage:
        return self.stage(f"weat-{backend}", "weat", backend, ["eval", "weat"],
                          "--config", self.inputs.weat, model=model)

    def professions(self, backend: str, model: Path | None) -> Stage:
        i = self.inputs
        return self.stage(f"professions-{backend}", "professions", backend,
                          ["eval", "professions"], "--professions", i.professions,
                          "--male", i.male, "--female", i.female, model=model)

    def simlex(self, backend: str, model: Path | None) -> Stage:
        return self.stage(f"simlex-{backend}", "simlex", backend, ["eval", "simlex"],
                          "--pairs", self.inputs.simlex, model=model)

    def classify(self, backend: str, model: Path | None, sizes: Sizes) -> Stage:
        return self.stage(f"classify-{backend}", "classify", backend, ["eval", "classify"],
                          "--n-biased", sizes.n_biased, "--n-train", sizes.n_train,
                          "--svm-gamma", SVM_GAMMA[backend], model=model)


def _linear_debias(inputs: Inputs, out: Path, seed: int, sizes: Sizes) -> list[Stage]:
    b = _Builder(inputs, out, seed)
    model = out / "linear.json"
    table = out / "debiased.txt"
    toy = out / "toy.csv"
    return [
        b.fit("linear", sizes.dim),
        b.stage("apply", "apply", "linear", ["apply"], "--sets", inputs.sets, "--equalize",
                "--out", table, output=table, model=model),
        b.sim("linear", model),
        b.weat("raw", None),
        b.weat("linear", model),
        b.professions("raw", None),
        b.professions("linear", model),
        Stage("toy", "toy", "kernel",
              ("demo-toy", "--seed", str(seed), "--n-points", str(sizes.toy_points),
               "--out", str(toy)), toy),
    ]


def _kernel_neighbors(inputs: Inputs, out: Path, seed: int, sizes: Sizes) -> list[Stage]:
    b = _Builder(inputs, out, seed)
    model = out / "kernel.json"
    return [
        b.fit("kernel", sizes.dim),
        b.sim("kernel", model),
        b.professions("raw", None),
        b.professions("kernel", model),
        b.simlex("raw", None),
        b.simlex("kernel", model),
    ]


def _kernel_classify(inputs: Inputs, out: Path, seed: int, sizes: Sizes) -> list[Stage]:
    b = _Builder(inputs, out, seed)
    model = out / "kernel.json"
    table = out / "debiased.txt"
    return [
        b.fit("kernel", sizes.dim),
        b.stage("apply", "apply", "kernel", ["apply"], "--sets", inputs.sets, "--out", table,
                "--out-model", out / "kernel-preimage.json", output=table, model=model),
        b.sim("kernel", model),
        b.classify("raw", None, sizes),
        b.classify("kernel", model, sizes),
    ]


# linear-debias and kernel-neighbors share one table: for one seed both
# workloads see the same inputs.
_VOCAB = Sizes(n_words=4000, dim=100, n_professions=6, n_simlex=400)
_VOCAB_TINY = Sizes(n_words=1500, dim=64, n_professions=6, n_simlex=100)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "linear-debias",
            "the paper's linear baseline on a 4k x 100 table: text parse and write "
            "and the d x d eigensolve dominate; kernels and rkhs barely run",
            {
                "full": replace(_VOCAB, toy_points=60),
                "tiny": replace(_VOCAB_TINY, toy_points=40),
            },
            _linear_debias,
        ),
        Workload(
            "kernel-neighbors",
            "the corrected rbf metric at vocabulary scale: Gram blocks, beta features, "
            "similarity rows and top-k dominate; nothing is written, the eigensolve is 20x20",
            {"full": _VOCAB, "tiny": _VOCAB_TINY},
            _kernel_neighbors,
        ),
        Workload(
            "kernel-classify",
            "rkhs and kernels used two ways on a 2k x 300 table: bulk beta in apply, "
            "many small corrected-distance queries inside SMO classify",
            {
                "full": Sizes(2000, 300, 6, 100, n_biased=200, n_train=80),
                "tiny": Sizes(1500, 64, 6, 100, n_biased=200, n_train=80),
            },
            _kernel_classify,
        ),
    )
}
