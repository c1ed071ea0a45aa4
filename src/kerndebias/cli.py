"""Command-line front end.

Subcommands mirror the pipeline stages: `fit` a bias model, `apply` it to
emit corrected embeddings, `sim` for pairwise similarity queries,
`eval weat|professions|classify|simlex` for the benchmarks, and
`demo-toy` for the 2-D visualization dataset.

Every benchmark runs through one body, cmd_eval: it builds the metric
(_metric), asks the benchmark's payload function (_weat, _professions,
_classify or _simlex) for its result fields, and writes them after the
test and backend names (_write_results).

Exit codes: 0 success, 2 config/IO error (any OSError, writes to --out and
stdout included), 3 data insufficiency, 4 numerical failure.  Every output
of a command, stdout included, is written by one _write_files call: -
means stdout, which is written in its turn and flushed before any file is
renamed into place, so a failed write leaves every earlier file as it was;
an output to - with stdout closed exits 2 before anything is written.

main(argv) runs one command and returns its exit code, and may be called
many times in one process.  run() is the process entry of `python -m
kerndebias.cli` and of the `kerndebias` script: it calls main(), then
gc.freeze(), then exits with main's code.  Freezing moves every object
left alive into the collector's permanent generation, so interpreter
finalization (atexit, flushes, file closes) still runs but no longer
walks the whole module graph with the cyclic collector on the way out.
That is only right at process exit: in main it would leave a calling
process's heap frozen after every command.

Each command loads, builds and checks only what it runs.  The layers it
may not need (evaluation, linear, preimage and toydemo) come from the
package's lazy registry (see kerndebias/__init__), so this module calls
them as module.name at call time; `sim` runs none of them.
build_parser(argv) adds only the arguments of the subcommand that argv
starts with, and logging is imported only when a warning is emitted
(errors.warn).
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import stat
import sys
from typing import Iterable, Sequence

from . import configio, errors, evaluation, linear, preimage, toydemo
from .embeddings import (
    EmbeddingTable,
    iter_embedding_text,
    parse_embedding_text,
    read_embedding_file,
    unit_normalize,
)
from .errors import DataError, FormatError, NumericalError
from .kernels import FAMILIES, PARAMETERS, KernelSpec
from .rkhs import CorrectedMetric, check_dimension, fit_kernel_model, pair_similarities

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def _read_embeddings(path: str, normalize: bool) -> EmbeddingTable:
    if path == "-":  # decoded as a file is, whatever the locale; never cached
        if sys.stdin is None:
            raise FormatError("--embeddings -: standard input is closed")
        sys.stdin.reconfigure(encoding="utf-8", newline=None)
    table = parse_embedding_text(sys.stdin) if path == "-" else read_embedding_file(path)
    return unit_normalize(table) if normalize else table


def _kernel_spec_from_args(args: argparse.Namespace, dim: int) -> KernelSpec:
    """The --kernel spec, linear without it; --gamma, --coef0 and --degree
    fill in a family name's parameters (kernels.PARAMETERS gives their
    defaults), and any of them given where the family or a JSON spec takes
    none is a FormatError."""
    text = "linear" if args.kernel is None else args.kernel
    is_json = text.lstrip().startswith("{")
    family = None if is_json else text.strip()
    if not is_json and family not in FAMILIES:
        raise FormatError(f"unknown kernel family {family!r}; known: {', '.join(FAMILIES)}")
    if family == "convex_combination":
        raise FormatError("convex_combination must be given as JSON")
    reads = () if is_json else FAMILIES[family].parameters
    kwargs: dict = {}
    for name, parameter in PARAMETERS.items():
        value = getattr(args, name)
        if name in reads:
            kwargs[name] = parameter.default(dim) if value is None else value
        elif value is not None:
            where = "a JSON --kernel spec" if is_json else f"the {family} kernel"
            raise FormatError(f"--{name} does not apply to {where}")
    return KernelSpec.from_json(text) if is_json else KernelSpec(family, **kwargs)


def _resolve_sets(args: argparse.Namespace, table: EmbeddingTable):
    defining, equality = configio.load_sets_file(args.sets)
    sets, eq_sets, warnings = linear.resolve_word_sets(table, defining, equality)
    for message in warnings:
        errors.warn("kerndebias", "%s", message)
    return sets, eq_sets


def _metric(args: argparse.Namespace) -> CorrectedMetric:
    """The --embeddings table's metric, corrected by --model when given."""
    table = _read_embeddings(args.embeddings, not args.no_normalize)
    model = configio.load_model(args.model)[0] if args.model is not None else None
    return CorrectedMetric(table, model)


def _json_bytes(payload: dict) -> list[bytes]:
    return [(json.dumps(payload, indent=1) + "\n").encode("utf-8")]


def _write_files(outputs: list[tuple[str, Iterable[bytes]]]) -> None:
    """Write each (path, blocks) in turn; every output is written here.

    "-" is stdout, written in its turn, and flushed once every output is
    written; FormatError if stdout is closed, before anything is written.
    A regular or new file is written to a temporary file beside it, and the
    temporary files are renamed into place only after that flush, so a
    failed or interrupted write leaves all the earlier files as they were;
    a device or a pipe is written in place.
    """
    to_stdout = any(path == "-" for path, _ in outputs)
    if to_stdout and sys.stdout is None:
        raise FormatError("standard output is closed")
    renames: list[tuple[str, str]] = []
    try:
        for path, blocks in outputs:
            if path == "-":
                sys.stdout.flush()
                sys.stdout.buffer.writelines(blocks)
                continue
            try:
                mode = os.stat(path).st_mode
            except FileNotFoundError:
                mode = None
            if mode is not None and not stat.S_ISREG(mode):
                with open(path, "wb") as handle:
                    handle.writelines(blocks)
                continue
            target = os.path.realpath(path)
            work = f"{target}.tmp-{os.getpid()}"
            renames.append((work, target))
            with open(work, "wb") as handle:
                handle.writelines(blocks)
            if mode is not None:
                os.chmod(work, stat.S_IMODE(mode))
        if to_stdout:
            sys.stdout.flush()
        for work, target in renames:
            os.replace(work, target)
    except BaseException:
        for work, _ in renames:
            if os.path.lexists(work):
                os.unlink(work)
        raise


def _write_results(out: str, payload: dict) -> None:
    """Write <out>.json and <out>.csv as one pair (or stdout JSON when out
    is -).

    The CSV has one column per payload field, named after it; a dict field
    such as n_used gives one column per key (n_used_X, ..., n_used_B).
    """
    if out == "-":
        _write_files([(out, _json_bytes(payload))])
        return
    columns: dict[str, object] = {}
    for key, value in payload.items():
        if isinstance(value, dict):
            columns.update({f"{key}_{sub}": item for sub, item in value.items()})
        else:
            columns[key] = value
    header = ",".join(columns)
    row = ",".join(str(value) for value in columns.values())
    _write_files([
        (out + ".json", _json_bytes(payload)),
        (out + ".csv", [(header + "\n" + row + "\n").encode("utf-8")]),
    ])


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_fit(args: argparse.Namespace) -> int:
    """Fit the kind of model --kernel implies: linear without it, else one
    of its spec, which is checked after the table and sets are read.
    --backend must name that kind, and never changes the file."""
    kind = "linear" if args.kernel is None else "kernel"
    if args.backend not in (None, kind):
        raise FormatError(f"--backend {args.backend} {'needs' if args.kernel is None else 'takes no'}"
                          " --kernel")
    table = _read_embeddings(args.embeddings, not args.no_normalize)
    sets, _ = _resolve_sets(args, table)
    spec = _kernel_spec_from_args(args, table.dim)
    if kind == "linear":
        model = linear.fit_linear_subspace(table, sets, args.components)
    else:
        model = fit_kernel_model(spec, table, sets, k=args.components)
    payload = configio.model_to_dict(model, kind)
    extra = (
        f", discarded {model.discarded_negative} negative eigenvalue(s)"
        if model.discarded_negative
        else ""
    )
    _write_files([(args.out, _json_bytes(payload))])
    progress = sys.stderr if args.out == "-" else sys.stdout
    print(
        f"fitted {kind} model: {len(sets)} pairs, "
        f"components={args.components}, eigenvalues="
        f"[{', '.join(f'{v:.6g}' for v in model.eigenvalues)}]{extra}",
        file=progress,
    )
    print(f"wrote {args.out}", file=progress)
    return EXIT_OK


def cmd_apply(args: argparse.Namespace) -> int:
    """Every row x as x - beta(x) W (preimage_neutralize_matrix), then, with
    --equalize, the equality sets re-embedded; the text is streamed to
    --out in the bounded blocks of embeddings.iter_embedding_text.  --out
    and --out-model (configio.model_to_dict, as fit writes it) are written
    as one set (_write_files), and may not both be stdout, nor one file."""
    if args.out == "-" and args.out_model == "-":
        raise FormatError("--out and --out-model cannot both be - (stdout)")
    if args.out_model not in (None, "-") and args.out != "-" and (
        os.path.realpath(args.out) == os.path.realpath(args.out_model)
    ):
        raise FormatError(f"--out and --out-model are the same file: {args.out_model}")
    table = _read_embeddings(args.embeddings, not args.no_normalize)
    model, kind = configio.load_model(args.model)
    check_dimension(model.dim, table)
    if args.equalize and model.spec.family != "linear":
        raise FormatError("--equalize needs a linear-kernel model")
    if args.equalize and args.sets is None:
        raise FormatError("--equalize requires --sets")
    eq_sets = _resolve_sets(args, table)[1] if args.sets is not None else None
    matrix = preimage.preimage_neutralize_matrix(model, table.matrix)
    if args.equalize:
        for members in eq_sets.sets:
            matrix[list(members)] = linear.equalize_set(model, table, members)
    outputs = [(args.out, iter_embedding_text(table.words, matrix, args.precision))]
    if args.out_model is not None:
        outputs.append((args.out_model, _json_bytes(configio.model_to_dict(model, kind))))
    _write_files(outputs)
    if args.out != "-":
        print(f"wrote {args.out}", file=sys.stderr if args.out_model == "-" else sys.stdout)
    return EXIT_OK


def cmd_sim(args: argparse.Namespace) -> int:
    if len(args.words) % 2 != 0:
        raise FormatError("sim expects an even number of words (pairs)")
    metric = _metric(args)
    pairs = list(zip(args.words[0::2], args.words[1::2]))
    values = pair_similarities(metric, pairs)
    payload = {
        "backend": metric.name,
        "pairs": [{"a": a, "b": b, "similarity": float(v)} for (a, b), v in zip(pairs, values)],
    }
    _write_files([(args.out, _json_bytes(payload))])
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    """One body for every benchmark: args.evaluate(metric, args) returns the
    benchmark's result fields, written after its name and the backend's."""
    metric = _metric(args)
    fields = args.evaluate(metric, args)
    _write_results(args.out, {"test": args.benchmark, "backend": metric.name, **fields})
    return EXIT_OK


def _weat(metric: CorrectedMetric, args: argparse.Namespace) -> dict:
    cfg = configio.load_weat_config(args.config)
    overrides = {"permutations": args.permutations, "seed": args.seed}
    cfg = dataclasses.replace(cfg, **{k: v for k, v in overrides.items() if v is not None})
    return dataclasses.asdict(evaluation.weat_test(metric, cfg))


def _professions(metric: CorrectedMetric, args: argparse.Namespace) -> dict:
    lists = [configio.load_word_list(path) for path in (args.professions, args.male, args.female)]
    correlation = evaluation.professions_correlation(
        metric, *lists, k_neighbors=args.neighbors, pool=args.pool
    )
    return {"pearson": correlation, "neighbors": args.neighbors, "pool": args.pool}


def _classify(metric: CorrectedMetric, args: argparse.Namespace) -> dict:
    return evaluation.indirect_bias_classification(
        metric, n_biased=args.n_biased, n_train=args.n_train, svm_gamma=args.svm_gamma,
        c_reg=args.c_reg, tol=args.tol, seed=args.seed,
    )


def _simlex(metric: CorrectedMetric, args: argparse.Namespace) -> dict:
    pairs = configio.load_simlex_pairs(args.pairs)
    correlation, dropped = evaluation.simlex_eval(metric, pairs)
    return {"spearman": correlation, "scored": len(pairs) - dropped, "dropped": dropped}


def cmd_demo_toy(args: argparse.Namespace) -> int:
    points, neutralized, stats = toydemo.run_toy_demo(
        seed=args.seed, n_points=args.n_points, gamma=args.gamma
    )
    _write_files([(args.out, [toydemo.toy_demo_csv(points, neutralized).encode("utf-8")])])
    print(
        f"bias-direction variance: {stats['bias_variance_before']:.6g} -> "
        f"{stats['bias_variance_after']:.6g}",
        file=sys.stderr,
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_common(
    parser: argparse.ArgumentParser, embeddings: bool = True, seed: str = "ignored"
) -> None:
    """--embeddings and --no-normalize (unless embeddings is False) and
    --seed.  seed says what the stage does with the flag: "fixed" draws
    with it (default 42), "config" overrides the config file's seed, and
    "ignored" accepts it so that one --seed fits every stage."""
    if embeddings:
        parser.add_argument(
            "--embeddings", required=True,
            help="embedding text file, or - for stdin; a file's parsed table is "
            "kept in $XDG_CACHE_HOME/kerndebias (default ~/.cache/kerndebias) and "
            "used again only while the file's bytes equal those it was parsed "
            "from; deleting that directory is always safe",
        )
        parser.add_argument(
            "--no-normalize",
            action="store_true",
            help="skip unit-normalizing vectors on load",
        )
    if seed == "fixed":
        parser.add_argument("--seed", type=int, default=42, help="run seed (default: 42)")
    elif seed == "config":
        parser.add_argument(
            "--seed", type=int,
            help=f"Monte Carlo p-value seed, used only above {evaluation.EXACT_LIMIT} "
            "target words (default: the config's seed)",
        )
    else:
        parser.add_argument(
            "--seed", type=int, help="ignored: this stage draws no random numbers"
        )


def _fit_arguments(p: argparse.ArgumentParser, argv: Sequence[str]) -> None:
    _add_common(p)
    p.add_argument("--sets", required=True, help="defining/equality sets JSON")
    p.add_argument("--backend", choices=("linear", "kernel"),
                   help="must agree with --kernel: kernel when it is given, else linear")
    p.add_argument("--kernel", help="kernel family name or KernelSpec JSON")
    for name, parameter in PARAMETERS.items():  # typed as its default is
        families = "/".join(f for f, family in FAMILIES.items() if name in family.parameters)
        p.add_argument(f"--{name}", type=type(parameter.default(1)),
                       help=f"{families} kernel {parameter.help}")
    p.add_argument("--components", type=int, default=1, help="bias directions K")
    p.add_argument("--out", required=True, help="model JSON output, - for stdout")
    p.set_defaults(func=cmd_fit)


def _apply_arguments(p: argparse.ArgumentParser, argv: Sequence[str]) -> None:
    _add_common(p)
    p.add_argument("--model", required=True)
    p.add_argument(
        "--sets",
        help="sets JSON, read and checked whenever given; its equality sets are "
        "what --equalize re-embeds",
    )
    p.add_argument("--equalize", action="store_true", help="linear-kernel models only")
    p.add_argument(
        "--precision", type=int, default=9,
        help="decimal places per component, 1 to 17 (default 9)",
    )
    p.add_argument("--out", required=True, help="embedding output, - for stdout")
    p.add_argument(
        "--out-model", help="write the loaded model back here as fit writes it "
        "(- for stdout)"
    )
    p.set_defaults(func=cmd_apply)


def _sim_arguments(p: argparse.ArgumentParser, argv: Sequence[str]) -> None:
    _add_common(p)
    p.add_argument("--model", help="model JSON (omit for raw cosine)")
    p.add_argument("--out", default="-", help="JSON output path (omit or - for stdout)")
    p.add_argument("words", nargs="+", help="word pairs: a b [c d ...]")
    p.set_defaults(func=cmd_sim)


def _eval_arguments(p: argparse.ArgumentParser, argv: Sequence[str]) -> None:
    _add_subcommands(p, "benchmark", _BENCHMARKS, argv)


def _benchmark_arguments(p: argparse.ArgumentParser, evaluate, seed: str = "ignored") -> None:
    """The arguments every benchmark takes, and its payload function."""
    _add_common(p, seed=seed)
    p.add_argument("--model", help="model JSON (omit for raw cosine)")
    p.add_argument(
        "--out", default="-", help="output prefix for PREFIX.json and PREFIX.csv "
        "(omit or - for the JSON on stdout)",
    )
    p.set_defaults(func=cmd_eval, evaluate=evaluate)


def _weat_arguments(p: argparse.ArgumentParser, argv: Sequence[str]) -> None:
    _benchmark_arguments(p, _weat, seed="config")
    p.add_argument("--config", required=True, help="WEAT config JSON")
    p.add_argument(
        "--permutations", type=int,
        help="override the config's Monte Carlo permutation count (1 to "
        f"{evaluation.MAX_PERMUTATIONS}), used only above {evaluation.EXACT_LIMIT} "
        "target words; at or below, the p-value is exact",
    )


def _professions_arguments(p: argparse.ArgumentParser, argv: Sequence[str]) -> None:
    _benchmark_arguments(p, _professions)
    p.add_argument("--professions", required=True, help="profession word list")
    p.add_argument("--male", required=True, help="male lexicon word list")
    p.add_argument("--female", required=True, help="female lexicon word list")
    p.add_argument("--neighbors", type=int, default=100)
    p.add_argument("--pool", choices=("vocabulary", "restricted"), default="vocabulary")


def _classify_arguments(p: argparse.ArgumentParser, argv: Sequence[str]) -> None:
    _benchmark_arguments(p, _classify, seed="fixed")
    p.add_argument("--n-biased", type=int, default=5000)
    p.add_argument("--n-train", type=int, default=1000)
    p.add_argument(
        "--svm-gamma", type=float, help="SVM rbf width (default 1 / the median corrected "
        "squared distance between two training words)",
    )
    p.add_argument("--c-reg", type=float, default=1.0)
    p.add_argument("--tol", type=float, default=1e-3)


def _simlex_arguments(p: argparse.ArgumentParser, argv: Sequence[str]) -> None:
    _benchmark_arguments(p, _simlex)
    p.add_argument("--pairs", required=True, help="tab-separated word1 word2 score")


def _toy_arguments(p: argparse.ArgumentParser, argv: Sequence[str]) -> None:
    _add_common(p, embeddings=False, seed="fixed")
    p.add_argument(
        "--n-points", type=int, default=200,
        help=f"points, 10 to {toydemo.MAX_POINTS}; an odd count is rounded down to the "
        "nearest even number (default 200)",
    )
    p.add_argument("--gamma", type=float, default=1.0, help="rbf width (default 1.0)")
    p.add_argument("--out", default="-", help="CSV output path (omit or - for stdout)")
    p.set_defaults(func=cmd_demo_toy)


# Each subcommand and each eval benchmark: its summary in --help, and the
# function that adds its arguments given the argv that follows its name.
_COMMANDS = {
    "fit": ("fit a bias model", _fit_arguments),
    "apply": ("write corrected embeddings", _apply_arguments),
    "sim": ("pairwise similarity queries", _sim_arguments),
    "eval": ("run a benchmark", _eval_arguments),
    "demo-toy": ("2-D nonlinear removal demo CSV", _toy_arguments),
}
_BENCHMARKS = {
    "weat": ("association test", _weat_arguments),
    "professions": ("neighbor-bias correlation", _professions_arguments),
    "classify": ("indirect-bias SVM", _classify_arguments),
    "simlex": ("similarity-judgment correlation", _simlex_arguments),
}


def _add_subcommands(
    parser: argparse.ArgumentParser, dest: str, commands: dict, argv: Sequence[str]
) -> None:
    """One subparser per entry of commands, each listed with its summary.

    When argv starts with one of the names, only that subparser gets its
    arguments: argparse hands it all of argv after the name, so a parse of
    argv reaches no other.  Otherwise every subparser gets them.
    """
    sub = parser.add_subparsers(dest=dest, required=True)
    chosen = argv[0] if argv and argv[0] in commands else None
    for name, (summary, add_arguments) in commands.items():
        subparser = sub.add_parser(name, help=summary)
        if chosen in (None, name):
            add_arguments(subparser, argv[1:] if chosen else ())


def build_parser(argv: Sequence[str] = ()) -> argparse.ArgumentParser:
    """The kerndebias parser: every subcommand listed, and the arguments of
    only those a parse of argv can reach, so that it parses argv exactly as
    the full parser, build_parser(), does."""
    parser = argparse.ArgumentParser(
        prog="kerndebias",
        description="Fit linear/kernel bias subspaces, correct embeddings or "
        "metrics, and evaluate residual bias.",
    )
    _add_subcommands(parser, "command", _COMMANDS, argv)
    return parser


def main(argv: list[str] | None = None) -> int:
    errors.LOG_FORMAT = "%(levelname)s: %(message)s"
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv).parse_args(argv)
    try:
        code = args.func(args)
        if sys.stdout is not None:
            sys.stdout.flush()
        return code
    except (FormatError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def run() -> None:
    """The process entry: exit with main()'s code, the heap frozen first."""
    try:
        code = main()
    finally:
        gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
