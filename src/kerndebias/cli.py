"""Command-line front end.

Subcommands mirror the pipeline stages: `fit` a bias model, `apply` it to
emit corrected embeddings, `sim` for pairwise similarity queries,
`eval weat|professions|classify|simlex` for the benchmarks, and
`demo-toy` for the 2-D visualization dataset.

Exit codes: 0 success, 2 config/IO error, 3 data insufficiency,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
from pathlib import Path

from . import configio, evaluation, toydemo
from .embeddings import (
    EmbeddingTable,
    parse_embedding_text,
    unit_normalize,
    write_embedding_text,
)
from .errors import DataError, FormatError, NumericalError
from .kernels import _NEEDS_COEF0, _NEEDS_GAMMA, FAMILIES, KernelSpec, default_gamma
from .linear import (
    LinearBiasModel,
    equalize_set,
    fit_linear_subspace,
    linear_model_to_dict,
    neutralize_matrix,
    resolve_word_sets,
)
from .preimage import (
    DEFAULT_EXTRA_SAMPLE,
    DEFAULT_RIDGE_LAMBDA,
    default_sample,
    fit_preimage_map,
    preimage_neutralize_matrix,
    preimage_to_dict,
)
from .rkhs import KernelBiasModel, fit_kernel_model, kernel_model_to_dict
from .seeding import rng_for

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

logger = logging.getLogger("kerndebias")


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def _read_embeddings(path: str, normalize: bool) -> EmbeddingTable:
    if path == "-":
        table = parse_embedding_text(sys.stdin)
    else:
        with open(path, "r", encoding="utf-8") as handle:
            table = parse_embedding_text(handle)
    return unit_normalize(table) if normalize else table


def _kernel_spec_from_args(args: argparse.Namespace, dim: int) -> KernelSpec:
    text = args.kernel
    if text is None:
        raise FormatError("kernel backend requires --kernel (family name or JSON)")
    if text.lstrip().startswith("{"):
        return KernelSpec.from_json(text)
    family = text.strip()
    if family not in FAMILIES:
        raise FormatError(f"unknown kernel family {family!r}; known: {', '.join(FAMILIES)}")
    gamma = args.gamma if args.gamma is not None else default_gamma(dim)
    kwargs: dict = {}
    if family in _NEEDS_GAMMA:
        kwargs["gamma"] = gamma
    if family in _NEEDS_COEF0:
        kwargs["coef0"] = args.coef0
    if family == "polynomial":
        kwargs["degree"] = args.degree
    if family == "convex_combination":
        raise FormatError("convex_combination must be given as JSON")
    return KernelSpec(family, **kwargs)


def _resolve_sets(args: argparse.Namespace, table: EmbeddingTable):
    defining, equality = configio.load_sets_file(args.sets)
    sets, eq_sets, warnings = resolve_word_sets(table, defining, equality)
    for message in warnings:
        logger.warning("%s", message)
    return sets, eq_sets


def _make_backend(args: argparse.Namespace, table: EmbeddingTable):
    model = configio.load_model(args.model)[0] if args.model is not None else None
    return evaluation.CorrectedKernelBackend(table, model)


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _write_results(out: str | None, payload: dict) -> None:
    """Write <out>.json and <out>.csv (or stdout JSON when out is None).

    The CSV has one column per payload field, named after it; a dict field
    such as n_used gives one column per key (n_used_X, ..., n_used_B).
    """
    text = json.dumps(payload, indent=1) + "\n"
    if out is None:
        sys.stdout.write(text)
        return
    Path(out + ".json").write_text(text, encoding="utf-8")
    columns: dict[str, object] = {}
    for key, value in payload.items():
        if isinstance(value, dict):
            columns.update({f"{key}_{sub}": item for sub, item in value.items()})
        else:
            columns[key] = value
    header = ",".join(columns)
    row = ",".join(str(value) for value in columns.values())
    Path(out + ".csv").write_text(header + "\n" + row + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_fit(args: argparse.Namespace) -> int:
    table = _read_embeddings(args.embeddings, not args.no_normalize)
    sets, _ = _resolve_sets(args, table)
    if args.backend == "linear":
        model = fit_linear_subspace(table, sets, args.components)
        payload = linear_model_to_dict(model)
        extra = ""
    else:
        spec = _kernel_spec_from_args(args, table.dim)
        model = fit_kernel_model(spec, table, sets, k=args.components)
        payload = kernel_model_to_dict(model)
        payload["pair_words"] = [
            [table.words[a], table.words[b]] for a, b in sets.pairs
        ]
        extra = (
            f", discarded {model.discarded_negative} negative eigenvalue(s)"
            if model.discarded_negative
            else ""
        )
    Path(args.out).write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    print(
        f"fitted {args.backend} model: {len(sets)} pairs, "
        f"components={args.components}, eigenvalues="
        f"[{', '.join(f'{v:.6g}' for v in model.eigenvalues)}]{extra}"
    )
    print(f"wrote {args.out}")
    return EXIT_OK


def _apply_linear(args: argparse.Namespace, table: EmbeddingTable, model: LinearBiasModel) -> EmbeddingTable:
    matrix = neutralize_matrix(model, table.matrix)
    if args.equalize:
        if args.sets is None:
            raise FormatError("--equalize requires --sets")
        _, eq_sets = _resolve_sets(args, table)
        for members in eq_sets.sets:
            for idx, vec in zip(members, equalize_set(model, table, members)):
                matrix[idx] = vec
    return EmbeddingTable(words=table.words, matrix=matrix)


def _apply_kernel(
    args: argparse.Namespace, table: EmbeddingTable, model: KernelBiasModel, data: dict
) -> tuple[EmbeddingTable, dict]:
    if args.sets is not None:
        pairs = _resolve_sets(args, table)[0].pairs
    else:
        pairs = [
            (table.row_index(a), table.row_index(b))
            for a, b in data.get("pair_words") or []
            if a in table and b in table
        ]
    if not pairs:
        raise DataError(
            "cannot locate defining words for the pre-image sample; pass --sets"
        )
    rng = rng_for(args.seed, "preimage-sample")
    sample = default_sample(table, pairs, rng, extra=args.preimage_sample)
    pmap = fit_preimage_map(model, table, sample, ridge_lambda=args.ridge_lambda)
    matrix = preimage_neutralize_matrix(pmap, table.matrix)
    return EmbeddingTable(words=table.words, matrix=matrix), preimage_to_dict(pmap)


def cmd_apply(args: argparse.Namespace) -> int:
    table = _read_embeddings(args.embeddings, not args.no_normalize)
    model, data = configio.load_model(args.model)
    evaluation.check_dimension(model.dim, table)
    if isinstance(model, LinearBiasModel):
        out_table = _apply_linear(args, table, model)
    else:
        if args.equalize:
            raise FormatError("--equalize is only supported with a linear model")
        out_table, data["preimage"] = _apply_kernel(args, table, model, data)
        if args.out_model is not None:
            Path(args.out_model).write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
    _write_text(args.out, write_embedding_text(out_table, precision=args.precision))
    if args.out not in (None, "-"):
        print(f"wrote {args.out}")
    return EXIT_OK


def cmd_sim(args: argparse.Namespace) -> int:
    if len(args.words) % 2 != 0:
        raise FormatError("sim expects an even number of words (pairs)")
    table = _read_embeddings(args.embeddings, not args.no_normalize)
    backend = _make_backend(args, table)
    pairs = list(zip(args.words[0::2], args.words[1::2]))
    values = evaluation.pair_similarities(backend, pairs)
    payload = {
        "backend": backend.name,
        "pairs": [{"a": a, "b": b, "similarity": float(v)} for (a, b), v in zip(pairs, values)],
    }
    _write_text(args.out, json.dumps(payload, indent=1) + "\n")
    return EXIT_OK


def cmd_eval_weat(args: argparse.Namespace) -> int:
    table = _read_embeddings(args.embeddings, not args.no_normalize)
    backend = _make_backend(args, table)
    cfg = configio.load_weat_config(args.config)
    if args.permutations is not None:
        cfg = dataclasses.replace(cfg, permutations=args.permutations)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    result = evaluation.weat_test(backend, cfg)
    payload = {
        "test": "weat",
        "backend": backend.name,
        "effect_size": result.effect_size,
        "p_value": result.p_value,
        "statistic": result.statistic,
        "n_used": result.n_used,
        "exhaustive": result.exhaustive,
    }
    _write_results(args.out, payload)
    return EXIT_OK


def cmd_eval_professions(args: argparse.Namespace) -> int:
    table = _read_embeddings(args.embeddings, not args.no_normalize)
    backend = _make_backend(args, table)
    correlation = evaluation.professions_correlation(
        backend,
        table,
        configio.load_word_list(args.professions),
        configio.load_word_list(args.male),
        configio.load_word_list(args.female),
        k_neighbors=args.neighbors,
        pool=args.pool,
    )
    payload = {
        "test": "professions",
        "backend": backend.name,
        "pearson": correlation,
        "neighbors": args.neighbors,
        "pool": args.pool,
    }
    _write_results(args.out, payload)
    return EXIT_OK


def cmd_eval_classify(args: argparse.Namespace) -> int:
    table = _read_embeddings(args.embeddings, not args.no_normalize)
    backend = _make_backend(args, table)
    result = evaluation.indirect_bias_classification(
        backend,
        table,
        n_biased=args.n_biased,
        n_train=args.n_train,
        svm_gamma=args.svm_gamma,
        c_reg=args.c_reg,
        tol=args.tol,
        seed=args.seed,
    )
    _write_results(args.out, {"test": "classify", **result})
    return EXIT_OK


def cmd_eval_simlex(args: argparse.Namespace) -> int:
    table = _read_embeddings(args.embeddings, not args.no_normalize)
    backend = _make_backend(args, table)
    pairs = configio.load_simlex_pairs(args.pairs)
    correlation, dropped = evaluation.simlex_eval(backend, pairs)
    payload = {
        "test": "simlex",
        "backend": backend.name,
        "spearman": correlation,
        "scored": len(pairs) - dropped,
        "dropped": dropped,
    }
    _write_results(args.out, payload)
    return EXIT_OK


def cmd_demo_toy(args: argparse.Namespace) -> int:
    points, neutralized, stats = toydemo.run_toy_demo(
        seed=args.seed, n_points=args.n_points, gamma=args.gamma
    )
    _write_text(args.out, toydemo.toy_demo_csv(points, neutralized))
    print(
        f"bias-direction variance: {stats['bias_variance_before']:.6g} -> "
        f"{stats['bias_variance_after']:.6g}",
        file=sys.stderr,
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser, embeddings: bool = True) -> None:
    if embeddings:
        parser.add_argument(
            "--embeddings", required=True, help="embedding text file, or - for stdin"
        )
        parser.add_argument(
            "--no-normalize",
            action="store_true",
            help="skip unit-normalizing vectors on load",
        )
    parser.add_argument("--seed", type=int, default=42, help="run seed (default 42)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kerndebias",
        description="Fit linear/kernel bias subspaces, correct embeddings or "
        "metrics, and evaluate residual bias.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit a bias model")
    _add_common(p_fit)
    p_fit.add_argument("--sets", required=True, help="defining/equality sets JSON")
    p_fit.add_argument("--backend", choices=("linear", "kernel"), default="linear")
    p_fit.add_argument("--kernel", help="kernel family name or KernelSpec JSON")
    p_fit.add_argument("--gamma", type=float, help="kernel width (default 1/dim)")
    p_fit.add_argument("--coef0", type=float, default=1.0)
    p_fit.add_argument("--degree", type=int, default=2)
    p_fit.add_argument("--components", type=int, default=1, help="bias directions K")
    p_fit.add_argument("--out", required=True, help="model JSON output path")
    p_fit.set_defaults(func=cmd_fit)

    p_apply = sub.add_parser("apply", help="write corrected embeddings")
    _add_common(p_apply)
    p_apply.add_argument("--model", required=True)
    p_apply.add_argument("--sets", help="sets JSON (equalize / pre-image sample)")
    p_apply.add_argument("--equalize", action="store_true", help="linear only")
    p_apply.add_argument("--ridge-lambda", type=float, default=DEFAULT_RIDGE_LAMBDA)
    p_apply.add_argument(
        "--preimage-sample",
        type=int,
        default=DEFAULT_EXTRA_SAMPLE,
        help="extra vocabulary words in the pre-image fit",
    )
    p_apply.add_argument("--precision", type=int, default=9)
    p_apply.add_argument("--out", required=True, help="embedding output, - for stdout")
    p_apply.add_argument("--out-model", help="re-write model JSON with pre-image map")
    p_apply.set_defaults(func=cmd_apply)

    p_sim = sub.add_parser("sim", help="pairwise similarity queries")
    _add_common(p_sim)
    p_sim.add_argument("--model", help="model JSON (omit for raw cosine)")
    p_sim.add_argument("--out", help="JSON output path (default stdout)")
    p_sim.add_argument("words", nargs="+", help="word pairs: a b [c d ...]")
    p_sim.set_defaults(func=cmd_sim)

    p_eval = sub.add_parser("eval", help="run a benchmark")
    eval_sub = p_eval.add_subparsers(dest="benchmark", required=True)

    p_weat = eval_sub.add_parser("weat", help="association test")
    _add_common(p_weat)
    p_weat.add_argument("--model", help="model JSON (omit for raw cosine)")
    p_weat.add_argument("--config", required=True, help="WEAT config JSON")
    p_weat.add_argument(
        "--permutations", type=int,
        help=f"override config permutation count (1 to {evaluation.MAX_PERMUTATIONS})",
    )
    p_weat.add_argument("--out", help="output prefix (.json/.csv)")
    # --seed overrides the config's seed only when given.
    p_weat.set_defaults(func=cmd_eval_weat, seed=None)

    p_prof = eval_sub.add_parser("professions", help="neighbor-bias correlation")
    _add_common(p_prof)
    p_prof.add_argument("--model", help="model JSON (omit for raw cosine)")
    p_prof.add_argument("--professions", required=True, help="profession word list")
    p_prof.add_argument("--male", required=True, help="male lexicon word list")
    p_prof.add_argument("--female", required=True, help="female lexicon word list")
    p_prof.add_argument("--neighbors", type=int, default=100)
    p_prof.add_argument(
        "--pool", choices=("vocabulary", "restricted"), default="vocabulary"
    )
    p_prof.add_argument("--out", help="output prefix (.json/.csv)")
    p_prof.set_defaults(func=cmd_eval_professions)

    p_cls = eval_sub.add_parser("classify", help="indirect-bias SVM")
    _add_common(p_cls)
    p_cls.add_argument("--model", help="model JSON (omit for raw metric)")
    p_cls.add_argument("--n-biased", type=int, default=5000)
    p_cls.add_argument("--n-train", type=int, default=1000)
    p_cls.add_argument("--svm-gamma", type=float)
    p_cls.add_argument("--c-reg", type=float, default=1.0)
    p_cls.add_argument("--tol", type=float, default=1e-3)
    p_cls.add_argument("--out", help="output prefix (.json/.csv)")
    p_cls.set_defaults(func=cmd_eval_classify)

    p_sl = eval_sub.add_parser("simlex", help="similarity-judgment correlation")
    _add_common(p_sl)
    p_sl.add_argument("--model", help="model JSON (omit for raw cosine)")
    p_sl.add_argument("--pairs", required=True, help="tab-separated word1 word2 score")
    p_sl.add_argument("--out", help="output prefix (.json/.csv)")
    p_sl.set_defaults(func=cmd_eval_simlex)

    p_toy = sub.add_parser("demo-toy", help="2-D nonlinear removal demo CSV")
    _add_common(p_toy, embeddings=False)
    p_toy.add_argument("--n-points", type=int, default=200)
    p_toy.add_argument("--gamma", type=float, default=1.0, help="rbf width (default 1.0)")
    p_toy.add_argument("--out", help="CSV output path (default stdout)")
    p_toy.set_defaults(func=cmd_demo_toy)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (
        FormatError, FileNotFoundError, IsADirectoryError, PermissionError, UnicodeDecodeError
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
