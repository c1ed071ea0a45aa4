"""Seeded generator of planted-bias inputs for the kerndebias CLI.

Every word vector is  z + b * u + c * t  before unit normalization, where
u is the planted bias direction, t a shared topic direction, and z noise
kept orthogonal to both.  Groups of words differ only in b and c:

- ten defining pairs (``he``/``she`` first) share a base z per pair and sit
  at b = +/-0.5, so their differences span u;
- the male and female lexicons carry the topic (c = 0.7) and b of one sign;
- professions carry the same topic, so lexicon words are their nearest
  neighbours, and come as mirrored twins (one base z, b = +/-b_i).  Raw
  male-neighbour counts follow b; once b is removed the twins see the
  same neighbours, so the corrected correlation sits near zero;
- WEAT targets X and Y are mirrored twins in the same way; the attribute
  lists are the first lexicon words;
- SimLex pairs are built at a known cosine rho with gold = 10 rho + noise;
- filler words have b ~ N(0, 0.2) and no topic, which gives the
  indirect-bias classifier a continuum of biased words.

The generator writes the files the CLI reads and returns the normalized
matrix (as written) together with u, which the property checks use.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

PRECISION = 6
N_PAIRS = 10
N_LEXICON = 150
N_WEAT = 12
N_EQUALITY_EXTRA = 20
PAIR_OFFSET = 0.5
TOPIC = 0.7


@dataclass
class Inputs:
    """Paths of the generated files plus the ground truth the checks need."""

    embeddings: Path
    sets: Path
    male: Path
    female: Path
    professions: Path
    weat: Path
    simlex: Path
    words: list[str]
    matrix: np.ndarray  # unit rows, rounded as written
    bias_direction: np.ndarray  # planted u
    pairs: list[tuple[str, str]]

    def rows(self, names: list[str]) -> np.ndarray:
        index = {w: i for i, w in enumerate(self.words)}
        return self.matrix[[index[w] for w in names]]


def _orthonormal(rng: np.random.Generator, dim: int, count: int) -> np.ndarray:
    q, _ = np.linalg.qr(rng.standard_normal((dim, count)))
    return q.T


def generate(
    out_dir: Path,
    seed: int,
    n_words: int,
    dim: int,
    n_professions: int,
    n_simlex: int,
) -> Inputs:
    """Write one seeded input set into out_dir; the same seed gives the same files."""
    if n_professions % 2:
        raise ValueError("professions come in mirrored twins; need an even count")
    rng = np.random.default_rng([seed, n_words, dim])
    u, t = _orthonormal(rng, dim, 2)

    def noise(n: int, scale: float = 1.0) -> np.ndarray:
        z = rng.standard_normal((n, dim)) / np.sqrt(dim)
        z -= np.outer(z @ u, u) + np.outer(z @ t, t)
        return scale * z

    def planted(base: np.ndarray, bias, topic) -> np.ndarray:
        n = base.shape[0]
        bias = np.broadcast_to(np.asarray(bias, dtype=float), (n,))
        topic = np.broadcast_to(np.asarray(topic, dtype=float), (n,))
        return base + bias[:, None] * u + topic[:, None] * t

    words: list[str] = []
    blocks: list[np.ndarray] = []

    def add(names: list[str], rows: np.ndarray) -> None:
        words.extend(names)
        blocks.append(rows)

    def twins(names_a: list[str], names_b: list[str], bias, topic: float,
              jitter: float, lean: np.ndarray | float = 0.0) -> list[tuple[str, str]]:
        """Words sharing one base z (plus lean) per pair, at +bias and -bias."""
        n = len(names_a)
        base = noise(n) + lean
        add(names_a, planted(base + noise(n, jitter), bias, topic))
        add(names_b, planted(base + noise(n, jitter), -np.asarray(bias), topic))
        return list(zip(names_a, names_b))

    def numbered(prefix: str, n: int) -> list[str]:
        return [f"{prefix}{i}" for i in range(n)]

    pairs = twins(
        ["he", *numbered("dm", N_PAIRS - 1)], ["she", *numbered("df", N_PAIRS - 1)],
        PAIR_OFFSET, 0.0, 0.02,
    )
    equality_extra = twins(
        numbered("em", N_EQUALITY_EXTRA), numbered("ef", N_EQUALITY_EXTRA),
        PAIR_OFFSET, 0.0, 0.02,
    )

    male_lex = numbered("lm", N_LEXICON)
    female_lex = numbered("lf", N_LEXICON)
    male_base, female_base = noise(N_LEXICON), noise(N_LEXICON)
    add(male_lex, planted(male_base, rng.uniform(0.25, 0.55, N_LEXICON), TOPIC))
    add(female_lex, planted(female_base, -rng.uniform(0.25, 0.55, N_LEXICON), TOPIC))

    # Profession twins are exact mirrors, so after correction both twins see
    # the same neighbours.  Each twin pair leans towards one lexicon's noise
    # by a different amount, so corrected counts still differ between pairs
    # (Pearson needs non-constant counts) without following the bias.
    half = n_professions // 2
    prof_bias = np.linspace(0.1, 0.45, half) + rng.uniform(-0.03, 0.03, half)
    toward_male = male_base.mean(axis=0) - female_base.mean(axis=0)
    toward_male /= np.linalg.norm(toward_male)
    lean = rng.permutation(np.linspace(-0.3, 0.3, half))[:, None] * toward_male
    professions = [
        w
        for pair in twins(numbered("pa", half), numbered("pb", half), prof_bias, TOPIC, 0.0, lean)
        for w in pair
    ]
    weat_x = numbered("wx", N_WEAT)
    weat_y = numbered("wy", N_WEAT)
    twins(weat_x, weat_y, rng.uniform(0.15, 0.35, N_WEAT), 0.3, 0.1)

    base = noise(n_simlex)
    rho = rng.uniform(0.0, 0.9, n_simlex)
    partner = rho[:, None] * base + np.sqrt(1.0 - rho**2)[:, None] * noise(n_simlex)
    simlex_a = numbered("sa", n_simlex)
    simlex_b = numbered("sb", n_simlex)
    add(simlex_a, planted(base, rng.normal(0.0, 0.1, n_simlex), 0.0))
    add(simlex_b, planted(partner, rng.normal(0.0, 0.1, n_simlex), 0.0))
    gold = 10.0 * rho + rng.normal(0.0, 1.5, n_simlex)

    n_filler = n_words - len(words)
    if n_filler < 0:
        raise ValueError(f"{n_words} words cannot hold the {len(words)} planted ones")
    add(numbered("w", n_filler), planted(noise(n_filler), rng.normal(0.0, 0.2, n_filler), 0.0))

    written = np.vstack(blocks)
    written = np.round(written / np.linalg.norm(written, axis=1)[:, None], PRECISION)
    matrix = written / np.linalg.norm(written, axis=1)[:, None]

    out_dir.mkdir(parents=True, exist_ok=True)
    inputs = Inputs(
        embeddings=out_dir / "embeddings.txt",
        sets=out_dir / "sets.json",
        male=out_dir / "male.txt",
        female=out_dir / "female.txt",
        professions=out_dir / "professions.txt",
        weat=out_dir / "weat.json",
        simlex=out_dir / "simlex.tsv",
        words=words,
        matrix=matrix,
        bias_direction=u,
        pairs=pairs,
    )
    row_format = " ".join([f"%.{PRECISION}f"] * dim)
    with open(inputs.embeddings, "w", encoding="utf-8") as handle:
        handle.write(f"{len(words)} {dim}\n")
        for word, row in zip(words, written):
            handle.write(f"{word} {row_format % tuple(row)}\n")
    equality = [list(p) for p in pairs + equality_extra]
    inputs.sets.write_text(
        json.dumps({"defining_sets": [list(p) for p in pairs], "equality_sets": equality}),
        encoding="utf-8",
    )
    inputs.male.write_text("\n".join(male_lex) + "\n", encoding="utf-8")
    inputs.female.write_text("\n".join(female_lex) + "\n", encoding="utf-8")
    inputs.professions.write_text("\n".join(professions) + "\n", encoding="utf-8")
    inputs.weat.write_text(
        json.dumps({
            "X": weat_x, "Y": weat_y,
            "A": male_lex[:N_WEAT], "B": female_lex[:N_WEAT],
            "permutations": 100000, "seed": seed,
        }),
        encoding="utf-8",
    )
    inputs.simlex.write_text(
        "word1\tword2\tscore\n"
        + "".join(f"{a}\t{b}\t{g:.4f}\n" for a, b, g in zip(simlex_a, simlex_b, gold)),
        encoding="utf-8",
    )
    return inputs
