"""Deterministic synthetic GWAS summary files for the ``gwas-test-200k`` workload.

Two allele-coded TSVs (exposure trait D, outcome trait Y) are drawn from one
seed. Every variant is planted with a known harmonization outcome, so the
harmonized panel the program should build is known without running it:

* ``kept``        same allele pair in both files;
* ``flipped``     outcome file lists the swapped pair and the negated beta;
* ``palindromic`` A/T or C/G pair, dropped by allele harmonization;
* ``mismatched``  outcome pair is neither the same nor the swapped pair;
* ``no_outcome``  present in the exposure file only;
* ``no_exposure`` present in the outcome file only.

Effects: a small share of variants is a strong instrument for D, for Y, or
for both (pleiotropic), drawn at 5 to 12 noise units; D has a causal effect
``BETA_DY`` on Y. Everything else is pure noise. Betas are written with
``repr`` so the program parses back exactly the values recorded here.

Run ``python3 bench/gen_gwas.py --seed 1 --variants 200000 --out DIR`` to
write ``exposure.tsv`` and ``outcome.tsv`` into ``DIR``.
"""

from __future__ import annotations

import argparse
import os
from dataclasses import dataclass

import numpy as np

KEPT, FLIPPED, PALINDROMIC, MISMATCHED, NO_OUTCOME, NO_EXPOSURE = range(6)
CATEGORY_NAMES = ("kept", "flipped", "palindromic", "mismatched", "no_outcome", "no_exposure")

# Shares of all variants; the rest is kept as is.
SHARES = {
    FLIPPED: 0.30,
    PALINDROMIC: 0.02,
    MISMATCHED: 0.01,
    NO_OUTCOME: 0.02,
    NO_EXPOSURE: 0.02,
}
STRONG_D, STRONG_Y, STRONG_BOTH = 0.012, 0.008, 0.003
STRONG_SNR = (5.0, 12.0)
BETA_DY = 0.08
SE_MEDIAN = 0.01
SE_LOG_SPREAD = 0.2

# Unordered non-palindromic allele pairs; a mismatched variant swaps in a
# different one of these in the outcome file.
_PAIRS = (("A", "C"), ("A", "G"), ("C", "T"), ("G", "T"))
_PALINDROMES = (("A", "T"), ("C", "G"))


@dataclass(frozen=True, eq=False)
class Planted:
    """Per-variant truth of one generated pair of files, in exposure-file order.

    ``beta_y`` and ``se_y`` are the outcome association on the exposure
    file's allele orientation; the outcome file writes ``-beta_y`` for
    flipped variants. ``outcome_order`` lists variant positions in the order
    of the (shuffled) outcome file.
    """

    ids: np.ndarray
    category: np.ndarray
    beta_d: np.ndarray
    se_d: np.ndarray
    beta_y: np.ndarray
    se_y: np.ndarray
    exp_alleles: np.ndarray
    out_alleles: np.ndarray
    outcome_order: np.ndarray

    def harmonized(self):
        """(ids, beta_d, se_d, beta_y, se_y) of the panel allele harmonization must build."""
        keep = (self.category == KEPT) | (self.category == FLIPPED)
        return self.ids[keep], self.beta_d[keep], self.se_d[keep], self.beta_y[keep], self.se_y[keep]


def _category_counts(n: int) -> dict[int, int]:
    counts = {cat: int(round(share * n)) for cat, share in SHARES.items()}
    counts[KEPT] = n - sum(counts.values())
    return counts


def generate(seed: int, n_variants: int) -> Planted:
    """Draw one pair of summary files; the same arguments give the same files."""
    if n_variants < 100:
        raise ValueError("need at least 100 variants")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0x6757,)))
    n = n_variants

    category = np.concatenate(
        [np.full(count, cat, dtype=np.int8) for cat, count in sorted(_category_counts(n).items())]
    )
    rng.shuffle(category)

    # Effects in noise units: strong instruments for D, Y or both.
    role = rng.random(n)
    strong_d = role < STRONG_D + STRONG_BOTH
    strong_y = (role >= STRONG_D) & (role < STRONG_D + STRONG_BOTH + STRONG_Y)
    se_d = SE_MEDIAN * np.exp(rng.normal(0.0, SE_LOG_SPREAD, n))
    se_y = SE_MEDIAN * np.exp(rng.normal(0.0, SE_LOG_SPREAD, n))
    snr_d = rng.uniform(*STRONG_SNR, n) * rng.choice([-1.0, 1.0], n)
    snr_y = rng.uniform(*STRONG_SNR, n) * rng.choice([-1.0, 1.0], n)
    pi_d = np.where(strong_d, snr_d * se_d, 0.0)
    pi_y = np.where(strong_y, snr_y * se_y, 0.0)
    beta_d = pi_d + se_d * rng.standard_normal(n)
    beta_y = pi_y + BETA_DY * pi_d + se_y * rng.standard_normal(n)

    # Allele pairs: palindromic variants get A/T or C/G, everyone else a
    # non-palindromic pair in random orientation.
    pair_idx = rng.integers(0, len(_PAIRS), n)
    pal_idx = rng.integers(0, len(_PALINDROMES), n)
    orient = rng.random(n) < 0.5
    pairs = np.array(_PAIRS)[pair_idx]
    pairs = np.where(
        (category == PALINDROMIC)[:, None], np.array(_PALINDROMES)[pal_idx], pairs
    )
    exp_alleles = np.where(orient[:, None], pairs[:, ::-1], pairs)
    out_alleles = exp_alleles.copy()
    flipped = category == FLIPPED
    out_alleles[flipped] = exp_alleles[flipped][:, ::-1]
    mismatched = category == MISMATCHED
    other = (pair_idx + rng.integers(1, len(_PAIRS), n)) % len(_PAIRS)
    out_alleles[mismatched] = np.array(_PAIRS)[other[mismatched]]

    ids = np.array([f"rs{k}" for k in rng.permutation(np.arange(1, n + 1) * 7 + 1000)])
    outcome_order = rng.permutation(np.flatnonzero(category != NO_OUTCOME))
    return Planted(
        ids=ids,
        category=category,
        beta_d=beta_d,
        se_d=se_d,
        beta_y=beta_y,
        se_y=se_y,
        exp_alleles=exp_alleles,
        out_alleles=out_alleles,
        outcome_order=outcome_order,
    )


def _write(path: str, ids, alleles, beta, se) -> None:
    lines = ["id\teffect_allele\tother_allele\tbeta\tse"]
    lines.extend(
        f"{i}\t{a[0]}\t{a[1]}\t{b!r}\t{s!r}"
        for i, a, b, s in zip(ids.tolist(), alleles.tolist(), beta.tolist(), se.tolist())
    )
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def write_files(planted: Planted, out_dir: str) -> tuple[str, str]:
    """Write ``exposure.tsv`` and ``outcome.tsv`` into ``out_dir``; return their paths."""
    exposure = os.path.join(out_dir, "exposure.tsv")
    outcome = os.path.join(out_dir, "outcome.tsv")
    in_exposure = planted.category != NO_EXPOSURE
    _write(
        exposure,
        planted.ids[in_exposure],
        planted.exp_alleles[in_exposure],
        planted.beta_d[in_exposure],
        planted.se_d[in_exposure],
    )
    order = planted.outcome_order
    sign = np.where(planted.category[order] == FLIPPED, -1.0, 1.0)
    _write(
        outcome,
        planted.ids[order],
        planted.out_alleles[order],
        sign * planted.beta_y[order],
        planted.se_y[order],
    )
    return exposure, outcome


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--variants", type=int, default=200_000)
    parser.add_argument("--out", required=True, help="directory to write the two TSVs into")
    args = parser.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)
    planted = generate(args.seed, args.variants)
    for path in write_files(planted, args.out):
        print(path)
    counts = np.bincount(planted.category, minlength=len(CATEGORY_NAMES))
    print(", ".join(f"{name}={int(c)}" for name, c in zip(CATEGORY_NAMES, counts)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
