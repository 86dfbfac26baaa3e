"""Workload definitions and seeded input generation (standard library only).

This module is imported by the set-up probe before psombor, so it must not
import numpy or psombor: set-up time is the import of psombor plus what this
module generates, and nothing else.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = ("verify_all", "trees_n12")


def import_psombor():
    """Import psombor from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import psombor

    where = Path(psombor.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ImportError(f"psombor imported from {where}, not from {SRC}")
    return psombor


# verify_all: p values of the inequality suite.
VERIFY_P = "-1,0.5,1,2,3"

# verify_all checks its report byte for byte against a digest recorded per
# corpus seed, so the benchmark seed is folded onto CORPUS_SEED_SLOTS recorded
# corpus seeds. Seed 0 gives the CLI's own default corpus seed, 42. The
# random part of the corpus draws seeds corpus_seed + 0..199, so slots are
# 1000 apart to share no random graph.
CORPUS_SEED_SLOTS = 16


def corpus_seed(seed: int) -> int:
    return 42 + 1000 * (seed % CORPUS_SEED_SLOTS)


# trees_n12: tree size and p values; the seed has no effect.
TREES_N = 12
TREES_P = "1,2,3"


def generate(workload: str, seed: int, workdir: str) -> list[dict]:
    """Return the workload's items: one dict per cli.run call with the argv
    (minus --format/--out), the output file path under workdir and what the
    checker needs to know about the input."""
    items = []
    if workload == "verify_all":
        cs = corpus_seed(seed)
        items.append({
            "argv": ["verify", "--corpus", "all", "--p", VERIFY_P,
                     "--seed", str(cs), "--jobs", "1"],
            "out": os.path.join(workdir, "verify_all.json"),
            "corpus_seed": cs,
        })
    elif workload == "trees_n12":
        items.append({
            "argv": ["trees", "--n", str(TREES_N), "--verify-extremes",
                     "--p", TREES_P],
            "out": os.path.join(workdir, "trees_n12.json"),
        })
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return items
