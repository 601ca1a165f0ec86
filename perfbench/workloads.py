"""Seeded argv lists for the three ``nhcomp`` benchmark workloads.

Each workload is a list of CLI argv (without ``--out``) that the worker runs
in-process through ``nhcomp.cli.main``. The seed draws only model inputs:
stretch bounds, ``--nu``, ``--mu`` and the ``hn:q`` / ``ogden:beta``
parameters. The paper's tables stay fixed. Floats
are printed with four decimals so that an argv, and so its recorded digest,
is the same on every run with the same seed.

Ranges drawn from the seed (uniform unless noted):

* sweep ``--lam-min`` in [0.2, 0.5] and ``--lam-max`` in [2, 5], log-uniform;
* ``--mu`` in [0.5, 3];
* ``--nu`` (stability-grid) in [0, 0.49];
* ``hn:q`` with q in [0.25, 4];
* ``ogden:beta`` with |beta| in [0.25, 3] and either sign;
* dilatation ``--k-min`` in [0.5, 0.9] and ``--k-max`` in [1.1, 1.5].
"""

from __future__ import annotations

import math
import random

DEFAULT_SEED = 0

# Points per sweep invocation. Each invocation solves six Poisson ratios
# (``--nu-set paper``), so one pass of sweep-continuation makes
# 24 invocations x 6 ratios x SWEEP_POINTS continuation-seeded solves.
SWEEP_POINTS = 6

CASES = ("ul", "elp", "ulp")
KINDS = ("mixed", "voliso")


def _f(x):
    return f"{x:.4f}"


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _hn(rng):
    return f"hn:{_f(rng.uniform(0.25, 4.0))}"


def _ogden(rng):
    return f"ogden:{_f(rng.choice((-1.0, 1.0)) * rng.uniform(0.25, 3.0))}"


def sweep_continuation(seed, points=SWEEP_POINTS):
    """One ``sweep --nu-set paper --log`` per (case, kind, volfun family).

    The catalog members of the power-pair (ids 1-4) and log-augmented
    (ids 5, 6) families rotate over the six (case, kind) pairs; one pair
    takes a seeded ``hn:q`` and another a seeded ``ogden:beta`` instead.
    """
    rng = random.Random(seed)
    hn_ids = ("1", "2", "3", "4", _hn(rng), "1")
    ogden_ids = ("5", "6", "5", "6", "6", _ogden(rng))
    argvs = []
    pairs = [(case, kind) for case in CASES for kind in KINDS]
    for k, (case, kind) in enumerate(pairs):
        for volfun in (hn_ids[k], ogden_ids[k], "7", "8"):
            argvs.append(
                [
                    "sweep",
                    "--case", case,
                    "--model", kind,
                    "--volfun", volfun,
                    "--nu-set", "paper",
                    "--log",
                    "--lam-min", _f(_log_uniform(rng, 0.2, 0.5)),
                    "--lam-max", _f(_log_uniform(rng, 2.0, 5.0)),
                    "--points", str(points),
                    "--mu", _f(rng.uniform(0.5, 3.0)),
                ]
            )
    return argvs


def limit_tables(seed):
    """The paper's limit tables plus a few ``limits`` runs; seed-independent."""
    del seed  # the tables are the paper's and stay fixed
    return [
        ["table-repro", "--table", "3"],
        ["table-repro", "--table", "4", "--jobs", "2"],
        ["table-repro", "--table", "6"],
        ["limits", "--case", "ul", "--model", "voliso", "--volfun", "7", "--nu", "0.25"],
        ["limits", "--case", "elp", "--model", "mixed", "--volfun", "2", "--nu", "0.45"],
        ["limits", "--case", "ulp", "--model", "voliso", "--volfun", "8", "--nu", "0.4999"],
    ]


def stability_grid(seed, grid_n=16, big_grid_n=32):
    """Eigen scans over n^3 stretch states plus the pointwise tensor paths."""
    rng = random.Random(seed)
    mu = _f(rng.uniform(0.5, 3.0))
    nu = _f(rng.uniform(0.0, 0.49))
    return [
        ["stability", "--grid-n", str(grid_n), "--nu-set", "paper", "--mu", mu],
        ["stability", "--grid-n", str(big_grid_n), "--volfun", _hn(rng), "--nu", nu, "--mu", mu],
        ["tangent-check", "--volfun", "all", "--nu", nu, "--mu", mu],
        ["audit-volfun"],
        [
            "dilatation",
            "--model", "voliso",
            "--volfun", _ogden(rng),
            "--nu", nu,
            "--mu", mu,
            "--k-min", _f(rng.uniform(0.5, 0.9)),
            "--k-max", _f(rng.uniform(1.1, 1.5)),
        ],
    ]


BUILDERS = {
    "sweep-continuation": sweep_continuation,
    "limit-tables": limit_tables,
    "stability-grid": stability_grid,
}
NAMES = tuple(BUILDERS)


def argvs(name, seed):
    """The argv list of workload ``name`` at ``seed``."""
    return BUILDERS[name](seed)
