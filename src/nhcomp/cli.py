"""Command-line front end producing reproducible CSV tables and curve data.

Subcommands
-----------
audit-volfun   five-constraint audit of the eight catalog volumetric functions
sweep          transverse stretch and stresses over an axial-stretch grid
limits         trend classification of each reported quantity at both stretch
               extremes (lambda -> 0 and lambda -> infinity)
dilatation     mean Cauchy stress under pure dilatation F = k I
stability      minimum coaxial contraction eigenvalue per model over a
               deterministic stretch grid, for the Hill and corotational forms
tangent-check  finite-difference verification of the spatial tangent
table-repro    observed vs reference limit classes for tables 3, 4 and 6

Importing this module loads numpy, ``materials`` and ``volfun``, which every
subcommand uses. Each subcommand imports the layer it runs when it runs:
``sweep``, ``limits``, ``dilatation`` and ``table-repro`` import the solver
(``homsolve``); ``stability`` and ``tangent-check`` import ``stability``
(and with it ``kinematics``); ``audit-volfun`` and ``--help`` import
neither. Every call of the command starts a fresh interpreter, so this keeps
each command from paying for the other layer.

Output is CSV only: a header row, LF line endings, ``.`` as the decimal
separator, and floats printed with 17 significant digits. A given argv
produces byte-identical output on every run. Every subcommand runs in one
thread. ``stability`` scans all the nu of one (kind, contraction, volfun)
in one batch, and every other subcommand runs its cells one at a time.
``table-repro`` alone accepts ``--jobs`` and ignores it, since the
benchmark's limit-tables argv passes it there; any other subcommand given
``--jobs`` exits 1.

Exit status: 0 on success, 1 on parameter errors (message on stderr),
2 on solver non-convergence -- the partial CSV is still written, with the
failed rows marked ``converged=false`` (or classes left unresolved).
A stability value that leaves the float range at the given modulus has
no verdict and also exits 1, naming the modulus, and so does an ``--out``
path that cannot be opened.

``main(argv)`` can be called repeatedly in one process: it builds its
argument parser once per process, and every call recomputes its results.
"""

from __future__ import annotations

import argparse
import csv
import functools
import itertools
import sys

import numpy as np

from nhcomp.materials import CASES, PAPER_NUS, ModelSpec, params_from_E_nu, params_from_mu_nu
from nhcomp.volfun import audit, catalog, parse_volfun

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NO_CONVERGENCE = 2

# Poisson ratios swept when reproducing the reference tables; the printed
# classes mix asymptotic regimes, so a cell counts as reproduced when any
# swept ratio yields the reference class (the per-row match column records
# which ones do).
_TABLE_NUS = (0.25, 0.45, 0.4999)


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with status 1, not 2.

    Exit status 2 is reserved for solver non-convergence.
    """

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


# --------------------------------------------------------------------------
# CSV plumbing


def _fmt(value):
    if isinstance(value, float):  # most cells; neither bool type is a float
        return format(value, ".17g")
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    return str(value)


def _write_csv(header, rows, out):
    if out is None:
        _dump(sys.stdout, header, rows)
        return
    try:
        fh = open(out, "w", newline="")
    except OSError as err:
        raise ValueError(f"cannot write --out {out}: {err.strerror}") from None
    with fh:
        _dump(fh, header, rows)


def _dump(fh, header, rows):
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])


# --------------------------------------------------------------------------
# shared flag handling


def _model(args, kind, volfun, nu):
    """The ModelSpec of one cell: ``kind``, ``volfun`` (a VolFun, the text
    of ``--volfun``, or None) and ``nu``, at the modulus ``--E`` or ``--mu``
    (default 1.0), never both.

    Every subcommand states its models here, so the ``--nu``, ``--volfun``,
    ``--mu`` and ``--E`` rules are the same everywhere.
    """
    E, mu = getattr(args, "E", None), args.mu
    if E is not None and mu is not None:
        raise ValueError("give either --mu or --E, not both")
    if kind == "inc":
        if nu is not None:
            flag = "--nu" if getattr(args, "nu_set", None) is None else "--nu-set"
            raise ValueError(f"{flag} does not apply to the incompressible kind")
        if volfun is not None:
            raise ValueError("--volfun does not apply to the incompressible kind")
        nu = 0.5  # the moduli of the incompressible kind, from --mu or --E
    elif nu is None:
        flag = "--nu (or --nu-set)" if hasattr(args, "nu_set") else "--nu"
        raise ValueError(f"{flag} is required for the {kind!r} kind")
    elif volfun is None:
        raise ValueError(f"--volfun is required for the {kind!r} kind")
    if isinstance(volfun, str):
        volfun = parse_volfun(volfun)
    if E is None:
        params = params_from_mu_nu(1.0 if mu is None else mu, nu)
    else:
        params = params_from_E_nu(E, nu)
    return ModelSpec(kind, volfun, params)


def _nu_list(args):
    if args.nu_set is not None:
        if args.nu is not None:
            raise ValueError("give either --nu or --nu-set, not both")
        return PAPER_NUS
    return (args.nu,)


def _volfun_list(args):
    if args.volfun == "all":
        return [vf for _, vf in sorted(catalog().items())]
    return [parse_volfun(args.volfun)]


# --------------------------------------------------------------------------
# subcommands


def _cmd_audit_volfun(args):
    header = [
        "volfun",
        "normalized",
        "sign_of_hp",
        "convex",
        "chi_positive",
        "diverges",
        "witness",
    ]
    rows = []
    for _, vf in sorted(catalog().items()):
        flags, witness = audit(vf).as_row()
        rows.append([vf.label, *flags, "" if witness is None else float(witness)])
    return header, rows, True


def _cmd_sweep(args):
    from nhcomp import homsolve as hs

    spec = hs.SweepSpec(args.lam_min, args.lam_max, args.points, log=args.log)
    grid = spec.grid()
    multi = args.nu_set is not None
    header = ["lambda_tilde", "lambda_T", "J", "sigma11", "sigma22", "P11", "P22", "converged"]
    if multi:
        header = ["nu", *header]

    models = [_model(args, args.model, args.volfun, nu) for nu in _nu_list(args)]
    sweeps = [hs.sweep(args.case, model, grid) for model in models]

    rows, ok = [], True
    for model, results in zip(models, sweeps):
        for lam, res in zip(grid, results):
            ok = ok and res.converged
            row = [
                float(lam),
                res.lambda_T,
                res.J,
                res.sigma11,
                res.sigma22,
                res.P11,
                res.P22,
                res.converged,
            ]
            rows.append([model.params.nu, *row] if multi else row)
    return header, rows, ok


def _cmd_limits(args):
    from nhcomp import homsolve as hs

    model = _model(args, args.model, args.volfun, args.nu)
    header = ["quantity", "direction", "class", "constant"]
    rows, ok = [], True
    for direction in ("to_zero", "to_infinity"):
        classes = hs.limit_probe(args.case, model, direction)
        for name, lc in classes.items():
            ok = ok and not lc.solver_failed
            rows.append([name, direction, lc.label, "" if lc.constant is None else lc.constant])
    return header, rows, ok


def _cmd_dilatation(args):
    from nhcomp import homsolve as hs

    model = _model(args, args.model, args.volfun, args.nu)
    ks = hs.SweepSpec(args.k_min, args.k_max, args.points, log=False).grid()
    header = ["k", "sigma_m", "p"]
    rows = []
    for k in ks:
        sigma_m = hs.dilatation_response(model, float(k))
        rows.append([float(k), sigma_m, -sigma_m + 0.0])
    return header, rows, True


def _cmd_stability(args):
    from nhcomp import stability as st

    kinds = ("mixed", "voliso") if args.model == "both" else (args.model,)
    nus = _nu_list(args)
    grid = st.stretch_grid(args.grid_n)
    header = ["model", "volfun", "nu", "J", "contraction_kind", "value", "verdict"]

    # building every ModelSpec first rejects an inadmissible (kind, nu)
    # before any cell is scanned, with the same messages as sweep and limits
    tasks = [
        (_model(args, kind, vf, nu), contraction)
        for kind in kinds
        for vf in _volfun_list(args)
        for nu in nus
        for contraction in ("hill", "csp")
    ]

    def row(k, scan):
        model, contraction = tasks[k]
        value, i, _ = scan
        return [
            model.kind,
            model.volfun.label,
            float(model.params.nu),
            float(np.prod(grid[i])),
            contraction,
            value,
            st.classify_value(value, model.params.mu),
        ]

    def batch(k):
        model, contraction = tasks[k]
        return model.kind, contraction, model.volfun

    def scan_key(k):  # a cell with no volumetric term scans the same for every volfun
        model, contraction = tasks[k]
        return k if model.volumetric_term(1.0) else (model.kind, contraction, model.params)

    # run the cells of one (kind, contraction) back to back so that they
    # share one shear block, and scan the nu of each volfun in one batch
    # (see st.min_coaxial_eig); the first volfun's batch answers the cells
    # with no volumetric term (the mixed kind at nu = 0) of the others.
    # Rows keep task order, and the first error is the one that running
    # the cells one at a time meets first.
    rows, outcome = [None] * len(tasks), {}
    order = sorted(range(len(tasks)), key=lambda k: batch(k)[:2])
    for (kind, contraction, volfun), run in itertools.groupby(order, key=batch):
        run = list(run)
        scan = [k for k in run if scan_key(k) not in outcome]
        params = [tasks[k][0].params for k in scan]
        try:
            results = st.min_coaxial_eig(kind, volfun, params, grid, contraction) if scan else []
        except ValueError:  # a verdict of an earlier cell may fail first
            for k in scan:
                row(k, st.min_coaxial_eig(kind, volfun, tasks[k][0].params, grid, contraction))
            raise
        outcome.update(zip(map(scan_key, scan), results))
        for k in run:
            rows[k] = row(k, outcome[scan_key(k)])
    return header, rows, True


def _cmd_tangent_check(args):
    from nhcomp import stability as st

    header = ["model", "volfun", "max_rel_error"]
    rows = []
    for kind in ("mixed", "voliso"):
        for vf in _volfun_list(args):
            model = _model(args, kind, vf, args.nu)
            rows.append([kind, vf.label, st.tangent_fd_error(model, n_motions=args.motions)])
    return header, rows, True


# --------------------------------------------------------------------------
# reference tables


def _reference_cells(table):
    """Reference limit classes keyed ``(volfun id, kind, quantity)``.

    Each value is a ``(to_zero, to_infinity)`` token pair. A token of the
    form ``truth!orig`` marks a cell whose reference class is corrected
    from ``orig`` because an exact identity at the root forces ``truth``;
    the emitted note records the reason. ``*`` cells list no class and are
    excluded from matching.
    """
    if table == 3:
        case, vids = "ul", tuple(range(1, 9))
        quantities = ("lambda_T", "sigma11", "P11")
        mixed_lamT = {5: ("*", "0"), 6: ("*", "0"), 7: ("1", "0")}
        mixed_extra = {}
        voliso = {
            "lambda_T": {
                1: ("0", "+inf"),
                2: ("+inf", "+inf"),
                3: ("+inf", "0"),
                4: ("+inf", "0"),
                5: ("0", "0"),
                6: ("0", "+inf"),
                7: ("0", "0"),
                8: ("+inf", "0"),
            },
            "sigma11": {
                1: ("-inf", "0"),
                2: ("-inf", "*"),
                6: ("-inf", "3K!+inf"),
                7: ("-3K", "+inf"),
            },
            "P11": {1: ("-inf", "0"), 7: ("0", "+inf")},
        }
    elif table == 4:
        case, vids = "elp", (1, 4, 7, 8)
        quantities = ("lambda_T", "sigma11", "P11")
        mixed_lamT = {7: ("1", "0")}
        mixed_extra = {}
        voliso = {
            "lambda_T": {1: ("0", "+inf"), 4: ("+inf", "0"), 7: ("0", "0"), 8: ("+inf", "0")},
            "sigma11": {1: ("-inf", "0"), 7: ("-3K/2", "+inf")},
            "P11": {1: ("-inf", "0"), 7: ("0", "+inf")},
        }
    elif table == 6:
        case, vids = "ulp", (1, 4, 7, 8)
        quantities = ("lambda_T", "sigma11", "sigma22", "P11", "P22")
        mixed_lamT = {7: ("1", "0")}
        mixed_extra = {
            "sigma22": {1: ("-inf", "*"), 4: ("-inf", "*"), 7: ("-lambda", "*"), 8: ("-inf", "*")},
            "P22": {1: ("-inf", "+mu"), 4: ("-inf", "+mu"), 7: ("0", "+mu"), 8: ("-inf", "+mu")},
        }
        voliso = {
            "lambda_T": {
                1: ("1/sqrt2", "+inf"),
                4: ("+inf", "0"),
                7: ("1/sqrt2", "0"),
                8: ("+inf", "0"),
            },
            "sigma11": {1: ("-inf", "0")},
            "sigma22": {
                1: ("-inf", "0"),
                4: ("-inf", "0!+inf"),
                7: ("+inf", "0!+inf"),
                8: ("-inf", "0!+inf"),
            },
            "P11": {1: ("-inf", "0")},
            "P22": {
                1: ("+-inf", "-inf"),
                4: ("-inf", "0!+inf"),
                7: ("+inf", "0!+inf"),
                8: ("-inf", "0!+inf"),
            },
        }
    else:
        raise ValueError(f"table id must be 3, 4 or 6, got {table}")

    cells = {}
    for vid in vids:
        cells[(vid, "mixed", "lambda_T")] = mixed_lamT.get(vid, ("+inf", "0"))
        cells[(vid, "mixed", "sigma11")] = ("-inf", "+inf")
        cells[(vid, "mixed", "P11")] = ("-inf", "+inf")
        for q, per_vid in mixed_extra.items():
            cells[(vid, "mixed", q)] = per_vid[vid]
        for q in quantities:
            cells[(vid, "voliso", q)] = voliso.get(q, {}).get(vid, ("-inf", "+inf"))
    return case, vids, quantities, cells


_CORRECTION_REASONS = {
    "sigma11": (
        "at the vol-iso root sigma11 = 3 K h'(J) and h'(J) -> 1 as J -> inf "
        "for this h, so the limit is the finite constant 3K"
    ),
    "sigma22": (
        "at the vol-iso root sigma22 = mu J^(-5/3) (1 - lambda_T^2), which "
        "-> 0 because J -> inf while lambda_T -> 0"
    ),
    "P22": (
        "at the vol-iso root P22 = J sigma22 = mu J^(-2/3) (1 - lambda_T^2), "
        "which -> 0 because J -> inf while lambda_T -> 0"
    ),
}


def _finite_target(token, p):
    """The value of a finite reference token for the constants ``p``."""
    return {
        "1": 1.0,
        "1/sqrt2": 0.5**0.5,
        "+mu": p.mu,
        "-lambda": -p.lam,
        "-3K": -3.0 * p.K,
        "-3K/2": -1.5 * p.K,
        "3K": 3.0 * p.K,
    }[token]


def _token_match(token, lc, params):
    """Does one observed LimitClass reproduce a reference token for these constants?"""
    if token in ("+inf", "-inf", "0"):
        return lc.label == token
    if token == "+-inf":
        return lc.label in ("+inf", "-inf")
    if lc.label != "finite":
        return False
    target = _finite_target(token, params)
    return abs(lc.constant - target) <= 0.01 * abs(target)


def _cmd_table_repro(args):
    from nhcomp import homsolve as hs

    case, vids, quantities, cells = _reference_cells(args.table)
    header = [
        "table",
        "case",
        "model",
        "volfun",
        "quantity",
        "direction",
        "nu",
        "expected",
        "observed",
        "constant",
        "match",
        "note",
    ]
    cat = catalog()
    models, probes = {}, {}
    for vid in vids:
        for kind in ("mixed", "voliso"):
            for nu in _TABLE_NUS:
                model = models[vid, kind, nu] = _model(args, kind, cat[vid], nu)
                for direction in ("to_zero", "to_infinity"):
                    probes[vid, kind, nu, direction] = hs.limit_probe(case, model, direction)

    rows, ok = [], True
    for vid in vids:
        for kind in ("mixed", "voliso"):
            for q in quantities:
                pair = cells[(vid, kind, q)]
                for direction, raw in zip(("to_zero", "to_infinity"), pair):
                    token, _, corrected_from = raw.partition("!")
                    if corrected_from:
                        note = (
                            f"reference class corrected from {corrected_from}: "
                            f"{_CORRECTION_REASONS[q]}"
                        )
                    elif token == "*":
                        note = "no reference class listed for this cell"
                    elif token == "+-inf":
                        note = "either sign of infinity accepted"
                    else:
                        note = ""
                    for nu in _TABLE_NUS:
                        lc = probes[(vid, kind, nu, direction)][q]
                        ok = ok and not lc.solver_failed
                        if token == "*":
                            match = ""
                        else:
                            params = models[vid, kind, nu].params
                            match = "yes" if _token_match(token, lc, params) else "no"
                        rows.append(
                            [
                                args.table,
                                case,
                                kind,
                                vid,
                                q,
                                direction,
                                float(nu),
                                token,
                                str(lc),
                                "" if lc.constant is None else lc.constant,
                                match,
                                note,
                            ]
                        )
    return header, rows, ok


# --------------------------------------------------------------------------
# parser


def _bounded_int(lo, hi=None):
    """argparse type: an integer in [lo, hi] (no upper bound when hi is None)."""

    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < lo or (hi is not None and value > hi):
            bounds = f">= {lo}" if hi is None else f"between {lo} and {hi}"
            raise argparse.ArgumentTypeError(f"must be {bounds}, got {value}")
        return value

    return parse


# a stability run keeps 4 words per state of its n^3 grid, 13 doubles per
# stretch class (about n^3 / 4 classes) and 10 words per state of the last
# open classes from cell to cell: at n = 100 a one-volfun run (--volfun 1
# --nu 0.3) peaks at about 120 MB RSS (56 MB at n = 64)
_GRID_N_MAX = 100

# the most points of a sweep or dilatation grid; 10^6 points are an 8 MB grid
_POINTS_MAX = 10**6

# the most tangent-check motions, the motions in stability's table; the
# motion set is held for the run, about 2.9 KB a motion (tracemalloc, at
# 1000 motions), so 2.9 MB at the bound
_MOTIONS_MAX = 1000


# the modulus and Poisson-ratio flags; each subcommand takes the subset it uses
_MODULUS_FLAGS = {
    "--mu": {"type": float, "help": "shear modulus (default 1.0)"},
    "--E": {"type": float, "help": "Young's modulus, in place of --mu"},
    "--nu": {"type": float, "help": "Poisson's ratio"},
    "--nu-set": {
        "choices": ("paper",),
        "help": f"named Poisson-ratio preset: 'paper' = {', '.join(map(str, PAPER_NUS))}",
    },
}


def _add_moduli(p, *flags):
    """Add the named ``_MODULUS_FLAGS`` to ``p`` in the order given."""
    for flag in flags:
        p.add_argument(flag, **_MODULUS_FLAGS[flag])


def _add_model(p, *moduli):
    """Add the flags of one model: the ``moduli``, ``--model`` and ``--volfun``."""
    _add_moduli(p, *moduli)
    p.add_argument("--model", choices=("inc", "mixed", "voliso"), required=True, help="model kind")
    p.add_argument(
        "--volfun",
        default=None,
        help="volumetric function: catalog id 1..8, 'hn:q' or 'ogden:beta'",
    )


@functools.cache
def _build_parser():
    """The argparse tree of every subcommand, built once per process.

    The tree does not depend on argv, and nothing mutates it after the
    build: every default is immutable, the ``type=`` callables hold no
    state, and ``sys.stdout``, ``sys.stderr`` and the terminal width are
    read when help or usage is printed. Each ``parse_args`` call fills a
    fresh namespace, so :func:`main` can share the tree between calls.
    """
    parser = _Parser(
        prog="nhcomp",
        description="Compressible neo-Hookean model tables and curve data as CSV.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    p = sub.add_parser("audit-volfun", help="five-constraint audit of the volfun catalog")
    p.set_defaults(func=_cmd_audit_volfun)

    p = sub.add_parser("sweep", help="solve a homogeneous case over a stretch grid")
    p.add_argument("--case", choices=CASES, required=True, help="loading case")
    p.add_argument("--lam-min", type=float, required=True, help="smallest axial stretch")
    p.add_argument("--lam-max", type=float, required=True, help="largest axial stretch")
    p.add_argument(
        "--points",
        type=_bounded_int(1, _POINTS_MAX),
        required=True,
        help=f"number of grid points, 1..{_POINTS_MAX}",
    )
    p.add_argument("--log", action="store_true", help="log-spaced grid (default linear)")
    _add_model(p, "--mu", "--E", "--nu", "--nu-set")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("limits", help="classify the stretch-extreme trends of one model")
    p.add_argument("--case", choices=CASES, required=True, help="loading case")
    _add_model(p, "--mu", "--E", "--nu")
    p.set_defaults(func=_cmd_limits)

    p = sub.add_parser("dilatation", help="mean stress under pure dilatation F = k I")
    p.add_argument("--k-min", type=float, default=0.5, help="smallest dilatation stretch")
    p.add_argument("--k-max", type=float, default=1.5, help="largest dilatation stretch")
    p.add_argument(
        "--points",
        type=_bounded_int(1, _POINTS_MAX),
        default=101,
        help=f"number of grid points, 1..{_POINTS_MAX} (default 101)",
    )
    _add_model(p, "--mu", "--E", "--nu")
    p.set_defaults(func=_cmd_dilatation)

    p = sub.add_parser(
        "stability",
        help="minimum coaxial Hill/corotational contraction eigenvalue per model",
    )
    p.add_argument(
        "--model",
        choices=("mixed", "voliso", "both"),
        default="both",
        help="model kind(s) to scan",
    )
    p.add_argument("--volfun", default="all", help="catalog id, 'hn:q', 'ogden:beta' or 'all'")
    p.add_argument(
        "--grid-n",
        type=_bounded_int(1, _GRID_N_MAX),
        default=16,
        help=f"grid resolution per stretch axis, 1..{_GRID_N_MAX}",
    )
    _add_moduli(p, "--mu", "--nu", "--nu-set")
    p.set_defaults(func=_cmd_stability)

    p = sub.add_parser("tangent-check", help="finite-difference tangent verification")
    p.add_argument("--volfun", default="all", help="catalog id, 'hn:q', 'ogden:beta' or 'all'")
    p.add_argument(
        "--motions",
        type=_bounded_int(1, _MOTIONS_MAX),
        default=10,
        help=f"number of deterministic motions, 1..{_MOTIONS_MAX} (default 10)",
    )
    _add_moduli(p, "--mu", "--nu")
    p.set_defaults(func=_cmd_tangent_check)

    p = sub.add_parser("table-repro", help="observed vs reference limit classes")
    p.add_argument("--table", type=int, choices=(3, 4, 6), required=True, help="table id")
    _add_moduli(p, "--mu")
    p.set_defaults(func=_cmd_table_repro)

    # added last, so that every --help ends with --out (table-repro's with --jobs)
    for p in sub.choices.values():
        p.add_argument("--out", help="write the CSV here instead of stdout")
    sub.choices["table-repro"].add_argument(
        "--jobs",
        type=_bounded_int(1),
        default=1,
        help="ignored; kept for compatibility (cells always run one at a time)",
    )

    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        header, rows, ok = args.func(args)
        _write_csv(header, rows, args.out)
    except ValueError as err:
        print(f"nhcomp: error: {err}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK if ok else EXIT_NO_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
