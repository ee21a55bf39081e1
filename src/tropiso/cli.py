"""Command line front end.

One subcommand per library operation, JSON in/out (CSV accepted for
matrices).  Every run with identical flags, inputs and seed produces
byte-identical primary output.  Library errors exit with code 1 and a
single-line message ``ERROR:<kind>: ...``; usage errors exit with code 2.
Each handler imports the library module it runs, so a process loads only
what its subcommand needs, and building the parser loads none.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .core import Semiring, TropMatrix, as_rational, tdist, tdiam
from .errors import DomainError, FormatError, TropicalError
from .matio import (
    dumps_matrix_json,
    format_scalar,
    load_matrix,
    load_plain_matrix,
    matrix_to_csv,
)

def _semiring(arg: str | None) -> Semiring | None:
    return None if arg is None else Semiring(arg)


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _matrix_text(A: TropMatrix, fmt: str) -> str:
    return matrix_to_csv(A) if fmt == "csv" else dumps_matrix_json(A) + "\n"


def _jdump(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _scalar(value, sr: Semiring = Semiring.MAX) -> str:
    return format_scalar(value, sr)


def _cap(args) -> int:
    """``--cap``, else ``TROPISO_CAP``, else the default; it must be positive."""
    from .assignment import DEFAULT_CAP
    env = os.environ.get("TROPISO_CAP")
    try:
        cap = int(args.cap if args.cap is not None else env or DEFAULT_CAP)
    except ValueError:
        raise DomainError(f"TROPISO_CAP must be an integer, got {env!r}") from None
    if cap < 1:
        raise DomainError("cap must be positive")
    return cap


def _cmd_tdist(args) -> int:
    A = load_matrix(args.matrix, _semiring(args.semiring))
    if A.rows != 2:
        raise FormatError("tdist expects a 2-row matrix (the two vectors)")
    print(_scalar(tdist(A.row(0), A.row(1))))
    return 0


def _cmd_tdiam(args) -> int:
    A = load_matrix(args.matrix, _semiring(args.semiring))
    print(_scalar(tdiam(A)))
    return 0


def _cmd_tdet(args) -> int:
    from .assignment import tdet
    A = load_matrix(args.matrix, _semiring(args.semiring))
    value, perm = tdet(A)
    if args.format == "json":
        text = _jdump({
            "value": _scalar(value, A.semiring),
            "witness": None if perm is None else list(perm.images),
        })
    else:
        text = _scalar(value, A.semiring) + "\n"
    _emit(text, args.output)
    return 0


def _cmd_tvol(args) -> int:
    from .assignment import tvol
    A = load_matrix(args.matrix, _semiring(args.semiring))
    print(_scalar(tvol(A)))
    return 0


def _cmd_standardize(args) -> int:
    from . import isodiametric
    A = load_matrix(args.matrix, _semiring(args.semiring))
    variant = isodiametric.StandardVariant(args.variant or A.semiring.value)
    form = isodiametric.to_standard(A, variant)
    obj = {
        "variant": form.variant.value,
        "matrix": json.loads(dumps_matrix_json(form.matrix)),
        "trail": [
            {"move": kind, "payload": [str(x) for x in payload]}
            for kind, payload in form.trail
        ],
    }
    _emit(_jdump(obj), args.output)
    return 0


def _cmd_iso_check(args) -> int:
    from . import isodiametric
    A = load_matrix(args.matrix, _semiring(args.semiring))
    variant = isodiametric.StandardVariant(args.variant or A.semiring.value)
    standardized, report = isodiametric.standardize_and_check(A, variant)

    def cond(c):
        return {"holds": c.holds,
                "violation": None if c.violation is None else list(c.violation)}

    obj = {
        "variant": report.variant.value,
        "standardized_first": standardized,
        "conditions": {
            "i": cond(report.cond_i),
            "ii": cond(report.cond_ii),
            "iii": cond(report.cond_iii),
            "iv": cond(report.cond_iv),
        },
        "strict_iv": report.strict_iv,
        "tdiam": _scalar(report.tdiam),
        "tvol": _scalar(report.tvol),
        "classification": report.classification.value,
    }
    _emit(_jdump(obj), args.output)
    return 0


def _cmd_iso_sample(args) -> int:
    from . import isodiametric
    B = isodiametric.sample_isodiametric(args.dim, args.seed,
                                         require_strict=args.strict)
    _emit(_matrix_text(B, args.format), args.output)
    return 0


def _cmd_kleene(args) -> int:
    from . import polytrope
    A = load_matrix(args.matrix, _semiring(args.semiring) or Semiring.MIN)
    star = polytrope.kleene_star(A)
    _emit(_matrix_text(star, args.format), args.output)
    return 0


def _cmd_polytrope(args) -> int:
    from . import polytrope
    A = load_matrix(args.matrix, _semiring(args.semiring) or Semiring.MIN)
    P = polytrope.build_polytrope(A)
    # render first, so that a matrix the SVG cannot show fails before any output
    svg = polytrope.render_svg(P) if args.svg else None
    _emit(_jdump(polytrope.polytrope_report(P)), args.report)
    if svg is not None:
        _emit(svg, args.svg)
    return 0


def _cmd_render(args) -> int:
    from . import polytrope
    A = load_matrix(args.matrix, _semiring(args.semiring) or Semiring.MIN)
    P = polytrope.build_polytrope(A)
    _emit(polytrope.render_svg(P), args.svg)
    return 0


def _cmd_qvol(args) -> int:
    from . import dequant
    cap = _cap(args)
    parts = []  # emitted once, so -o receives every input's result
    for path in args.matrix:
        A = load_matrix(path, _semiring(args.semiring))
        if args.require_generic:
            parts.append(_scalar(dequant.qvol(A, method=args.method, cap=cap)) + "\n")
            continue
        res = dequant.qvol_plus(A, method=args.method, cap=cap, compute_parity=args.json)
        if args.json:
            parts.append(_jdump({
                "value": _scalar(res.value),
                "witness_columns": None if res.witness_columns is None
                else list(res.witness_columns),
                "witness_perm": None if res.witness_perm is None
                else list(res.witness_perm.images),
                "method": res.method,
                "sign_generic_bar": res.sign_generic_bar.value,
            }))
        else:
            parts.append(_scalar(res.value) + "\n")
    _emit("".join(parts), args.output)
    return 0


def _cmd_sign_generic(args) -> int:
    from . import dequant
    A = load_matrix(args.matrix, _semiring(args.semiring))
    rep = dequant.sign_generic(A, bar=not args.no_bar, cap=_cap(args))
    obj = {
        "verdict": rep.verdict.value,
        "method": rep.method.value,
        "enumerated": rep.enumerated_count,
        "selection": None if rep.selection is None else list(rep.selection),
    }
    _emit(_jdump(obj), args.output)
    return 0


def _cmd_dequant_slope(args) -> int:
    from . import dequant
    A = load_matrix(args.matrix, _semiring(args.semiring))
    grid = dequant.DEFAULT_T_GRID
    if args.t_grid:
        grid = tuple(as_rational(tok) for tok in args.t_grid.split(","))
    res = dequant.dequant_slope(A, t_grid=grid, cap=_cap(args))
    if args.csv:
        lines = ["t,volume,log_ratio"]
        lines += [f"{t},{format_scalar(v, Semiring.MAX)},{r:.12g}"
                  for t, v, r in res.rows]
        _emit("\n".join(lines) + "\n", args.csv)
    _emit(_jdump({
        "slope": res.slope,
        "log_ratio_at_max_t": res.log_ratio_at_max_t,
        "qvol": _scalar(res.qvol_value),
    }), args.output)
    return 0


def _cmd_bound_check(args) -> int:
    from . import dequant
    rows = load_plain_matrix(args.matrix)
    rep = dequant.volume_bound_check(rows)
    _emit(_jdump({
        "volume": _scalar(rep.volume),
        "alpha": rep.alpha,
        "qvol_log": rep.qvol_log,
        "bound": rep.bound,
        "holds": rep.holds,
    }), args.output)
    return 0


def _cmd_paper_suite(args) -> int:
    from .paper_suite import CHECKS
    failures = 0
    for name, fn in CHECKS:
        try:
            ok, detail = fn()
        except TropicalError as exc:  # a check crashing counts as failure
            ok, detail = False, f"{exc.kind}: {exc.message}"
        status = "PASS" if ok else "FAIL"
        print(f"{status}  {name:40s} {detail}")
        failures += 0 if ok else 1
    print(f"{len(CHECKS) - failures}/{len(CHECKS)} checks passed")
    return 0 if failures == 0 else 1


# shared flags; each subcommand takes only those its handler reads
_FLAGS = {
    "semiring": (("--semiring",), {"choices": ["min", "max"]}),
    "format": (("--format",), {"choices": ["json", "csv"], "default": "json"}),
    "output": (("--output", "-o"), {"help": "write here instead of stdout"}),
    "cap": (("--cap",), {"type": int, "help": "enumeration cap (or env TROPISO_CAP)"}),
    "seed": (("--seed",), {"type": int, "default": 0}),
}


@functools.cache  # one parser per process; parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tropiso",
        description="Exact tropical metric geometry toolbox",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_, *flags, matrix=True, nargs=None):
        p = sub.add_parser(name, help=help_)
        if matrix:
            p.add_argument("matrix", nargs=nargs, help="matrix file (.json or .csv)")
        for flag in flags:
            names, kwargs = _FLAGS[flag]
            p.add_argument(*names, **kwargs)
        p.set_defaults(func=fn)
        return p

    add("tdist", _cmd_tdist, "tropical distance between the two rows of a 2xd matrix",
        "semiring")
    add("tdiam", _cmd_tdiam, "tropical diameter of a square matrix", "semiring")
    add("tdet", _cmd_tdet, "tropical determinant and witness permutation",
        "semiring", "format", "output")
    add("tvol", _cmd_tvol, "tropical volume (optimal minus second-best assignment)",
        "semiring")

    p = add("standardize", _cmd_standardize, "equivalent standard form plus move trail",
            "semiring", "output")
    p.add_argument("--variant", choices=["max", "min"], default=None)

    p = add("iso-check", _cmd_iso_check, "evaluate the isodiametric conditions (i)-(iv)",
            "semiring", "output")
    p.add_argument("--variant", choices=["max", "min"], default=None)

    p = add("iso-sample", _cmd_iso_sample,
            "sample a random isodiametric min-standard matrix",
            "format", "output", "seed", matrix=False)
    p.add_argument("--dim", "-d", type=int, required=True)
    p.add_argument("--strict", action="store_true",
                   help="require strict triple inequalities")

    add("kleene", _cmd_kleene, "Kleene star (shortest-path closure) of a min-plus matrix",
        "semiring", "format", "output")

    p = add("polytrope", _cmd_polytrope, "facets, vertices and profile of the polytrope",
            "semiring")
    p.add_argument("--report", default=None, help="write the JSON report here")
    p.add_argument("--svg", default=None, help="write an SVG rendering (3x3 only)")

    p = add("render", _cmd_render, "SVG rendering of a planar polytrope", "semiring")
    p.add_argument("--svg", default=None, help="output SVG path (default stdout)")

    p = add("qvol", _cmd_qvol, "upper dequantized tropical volume",
            "semiring", "output", nargs="+")
    p.add_argument("--cap", type=int, help="enumeration cap (or env TROPISO_CAP); it acts "
                   "only with --json or --require-generic")
    # dequant.BRUTE_FORCE and TRANSPORT_LP, spelled out so the parser imports nothing
    p.add_argument("--method", choices=["brute-force", "transport-lp"],
                   default="brute-force")
    p.add_argument("--require-generic", action="store_true",
                   help="error out unless the bar matrix is sign generic")
    p.add_argument("--json", action="store_true",
                   help="emit the full result object instead of the bare value")

    p = add("sign-generic", _cmd_sign_generic, "sign-genericity scan of the bar matrix",
            "semiring", "output", "cap")
    p.add_argument("--no-bar", action="store_true",
                   help="scan the matrix itself, without the added zero row")

    p = add("dequant-slope", _cmd_dequant_slope,
            "log-limit slope experiment for the dequantized volume",
            "semiring", "output", "cap")
    p.add_argument("--t-grid", default=None, help="comma-separated t values")
    p.add_argument("--csv", default=None, help="write (t, volume, ratio) rows here")

    add("bound-check", _cmd_bound_check,
        "volume bound for an ordinary nonnegative matrix", "output")
    add("paper-suite", _cmd_paper_suite, "run the built-in reference checks", matrix=False)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TropicalError as exc:
        sys.stderr.write(f"ERROR:{exc.kind}: {exc.message}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
