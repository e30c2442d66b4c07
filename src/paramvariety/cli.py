"""Command-line front end.

Subcommands wire the pipeline end to end: ``ioeq`` derives the input-output
equation, ``pseudo`` generates jet datasets, ``variety`` estimates the
coefficient values and emits the constraint equations plus the extension
report, ``extend`` runs the extension check alone, and ``sample`` grids
points on the variety of given coefficient values (``--v``); the variety of
a dataset is sampled by ``variety --data --samples``. Artifacts embed the
tool version, the seed, and input hashes; identical configuration and seed
produce byte-identical files. Resource caps for the basis computation come
from the environment (PARAMVARIETY_GB_MAX_PAIRS, PARAMVARIETY_GB_MAX_BASIS;
positive integers). The derivation runs one Buchberger call per
prolongation order, each extending the last order's basis, and the caps
apply to each call: the pair cap to the pairs that call pops, the basis cap
to the whole basis it holds.

Exit codes: 0 success, 2 usage/parse (an unreadable path too: a missing or
undecodable input file, a directory given as a file, an --out that is a
file), 3 numeric failure, 4 algebra resource cap, 5 internal invariant
violation.
"""

import argparse
import functools
import hashlib
import json
import math
import os
import random
import sys

from . import __version__
from .algebra import exponents
from .datalab import check_assumptions, make_dataset, read_dataset, write_dataset
from .errors import (
    EXIT_USAGE,
    IllConditioned,
    InsufficientData,
    ModelSyntaxError,
    NoParameterDependence,
    ParamVarietyError,
    UsageError,
)
from .ioeq import derive_io_basis
from .model import load_model, parse_param_expr
from .extension import run_extension_check
from .variety import (
    build_linear_system,
    sample_variety,
    solve_coefficients,
    variety_constraints,
)


def _sha16(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()[:16]


def _inputs(**files):
    """{label: (path, sha256 prefix)} of each input file given, so a run
    reads and hashes each file once."""
    return {label: (path, _sha16(path)) for label, path in files.items() if path}


def _metadata(args, inputs):
    lines = [f"paramvariety {__version__}",
             f"seed: {getattr(args, 'seed', 0)}"]
    for label, (path, digest) in inputs.items():
        lines.append(f"{label}: {os.path.basename(path)} sha256:{digest}")
    return lines


def _parse_assignments(text, what):
    out = {}
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        if "=" not in piece:
            raise UsageError(f"bad {what} entry {piece!r}; expected name=value")
        name, value = piece.split("=", 1)
        name = name.strip()
        if name in out:
            raise UsageError(f"{what}: {name!r} is given more than once")
        out[name] = value.strip()
    return out


def _eval_param_expr(state, text, model, params):
    """Evaluate the initial-condition expression of a state, which may use
    the parameters (like x2=(a7/a6)*4.1e6), at the given numeric point. A
    parse error names the option entry and its column within the value."""
    try:
        rat = parse_param_expr(text, model.params)
    except ModelSyntaxError as exc:
        where = f"column {exc.column}: " if exc.column else ""
        raise UsageError(f"--x0 {state}={text}: {where}{exc.reason}") from None
    try:
        value = float(rat.evaluate([params[p] for p in model.params]))
    except ZeroDivisionError:
        raise UsageError(f"--x0 {state}={text}: a denominator vanishes at the "
                         "given parameters") from None
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise UsageError(f"--x0 {state}={text}: the value is not a finite "
                         "float at the given parameters")
    return value


def _number(text, what):
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise UsageError(f"{what}: {text!r} is not a finite number")
    return value


def _collect_params(args, model):
    if not args.params:
        raise UsageError("missing --params name=value,...")
    raw = _parse_assignments(args.params, "--params")
    params = {}
    for name, value in raw.items():
        if name not in model.params:
            raise UsageError(f"unknown parameter {name!r}")
        params[name] = _number(value, f"--params {name}")
    missing = [p for p in model.params if p not in params]
    if missing:
        raise UsageError(f"missing value for parameter {missing[0]!r}")
    # checked before any --x0 expression can divide by a vanishing parameter
    check_assumptions(model, params)
    return params


def _collect_x0(args, model, params):
    if not args.x0:
        raise UsageError("missing --x0 name=expr,... (expressions may use the "
                         "parameters)")
    raw = _parse_assignments(args.x0, "--x0")
    for name in raw:
        if name not in model.states:
            raise UsageError(f"unknown state {name!r}")
    x0 = []
    for s in model.states:
        if s not in raw:
            raise UsageError(f"missing initial value for state {s!r}")
        x0.append(_eval_param_expr(s, raw[s], model, params))
    return x0


def _t0(args, model):
    return _number(args.t0, "--t0") if args.t0 is not None else model.horizon[0]


def _times_from_args(args, model, default_rows, rng):
    """The --times values, or --n-times (default default_rows) times drawn
    from rng over [t0, horizon end]."""
    if args.times:
        return sorted(_number(t, "--times") for t in args.times.split(","))
    k = default_rows if args.n_times is None else args.n_times
    if k < 1:
        raise UsageError(f"--n-times must be at least 1, got {k}")
    t0 = _t0(args, model)
    span = model.horizon[1] - t0
    return sorted(t0 + span * rng.random() for _ in range(k))


def _generate_dataset(args, model, order, default_rows, rng):
    params = _collect_params(args, model)
    x0 = _collect_x0(args, model, params)
    times = _times_from_args(args, model, default_rows, rng)
    return make_dataset(model, params, x0, times, order=order,
                        t0=_t0(args, model), method=args.method)


def _write_lines(path, lines):
    with open(path, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line + "\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_ioeq(args):
    model = load_model(args.model)
    lines = [f"# {m}" for m in _metadata(args, _inputs(model=args.model))]
    path = os.path.join(args.out, "ioeq.txt")
    try:
        basis = derive_io_basis(model)
    except NoParameterDependence as exc:
        _write_lines(path, lines + [f"# note: {exc}"])
        print(f"note: {exc}")
        return 0
    _write_lines(path, lines + basis.summary().splitlines())
    print(f"wrote {path} (L = {basis.L}, {basis.n_coeffs} coefficients)")
    return 0


def cmd_pseudo(args):
    model = load_model(args.model)
    basis = derive_io_basis(model)
    dataset = _generate_dataset(args, model, basis.L, basis.n_coeffs,
                                random.Random(args.seed))
    path = os.path.join(args.out, "dataset.csv")
    write_dataset(path, dataset,
                  header_comments=_metadata(args, _inputs(model=args.model)))
    print(f"wrote {path} ({len(dataset.times)} rows, jets to order {dataset.order})")
    return 0


def _solve_generated(args, model, basis):
    """Generate pseudo-data and solve it; random times are drawn again, up
    to 10 times, while the system stays ill-conditioned."""
    rng = random.Random(args.seed)

    def attempt():
        dataset = _generate_dataset(args, model, basis.L, basis.n_coeffs, rng)
        return solve_coefficients(*build_linear_system(basis, dataset))

    if args.times:
        return attempt()
    for _ in range(10):
        try:
            return attempt()
        except IllConditioned as exc:
            last_exc = exc
    raise IllConditioned(
        f"no well-conditioned time sample found in 10 draws: {last_exc}")


def _branch_note(eq, names):
    """For a single-monomial constraint like a4*a5*a7 = 0, spell out the
    branch structure (each factor may vanish, leaving the others
    unconstrained by this equation)."""
    if len(eq.packed) != 1:
        return None
    factors = [names[i] for i, _ in exponents(next(iter(eq.packed)), eq.n)]
    if not factors:
        return None
    branches = " or ".join(f"{f} = 0" for f in factors)
    return (f"note: this constraint is a union of branches ({branches}); on "
            f"each branch the remaining factors are not constrained by it")


def cmd_variety(args):
    if args.samples < 0:
        raise UsageError(f"--samples must not be negative, got {args.samples}")
    model = load_model(args.model)
    sampling = _sampling_args(args, model) if args.samples else None
    basis = derive_io_basis(model)
    if args.data:
        dataset = read_dataset(args.data)
        if len(dataset.times) < basis.n_coeffs:
            raise InsufficientData(
                f"data must be measured for at least {basis.n_coeffs} time "
                f"points; {args.data} has {len(dataset.times)}")
        result = solve_coefficients(*build_linear_system(basis, dataset))
    else:
        result = _solve_generated(args, model, basis)

    assumptions = list(model.assume_nonzero)
    # embed what we print: 10 significant digits, with solve noise below
    # the conditioning floor snapped to exact zero
    scale = max(1.0, max(abs(x) for x in result.v))
    v_embed = [0.0 if abs(x) <= 1e-10 * scale else float(f"{x:.10g}")
               for x in result.v]
    constraints = variety_constraints(basis, v_embed, assumptions=assumptions)
    report = run_extension_check(model, basis.gb)

    inputs = _inputs(model=args.model, data=args.data)
    meta = _metadata(args, inputs)
    io_equation = basis.render()
    equations = [f"{eq.render(model.params)} = 0" for eq in constraints.equations]
    lines = [f"# {m}" for m in meta]
    lines.append(f"L = {basis.L}")
    lines.append(f"input-output equation: {io_equation}")
    lines.append("coefficient values:")
    for i, v in enumerate(result.v, start=1):
        lines.append(f"  v{i} = {v:.10g}")
    cond = "n/a (exact solve)" if result.cond is None else f"{result.cond:.6g}"
    lines.append(f"solve residual = {result.residual:.6g}, condition = {cond}")
    lines.append("variety constraints:")
    for eq, text in zip(constraints.equations, equations):
        lines.append(f"  {text}")
        branch = _branch_note(eq, model.params)
        if branch:
            lines.append(f"  {branch}")
    unconstrained = [p for p in model.params
                     if p not in constraints.constraint_params()]
    if unconstrained:
        lines.append(f"parameters not constrained by the data: "
                     f"{', '.join(unconstrained)}")
    lines.append(report.render())
    path = os.path.join(args.out, "variety.txt")
    _write_lines(path, lines)

    doc = {
        "version": __version__,
        "seed": args.seed,
        "inputs": {label: digest for label, (_, digest) in inputs.items()},
        "L": basis.L,
        "io_equation": io_equation,
        "v": result.v,
        "residual": result.residual,
        "cond": result.cond,
        "equations": equations,
        "assumptions": [a.render(model.params) + " != 0" for a in assumptions],
        "unconstrained": unconstrained,
        "extension": {
            "overall": report.overall,
            "entries": [
                {"j": e.index, "var": str(e.var),
                 "P": [p.render(model.params) for p in e.leading],
                 "verdict": e.verdict}
                for e in report.entries
            ],
        },
    }
    _write_lines(os.path.join(args.out, "variety.json"),
                 [json.dumps(doc, indent=2, sort_keys=True)])

    if sampling:
        _emit_samples(args, sampling, constraints, meta)
    print(f"wrote {path} ({report.overall})")
    return 0


def _parse_ranges(text, params):
    ranges = {}
    for name, value in _parse_assignments(text, "--ranges").items():
        if name not in params:
            raise UsageError(f"--ranges: unknown parameter {name!r}")
        lo, _, hi = value.partition(":")
        what = f"--ranges {name}"
        ranges[name] = (_number(lo, what), _number(hi, what))
    return ranges


def _sampling_args(args, model):
    """(ranges, free parameters, --axes pairs) of a sampling run, parsed
    before the derivation; whether the pairs name constraint parameters is
    checked once the constraints are known."""
    if not args.ranges:
        raise UsageError("sampling needs --ranges name=lo:hi,...")
    ranges = _parse_ranges(args.ranges, model.params)
    free = [p.strip() for p in (args.free or "").split(",") if p.strip()]
    pairs = [p.strip() for p in (args.axes or "").split(",") if p.strip()]
    return ranges, free, pairs


def _emit_samples(args, sampling, constraints, meta):
    ranges, free, pairs = sampling
    cparams = constraints.constraint_params()
    axes = []
    for pair in pairs:
        px, _, py = pair.partition(":")
        if px not in cparams or py not in cparams:
            raise UsageError(f"--axes pair {pair!r} must name constraint "
                             f"parameters {cparams}")
        axes.append((px, py))
    result = sample_variety(constraints, free, ranges, args.samples)
    path = os.path.join(args.out, "samples.csv")
    rows = [",".join(f"{pt[p]:.10g}" for p in cparams) for pt in result.points]
    _write_lines(path, [*(f"# {m}" for m in meta), f"# skipped: {result.skipped}",
                        ",".join(cparams), *rows])
    print(f"wrote {path} ({len(result.points)} points, {result.skipped} skipped)")
    for px, py in axes:
        svg_path = os.path.join(args.out, f"variety_{px}_{py}.svg")
        _write_svg(svg_path,
                   [pt[px] for pt in result.points],
                   [pt[py] for pt in result.points],
                   px, py, meta)
        print(f"wrote {svg_path}")


def cmd_extend(args):
    model = load_model(args.model)
    report = run_extension_check(model, derive_io_basis(model).gb)
    lines = [f"# {m}" for m in _metadata(args, _inputs(model=args.model))]
    lines.append(report.render())
    path = os.path.join(args.out, "extension.txt")
    _write_lines(path, lines)
    print(f"wrote {path} ({report.overall})")
    return 0


def cmd_sample(args):
    if args.samples < 1:
        raise UsageError(f"sample needs --samples of at least 1, got {args.samples}")
    model = load_model(args.model)
    sampling = _sampling_args(args, model)
    basis = derive_io_basis(model)
    v = [x.strip() for x in args.v.split(",")]
    for x in v:
        _number(x, "--v")
    if len(v) != basis.n_coeffs:
        raise UsageError(f"--v needs {basis.n_coeffs} comma-separated values")
    constraints = variety_constraints(basis, v,
                                      assumptions=model.assume_nonzero)
    meta = _metadata(args, _inputs(model=args.model))
    _emit_samples(args, sampling, constraints, meta)
    return 0


# ---------------------------------------------------------------------------
# SVG scatter projections
# ---------------------------------------------------------------------------

def _write_svg(path, xs, ys, xlabel, ylabel, meta):
    w, h, m = 480, 360, 54
    if xs:
        xlo, xhi = min(xs), max(xs)
        ylo, yhi = min(ys), max(ys)
    else:
        xlo = ylo = 0.0
        xhi = yhi = 1.0
    if xhi - xlo < 1e-12:
        xlo, xhi = xlo - 0.5, xhi + 0.5
    if yhi - ylo < 1e-12:
        ylo, yhi = ylo - 0.5, yhi + 0.5

    def sx(x):
        return m + (x - xlo) / (xhi - xlo) * (w - 2 * m)

    def sy(y):
        return h - m - (y - ylo) / (yhi - ylo) * (h - 2 * m)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
             f'viewBox="0 0 {w} {h}">']
    for line in meta:
        parts.append(f"<!-- {line} -->")
    parts.append(f'<rect x="0" y="0" width="{w}" height="{h}" fill="white"/>')
    parts.append(f'<line x1="{m}" y1="{h - m}" x2="{w - m}" y2="{h - m}" '
                 'stroke="black"/>')
    parts.append(f'<line x1="{m}" y1="{m}" x2="{m}" y2="{h - m}" stroke="black"/>')
    parts.append(f'<text x="{w / 2:.6g}" y="{h - 14}" text-anchor="middle" '
                 f'font-size="13">{xlabel}</text>')
    parts.append(f'<text x="16" y="{h / 2:.6g}" text-anchor="middle" '
                 f'font-size="13" transform="rotate(-90 16 {h / 2:.6g})">'
                 f'{ylabel}</text>')
    parts.append(f'<text x="{m}" y="{h - m + 16}" font-size="11" '
                 f'text-anchor="middle">{xlo:.6g}</text>')
    parts.append(f'<text x="{w - m}" y="{h - m + 16}" font-size="11" '
                 f'text-anchor="middle">{xhi:.6g}</text>')
    parts.append(f'<text x="{m - 6}" y="{h - m + 4}" font-size="11" '
                 f'text-anchor="end">{ylo:.6g}</text>')
    parts.append(f'<text x="{m - 6}" y="{m + 4}" font-size="11" '
                 f'text-anchor="end">{yhi:.6g}</text>')
    for x, y in zip(xs, ys):
        parts.append(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="2.2" '
                     'fill="crimson"/>')
    parts.append("</svg>")
    _write_lines(path, parts)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

@functools.cache
def build_parser():
    """The argument parser, built once per process: parsing leaves it
    unchanged, so every main call shares it."""
    parser = argparse.ArgumentParser(
        prog="paramvariety",
        description="Input-output equations and parameter varieties of "
                    "polynomial state-space models.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, generation=False, sampling=False):
        p.add_argument("--model", required=True, help="model definition file")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=0)
        if generation:
            p.add_argument("--params", help="parameter values name=value,...")
            p.add_argument("--x0", help="initial state name=expr,... "
                                        "(expressions may use parameters)")
            p.add_argument("--times", help="comma-separated measurement times")
            p.add_argument("--n-times", type=int,
                           help="draw this many random times instead")
            p.add_argument("--t0", help="initial time (default: horizon start)")
            p.add_argument("--method", default="symbolic",
                           choices=["symbolic", "exact-viral",
                                    "finite-difference"])
        if sampling:
            p.add_argument("--samples", type=int, default=0,
                           help="number of variety points to sample")
            p.add_argument("--free", help="free parameters, comma-separated")
            p.add_argument("--ranges", help="parameter ranges name=lo:hi,...")
            p.add_argument("--axes", help="SVG projections p:q,...")

    p = sub.add_parser("ioeq", help="derive the input-output equation")
    common(p)
    p.set_defaults(func=cmd_ioeq)

    p = sub.add_parser("pseudo", help="generate a pseudo-data CSV")
    common(p, generation=True)
    p.set_defaults(func=cmd_pseudo)

    p = sub.add_parser("variety", help="estimate the parameter variety")
    common(p, generation=True, sampling=True)
    p.add_argument("--data", help="dataset CSV of measured jets")
    p.set_defaults(func=cmd_variety)

    p = sub.add_parser("extend", help="run the extension check")
    common(p)
    p.set_defaults(func=cmd_extend)

    p = sub.add_parser("sample", help="sample points on a known variety")
    common(p, sampling=True)
    p.add_argument("--v", required=True, help="coefficient values, comma-separated")
    p.set_defaults(func=cmd_sample)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        os.makedirs(args.out, exist_ok=True)
        return args.func(args)
    except (ParamVarietyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", EXIT_USAGE)


if __name__ == "__main__":
    sys.exit(main())
