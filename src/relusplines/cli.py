"""Command-line interface.

Subcommands: to-spline, synth, eval, verify, normalize.  Exit codes: 0
success, 1 verification failure, 2 schema violation, bad range, unreadable
or unwritable path, a degenerate first layer to normalize, or a failed
allocation, 3 dimension mismatch, 4 interlacing violation, 5 activity
failure, 141 output pipe closed by its reader (as ``eval ... | head`` does;
128 + SIGPIPE, as a shell reports a writer the signal stopped).
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .core import (
    DEFAULT_TOL,
    ActivityError,
    DimensionMismatchError,
    InterlacingError,
    ReluNetwork,
    Tolerances,
    _finite_float,
    knot_bound,
)
from .evaluate import _certify, equivalence_error, eval_network, eval_spline, probe_grid
from .normalize import positive_scale_normalize
from .serialization import (
    SchemaError,
    detect_and_load,
    dump_json,
    flat_knots_from_obj,
    hierarchy_from_obj,
    load_json,
    network_from_obj,
    network_to_obj,
    spline_from_obj,
    spline_to_obj,
    write_csv,
)
from .synth import (
    hierarchy_from_flat,
    prescribed_knots,
    synth_three_hidden,
    synth_two_hidden,
    synth_two_hidden_no_source,
)
from .transfer import dnn_to_spline

__all__ = ["main"]


def _add_tol_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--tol-zero", type=float, default=DEFAULT_TOL.zero_tol, metavar="X",
                        help="absolute zero threshold (default %(default)g)")
    parser.add_argument("--tol-merge", type=float, default=DEFAULT_TOL.merge_tol, metavar="X",
                        help="knot merge distance (default %(default)g)")


def _tolerances(args) -> Tolerances:
    return Tolerances(args.tol_zero, args.tol_merge)


def _comma_list(text: str, flag: str, kind=float) -> list:
    parts = text.split(",")
    if "" in parts:
        raise SchemaError(f"{flag} has an empty entry in {text!r}")
    try:
        return [kind(part) for part in parts]
    except ValueError as err:
        raise SchemaError(f"{flag} must be a comma-separated list of {kind.__name__}s, "
                          f"got {text!r}") from err


def _cmd_to_spline(args) -> int:
    tol = _tolerances(args)
    net = network_from_obj(load_json(args.network))
    spline = dnn_to_spline(net, tol)
    dump_json(args.out, spline_to_obj(spline))
    print(f"knots: observed={spline.n_knots} bound={knot_bound(net.widths)}")
    return 0


def _cmd_synth(args) -> int:
    tol = _tolerances(args)
    if args.seeds and not args.no_source:
        raise SchemaError("--seeds needs --no-source")
    obj = load_json(args.knots)
    if "level1" in obj:
        if args.arch is not None or args.no_source:
            raise SchemaError("--arch and --no-source need a flat knots file")
        hierarchy = hierarchy_from_obj(obj)
    elif "knots" in obj:
        if args.arch is None:
            raise SchemaError("--arch is required with a flat knots file")
        flat = flat_knots_from_obj(obj)
        arch = _comma_list(args.arch, "--arch", int)
        if args.no_source and len(arch) != 2:
            raise SchemaError("--no-source takes --arch n1,n2")
        if len(arch) not in (2, 3):
            raise SchemaError("--arch must be n1,n2 or n1,n2,n3")
        hierarchy = None if args.no_source else hierarchy_from_flat(flat, *arch)
    else:
        raise SchemaError(f"{args.knots}: neither a hierarchy (level1) nor flat (knots)")

    if args.no_source:
        seeds = _comma_list(args.seeds, "--seeds") if args.seeds else None
        net = synth_two_hidden_no_source(flat, *arch, seeds=seeds, tol=tol)
        wanted = flat
    else:
        build = synth_two_hidden if hierarchy.level3 is None else synth_three_hidden
        net = build(hierarchy, tol=tol)
        wanted = prescribed_knots(hierarchy)
    dump_json(args.out, network_to_obj(net))
    print(f"prescribed knots active: {len(wanted)}/{len(wanted)}")
    return 0


def _cmd_eval(args) -> int:
    model = detect_and_load(args.file)
    start, stop = _finite_float(args.start, "--from"), _finite_float(args.stop, "--to")
    if start >= stop:
        raise SchemaError("--from must be strictly below --to")
    if args.samples < 1:
        raise SchemaError("--samples must be at least 1")
    ts = np.linspace(start, stop, args.samples)
    values = eval_network(model, ts) if isinstance(model, ReluNetwork) else eval_spline(model, ts)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as stream:
            write_csv(stream, ts, values, header=args.header)
    else:
        write_csv(sys.stdout, ts, values, header=args.header)
    return 0


def _cmd_verify(args) -> int:
    tol = _tolerances(args)
    # only verify takes --tol-eval: no other subcommand makes an equality verdict
    tol_eval = _finite_float(args.tol_eval, "--tol-eval")
    if tol_eval <= 0:
        raise ValueError(f"--tol-eval must be positive, got {tol_eval!r}")
    net = network_from_obj(load_json(args.network))
    spline = spline_from_obj(load_json(args.spline)) if args.spline else dnn_to_spline(net, tol)
    # the network's own crossings join the spline's knots, so the verdict
    # does not rest on a conversion of the network
    probes = probe_grid(np.unique(spline.knots))
    grid, rounds, settled = _certify(net, probes, tol)
    error = equivalence_error(net, spline, grid)
    observed = spline.n_knots
    bound = knot_bound(net.widths)
    ok = settled and error <= tol_eval and observed <= bound
    print(f"max relative error: {error:.3e}")
    print(f"knots: observed={observed} bound={bound} {'ok' if observed <= bound else 'EXCEEDED'}")
    if settled:
        print(f"certified grid: {grid.size} points after {rounds} rounds")
    else:
        print(f"grid not certified: crossings still found after {rounds} rounds ({grid.size} points)")
    return 0 if ok else 1


def _cmd_normalize(args) -> int:
    tol = _tolerances(args)
    net = network_from_obj(load_json(args.network))
    before = [np.sign(layer.c).tolist() for layer in net.layers[1:-1]]
    normalized = positive_scale_normalize(net, tol)
    after = [np.sign(layer.c).tolist() for layer in normalized.layers[1:-1]]
    dump_json(args.out, network_to_obj(normalized))
    for i, (x, y) in enumerate(zip(before, after), start=2):
        print(f"layer {i} source signs: before {x} after {y}")
    if not before:
        print("no interior layers to normalize")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relusplines",
        description="Translate 1-D ReLU networks to piecewise-linear splines and back, "
        "and synthesize networks with prescribed breakpoints.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("to-spline", help="convert a network file to its spline")
    p.add_argument("network", help="network JSON file")
    p.add_argument("-o", "--out", required=True, help="output spline JSON file")
    _add_tol_flags(p)
    p.set_defaults(func=_cmd_to_spline)

    # no flag prefixes, so an unknown --seed is not read as --seeds
    p = sub.add_parser("synth", help="build a network with prescribed knots", allow_abbrev=False)
    p.add_argument("knots", help="hierarchy JSON or flat {\"knots\": [...]} file")
    p.add_argument("--arch", default=None, metavar="N1,N2[,N3]",
                   help="hidden widths when the knots file is flat")
    p.add_argument("--no-source", action="store_true",
                   help="force all source channels to zero (flat file, two widths)")
    p.add_argument("--seeds", default=None, metavar="S1,S2,...",
                   help="first-interval slopes for --no-source")
    p.add_argument("-o", "--out", required=True, help="output network JSON file")
    _add_tol_flags(p)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("eval", help="sample a network or spline to CSV")
    p.add_argument("file", help="network or spline JSON file")
    p.add_argument("--from", dest="start", type=float, required=True, metavar="A")
    p.add_argument("--to", dest="stop", type=float, required=True, metavar="B")
    p.add_argument("--samples", type=int, required=True, metavar="N")
    p.add_argument("-o", "--out", default=None, help="CSV file (default stdout)")
    p.add_argument("--header", action="store_true", help="write a t,value header row")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("verify", help="check a network against a spline and the knot bound")
    p.add_argument("network", help="network JSON file")
    p.add_argument("spline", nargs="?", default=None,
                   help="spline JSON file (default: the network's own spline)")
    _add_tol_flags(p)
    p.add_argument("--tol-eval", type=float, default=1e-8, metavar="X",
                   help="relative comparison tolerance (default %(default)g)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("normalize", help="rewrite with unit first layer and sign-only channels")
    p.add_argument("network", help="network JSON file")
    p.add_argument("-o", "--out", required=True, help="output network JSON file")
    _add_tol_flags(p)
    p.set_defaults(func=_cmd_normalize)
    return parser


# built once per process: building takes far longer than parsing
_PARSER = _build_parser()


def _fuse_signed_values(argv: list[str]) -> list[str]:
    """Glue ``--seeds -1,1`` into ``--seeds=-1,1``, and ``--from``/``--to`` alike.

    argparse takes a leading dash in the value for an unknown flag; a comma
    list of signed numbers, or a bound such as -1e-3 that argparse does not
    read as a number, are the values here that can start that way.
    """
    fused = []
    i = 0
    while i < len(argv):
        value = argv[i + 1] if i + 1 < len(argv) else ""
        if argv[i] in ("--seeds", "--from", "--to") and value.startswith("-"):
            fused.append(f"{argv[i]}={value}")
            i += 2
        else:
            fused.append(argv[i])
            i += 1
    return fused


# the first entry an error is an instance of gives the exit code, so the
# ValueError subclasses come before ValueError itself
_EXIT_CODES = (
    (OSError, 2),
    (SchemaError, 2),
    (DimensionMismatchError, 3),
    (InterlacingError, 4),
    (ActivityError, 5),
    (ValueError, 2),
    (MemoryError, 2),
)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _PARSER.parse_args(_fuse_signed_values(argv))
    try:
        return args.func(args)
    except BrokenPipeError:
        # the reader is gone: stop without a traceback, and point stdout at
        # the null device so that flushing it at exit writes nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except tuple(kind for kind, _ in _EXIT_CODES) as err:
        print(f"error: {err}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES if isinstance(err, kind))


if __name__ == "__main__":
    sys.exit(main())
