"""Command-line interface.

Subcommands: to-spline, synth, eval, verify, normalize.  Exit codes:
0 success, 1 verification failure, 2 schema violation or bad range,
3 dimension mismatch, 4 interlacing violation, 5 activity failure,
141 output pipe closed by its reader (as ``eval ... | head`` does; 128 +
SIGPIPE, the code a shell reports for a writer the signal stopped).
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .core import (
    DEFAULT_TOL,
    ActivityError,
    CoverageError,
    DegenerateFirstLayerError,
    DimensionMismatchError,
    InterlacingError,
    ReluNetwork,
    Tolerances,
    knot_bound,
)
from .evaluate import equivalence_error, eval_network, eval_spline, probe_grid
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
    _missing_prescribed,
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
    # only verify takes --tol-eval: no other subcommand makes an equality verdict
    eval_tol = getattr(args, "tol_eval", DEFAULT_TOL.eval_tol)
    return Tolerances(args.tol_zero, args.tol_merge, eval_tol)


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
        net = synth_two_hidden_no_source(flat, *arch, seeds=seeds)
        wanted = flat
    else:
        if hierarchy.level3 is None:
            net = synth_two_hidden(hierarchy)
        else:
            net = synth_three_hidden(hierarchy, tol=tol)
        wanted = prescribed_knots(hierarchy)

    missing = _missing_prescribed(dnn_to_spline(net, tol), wanted, tol)
    if missing.size:
        print(f"inactive prescribed knots: {missing.tolist()}", file=sys.stderr)
        return 5
    dump_json(args.out, network_to_obj(net))
    print(f"prescribed knots active: {len(wanted)}/{len(wanted)}")
    return 0


def _cmd_eval(args) -> int:
    model = detect_and_load(args.file)
    if args.start >= args.stop:
        raise SchemaError("--from must be strictly below --to")
    if args.samples < 1:
        raise SchemaError("--samples must be at least 1")
    ts = np.linspace(args.start, args.stop, args.samples)
    values = eval_network(model, ts) if isinstance(model, ReluNetwork) else eval_spline(model, ts)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as stream:
            write_csv(stream, ts, values, header=args.header)
    else:
        write_csv(sys.stdout, ts, values, header=args.header)
    return 0


def _cmd_verify(args) -> int:
    tol = _tolerances(args)
    net = network_from_obj(load_json(args.network))
    recomputed = dnn_to_spline(net, tol)
    spline = spline_from_obj(load_json(args.spline)) if args.spline else recomputed
    merged = np.unique(np.concatenate((recomputed.knots, spline.knots)))
    grid = probe_grid(merged, margin=2.0, per_interval=3) if merged.size else probe_grid(merged)
    error = equivalence_error(net, spline, grid)
    observed = recomputed.n_knots
    bound = knot_bound(net.widths)
    ok = error <= tol.eval_tol and observed <= bound
    print(f"max relative error: {error:.3e}")
    print(f"knots: observed={observed} bound={bound} {'ok' if observed <= bound else 'EXCEEDED'}")
    return 0 if ok else 1


def _cmd_normalize(args) -> int:
    tol = _tolerances(args)
    net = network_from_obj(load_json(args.network))
    before = [np.sign(layer.c).tolist() for layer in net.layers[1:-1]]
    try:
        normalized = positive_scale_normalize(net, tol)
    except DegenerateFirstLayerError as err:
        print(f"warning: {err} (no normal form of equal width)", file=sys.stderr)
        return 1
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
    p.add_argument("--tol-eval", type=float, default=DEFAULT_TOL.eval_tol, metavar="X",
                   help="relative comparison tolerance (default %(default)g)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("normalize", help="rewrite with unit first layer and sign-only channels")
    p.add_argument("network", help="network JSON file")
    p.add_argument("-o", "--out", required=True, help="output network JSON file")
    _add_tol_flags(p)
    p.set_defaults(func=_cmd_normalize)
    return parser


def _fuse_seed_values(argv: list[str]) -> list[str]:
    """Glue ``--seeds -1,1`` into ``--seeds=-1,1``.

    argparse takes a leading dash in the value for an unknown flag; a comma
    list of signed numbers is the one value here that can start that way.
    """
    fused = []
    i = 0
    while i < len(argv):
        if argv[i] == "--seeds" and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            fused.append(f"--seeds={argv[i + 1]}")
            i += 2
        else:
            fused.append(argv[i])
            i += 1
    return fused


# the first entry an error is an instance of gives the exit code, so the
# ValueError subclasses come before ValueError itself
_EXIT_CODES = (
    (FileNotFoundError, 2),
    (IsADirectoryError, 2),
    (SchemaError, 2),
    (DimensionMismatchError, 3),
    (InterlacingError, 4),
    (ActivityError, 5),
    (CoverageError, 5),
    (ValueError, 2),
)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _build_parser().parse_args(_fuse_seed_values(argv))
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
