"""Command-line front end.

Five subcommands bind the library into file-based workflows:

* ``factor``       -- irreducible factorization of X^n + 1
* ``dist``         -- exact or noisy syndrome distribution of a block model
* ``gen``          -- generate a noise-affected codeword stream file
* ``reconstruct``  -- search a stream file for the sent code
* ``verify``       -- run the exhaustive verification suites

Exit status: 0 success / detection, 1 usage error, 2 no code detected,
3 verification failure.  All runs are deterministic given their flags.
"""

from __future__ import annotations

import argparse
import sys

from . import gf2
from .codes import CyclicCode, GuardError
from .dists import (
    BoundarySpan,
    Truncation,
    classify,
    exact_distribution,
    format_distribution,
    noisy_distribution,
    predict_class,
)
from .recon import METHODS, reconstruct, render_report
from .stream import (
    StreamConfig,
    generate_stream,
    load_stream,
    save_stream,
    save_stream_metadata,
)
from . import dists, sweeps

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NO_CODE = 2
EXIT_VERIFY_FAIL = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _poly(text: str) -> int:
    try:
        return gf2.parse_poly(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _g0(text: str) -> int:
    # comma-separated factor list, multiplied together
    g = 1
    for part in text.split(","):
        g = gf2.mul(g, _poly(part))
    return g


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cyclid", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("factor", help="factor X^n + 1 over GF(2)")
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("dist", help="syndrome distribution of a block model")
    p.add_argument("--n0", type=int, required=True)
    p.add_argument("--g0", type=_g0, required=True, metavar="F1,F2,...")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--trunc", type=int, metavar="N", help="truncation length")
    group.add_argument("--d1", type=int, help="suffix length of a boundary span")
    p.add_argument("--q", type=int, default=0, help="middle codeword count")
    p.add_argument("--d2", type=int, default=0, help="prefix length")
    p.add_argument("--f", type=_poly, required=True)
    p.add_argument("--p", type=float, default=0.0)
    p.add_argument("--guard-dim", type=int, help="raise the enumeration guard")
    p.add_argument("--guard-n", type=int, help="raise the block-length guard")
    p.add_argument("--guard-degf", type=int, help="raise the residue-table guard")

    p = sub.add_parser("gen", help="generate a noise-affected stream file")
    p.add_argument("--n0", type=int, required=True)
    p.add_argument("--g0", type=_g0, required=True, metavar="F1,F2,...")
    p.add_argument("--s0", type=int, default=0)
    p.add_argument("--p", type=float, default=0.0)
    p.add_argument("--blocks", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("reconstruct", help="identify the code behind a stream file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--n-min", type=int, default=2)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--p", type=float, default=0.0)
    p.add_argument("--method", choices=list(METHODS), default="zero-syndrome")
    p.add_argument("--machine", action="store_true", help="line-delimited records")
    p.add_argument("--out", help="write the report here instead of stdout")

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument(
        "--suite",
        choices=["algebra", "distributions", "noisy", "bounds", "recon", "all"],
        required=True,
    )
    p.add_argument("--n0", type=int, action="append", help="restrict code lengths")
    return parser


def run_factor(args) -> int:
    if args.n < 1:
        print("error: need n >= 1", file=sys.stderr)
        return EXIT_USAGE
    factors = gf2.factor_xn1(args.n)
    for f, mult in factors:
        print(f"{gf2.format_poly_bits(f)} ({gf2.format_poly(f)}) x{mult}")
    print(f"divisors: {len(gf2.divisors_xn1(args.n))}")
    return EXIT_OK


def run_dist(args) -> int:
    # the guard flags hold for this command only
    saved = (dists.DIM_GUARD, dists.SPAN_GUARD_N, dists.DEGF_DP_GUARD)
    try:
        return _dist(args)
    finally:
        dists.set_guards(*saved)


def _dist(args) -> int:
    if args.guard_dim or args.guard_n or args.guard_degf:
        effective = dists.set_guards(dim=args.guard_dim, n=args.guard_n, deg_f=args.guard_degf)
        for flag, key in (("guard_dim", "dim"), ("guard_n", "n"), ("guard_degf", "deg_f")):
            asked = getattr(args, flag)
            if asked and asked > effective[key]:
                print(f"note: {key} guard clamped to hard cap {effective[key]}")
    code = CyclicCode(args.n0, args.g0)
    if args.trunc is not None:
        spec = Truncation(code, args.trunc)
    else:
        spec = BoundarySpan(code, args.d1, args.q, args.d2)
    # exact law at p = 0; any p outside [0, 1/2] is refused
    dist = noisy_distribution(spec, args.f, args.p)
    print(format_distribution(dist))
    predicted = predict_class(code, spec, args.f)
    observed = classify(dist if args.p == 0.0 else exact_distribution(spec, args.f))
    verdict = "AGREE" if predicted is observed else "DISAGREE"
    print(f"predicted={predicted} classified={observed} {verdict}")
    return EXIT_OK if verdict == "AGREE" else EXIT_VERIFY_FAIL


def run_gen(args) -> int:
    cfg = StreamConfig(
        CyclicCode(args.n0, args.g0),
        s0=args.s0,
        p=args.p,
        blocks=args.blocks,
        seed=args.seed,
    )
    bits = generate_stream(cfg)
    save_stream(args.out, bits)
    save_stream_metadata(args.out, cfg)
    print(f"wrote {bits.size} bits to {args.out}")
    return EXIT_OK


def run_reconstruct(args) -> int:
    bits = load_stream(args.infile)
    report = reconstruct(bits, args.n_min, args.n_max, args.p, method=args.method)
    text = render_report(report, machine=args.machine)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return EXIT_OK if report.winner is not None else EXIT_NO_CODE


def run_verify(args) -> int:
    n0_list = tuple(args.n0) if args.n0 else (7, 15)
    results = sweeps.run_suite(args.suite, n0_list=n0_list)
    failed = False
    for r in results:
        print(r.summary())
        for failure in r.failures[:10]:
            print(f"  failure: {failure}")
        failed = failed or not r.ok
    return EXIT_VERIFY_FAIL if failed else EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "factor": run_factor,
        "dist": run_dist,
        "gen": run_gen,
        "reconstruct": run_reconstruct,
        "verify": run_verify,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, GuardError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
