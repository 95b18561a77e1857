"""Command-line front end.

Subcommands: gen | analyze | idempotentize | reconstruct | factorize |
verify | demo.  Channels are exchanged as JSON files with Choi matrices;
reports are self-contained and replayable by `verify`.  The environment
variable ALMOSTIDEM_THREADS caps the linear-algebra thread pool.
"""

from __future__ import annotations

import argparse
import os
import sys


def _apply_thread_cap() -> None:
    cap = os.environ.get("ALMOSTIDEM_THREADS")
    if not cap:
        return
    for var in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        os.environ.setdefault(var, cap)


_apply_thread_cap()  # must run before numpy initializes its thread pools


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aiq",
        description=(
            "Analyze almost idempotent unital completely positive maps: "
            "measure the idempotency defect, extract the almost-invariant "
            "algebra, reconstruct the nearest block matrix algebra, and "
            "factorize the channel through it with certified residuals."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a channel JSON file")
    kind = gen.add_mutually_exclusive_group(required=True)
    kind.add_argument("--example-twolevel", action="store_true",
                      help="built-in 2x2 measure-and-prepare example")
    kind.add_argument("--idempotent", metavar="PAIRS",
                      help="exact idempotent with (d,e) pairs, e.g. '(2,2),(1,3)'")
    kind.add_argument("--random-ucp", action="store_true", help="random UCP map")
    kind.add_argument("--pinching", metavar="DIMS", help="pinching, e.g. '3,2,1'")
    kind.add_argument("--perturb", metavar="IN", help="perturb an existing channel file")
    gen.add_argument("--eta", type=float, default=0.04,
                     help="parameter of the built-in example")
    gen.add_argument("--dim", type=int, help="space dimension")
    gen.add_argument("--kraus-rank", type=int, default=3)
    gen.add_argument("--t", type=float, default=0.0, help="perturbation weight")
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--out", required=True)

    options = {
        "--seed": {"type": int, "default": 0},
        "--tol": {"type": float, "default": 1e-9},
        "--rank-tol": {"type": float, "default": 1e-6},
        "--samples": {"type": int, "default": 100},
        "--extension-n": {"type": int, "default": 2},
        "--json-out": {"help": "write the report/output JSON here"},
    }
    # each subcommand declares only the options its handler reads
    pipeline = ("--seed", "--tol", "--rank-tol", "--samples", "--extension-n", "--json-out")
    for name, help_text, reads in (
        ("analyze", "validity flags, certified idempotency defect, carrier",
         ("--seed", "--tol", "--rank-tol", "--json-out")),
        ("idempotentize", "write the idempotent envelope of a channel",
         ("--tol", "--rank-tol", "--json-out")),
        ("reconstruct", "pipeline through the block structure", pipeline),
        ("factorize", "pipeline through the certified UCP factorization", pipeline),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("input")
        for flag in reads:
            cmd.add_argument(flag, **options[flag])

    ver = sub.add_parser("verify", help="re-check every invariant in a report")
    ver.add_argument("report")

    demo = sub.add_parser("demo", help="run the built-in corpus end to end")
    demo.add_argument("--seed", type=int, default=0)
    return parser


def _tolerances(args):
    from .numlin import ToleranceConfig

    return ToleranceConfig(eq_tol=args.tol, rank_rel_tol=args.rank_tol)


def _load_channel(path: str, args=None):
    from . import serialize as ser

    data = ser.load_json(path)
    ch = ser.channel_from_dict(data)
    if args is not None:
        ch.tol = _tolerances(args)
    return ch


def two_level_example(eta: float):
    """Built-in 2x2 example: measure two nearly aligned states, prepare basis states."""
    import numpy as np
    from . import numlin as nl
    from .channels import Channel

    if not 0 < eta < 1:
        raise ValueError("eta must lie in (0, 1)")
    p0 = np.diag([1.0, 0.0]).astype(complex)
    p1 = np.diag([0.0, 1.0]).astype(complex)
    c = np.sqrt(eta * (1 - eta))
    g0 = np.array([[1 - eta, c], [c, eta]], dtype=complex)
    g1 = np.array([[0, 0], [0, 1]], dtype=complex)
    cols = np.zeros((4, 4), dtype=complex)
    for idx in range(4):
        x = nl.unvec(np.eye(4, dtype=complex)[:, idx], 2, 2)
        cols[:, idx] = nl.vec(p0 * np.trace(g0 @ x) + p1 * np.trace(g1 @ x))
    return Channel(cols, 2, 2)


def _parse_pairs(text: str) -> tuple[tuple[int, int], ...]:
    import re

    pairs = re.findall(r"\(\s*(\d+)\s*,\s*(\d+)\s*\)", text)
    if not pairs:
        raise ValueError(f"cannot parse block pairs from {text!r}")
    return tuple((int(d), int(e)) for d, e in pairs)


def cmd_gen(args) -> int:
    from . import channels as chn
    from . import serialize as ser

    meta = {"seed": args.seed}
    if args.example_twolevel:
        ch = two_level_example(args.eta)
        meta["kind"] = "two-level-example"
        meta["eta_parameter"] = args.eta
    elif args.idempotent:
        pairs = _parse_pairs(args.idempotent)
        dim = args.dim or sum(d * e for d, e in pairs)
        ch = chn.gen_random_idempotent(pairs, dim, args.seed)
        meta["kind"] = "random-idempotent"
        meta["pairs"] = [list(p) for p in pairs]
    elif args.random_ucp:
        if not args.dim:
            raise ValueError("--random-ucp needs --dim")
        ch = chn.gen_random_ucp(args.dim, args.kraus_rank, args.seed)
        meta["kind"] = "random-ucp"
    elif args.pinching:
        dims = tuple(int(x) for x in args.pinching.split(","))
        ch = chn.gen_pinching(dims)
        meta["kind"] = "pinching"
        meta["blocks"] = list(dims)
    else:
        base = _load_channel(args.perturb)
        ch = chn.gen_perturbed(base, args.t, args.seed)
        meta["kind"] = "perturbed"
        meta["t"] = args.t
    ser.atomic_write_json(args.out, ser.channel_to_dict(ch, meta))
    print(f"wrote {args.out}")
    return 0


def _emit(report: dict, args) -> None:
    import json

    if args.json_out:
        from . import serialize as ser

        ser.atomic_write_json(args.json_out, report)
        print(f"report written to {args.json_out}")
    else:
        json.dump(report, sys.stdout, indent=1, sort_keys=True)
        print()


def cmd_analyze(args) -> int:
    from . import pipeline

    ch = _load_channel(args.input, args)
    report = pipeline.analyze_channel(ch, seed=args.seed)
    _emit(report, args)
    eta = report["eta"]
    print(
        f"cp={report['flags']['cp']} unital={report['flags']['unital']} "
        f"eta in [{eta['lower']:.3e}, {eta['upper']:.3e}] "
        f"carrier_dim={report['carrier_dim']}"
    )
    if not report["eta_domain_ok"]:
        print("warning: defect is outside the idempotentization domain (>= 1/4)")
    return 0


def cmd_idempotentize(args) -> int:
    from . import serialize as ser
    from . import starcalc as sc
    from .channels import Channel

    ch = _load_channel(args.input, args)
    ch.require_ucp()
    pm = sc.idempotentize(ch)
    envelope = Channel(pm.superop, pm.dim, pm.dim)
    out = ser.channel_to_dict(envelope, {
        "kind": "idempotent-envelope",
        "residual": pm.residual,
        "eta": ser.certificate_to_dict(pm.eta),
        "distance_cb": ser.certificate_to_dict(pm.distance_cb),
        "cp_expected": False,
    })
    if args.json_out:
        ser.atomic_write_json(args.json_out, out)
        print(f"envelope written to {args.json_out}")
    print(f"idempotency residual {pm.residual:.3e}, "
          f"eta in [{pm.eta.lower:.3e}, {pm.eta.upper:.3e}]")
    return 0


def cmd_reconstruct(args) -> int:
    from . import pipeline

    ch = _load_channel(args.input, args)
    report, artifacts = pipeline.reconstruct_channel(
        ch, seed=args.seed, samples=args.samples, extension_n=args.extension_n
    )
    _emit(report, args)
    rec = report["checkpoints"][-1]
    print(
        f"block_dims={tuple(report['block_dims'])} "
        f"mult_defect={rec['mult_defect']:.3e} bijective={rec['bijective']}"
    )
    return 0


def cmd_factorize(args) -> int:
    from . import pipeline

    ch = _load_channel(args.input, args)
    report, artifacts = pipeline.factorize_channel(
        ch, seed=args.seed, samples=args.samples, extension_n=args.extension_n
    )
    _emit(report, args)
    fact = report["factorization"]
    print(
        f"block_dims={tuple(fact['block_dims'])} "
        f"|DeltaUpsilon-Phi| <= {fact['residual_factor']['upper']:.3e} "
        f"|UpsilonDelta-1| <= {fact['residual_retract']['upper']:.3e} "
        f"ucp={all(fact['ucp_flags'].values())}"
    )
    return 0


def cmd_verify(args) -> int:
    from . import pipeline
    from . import serialize as ser

    report = ser.load_json(args.report)
    failures = pipeline.verify_report(report)
    if failures:
        for f in failures:
            print(f"FAIL: {f}")
        return 1
    print("all recorded invariants verified")
    return 0


def cmd_demo(args) -> int:
    import numpy as np
    from . import channels as chn
    from . import pipeline

    print("== built-in two-level example (eta parameter 0.04) ==")
    ch = two_level_example(0.04)
    rep = pipeline.analyze_channel(ch, seed=args.seed)
    print(f"  certified idempotency defect: [{rep['eta']['lower']:.6f}, "
          f"{rep['eta']['upper']:.6f}]")

    print("== perturbed pinching (2,1), t = 1e-2 ==")
    pert = chn.gen_perturbed(chn.gen_pinching((2, 1)), 1e-2, seed=args.seed)
    report, artifacts = pipeline.factorize_channel(pert, seed=args.seed, samples=40)
    fact = report["factorization"]
    print(f"  recovered blocks: {tuple(fact['block_dims'])}")
    print(f"  |Delta Upsilon - Phi|_cb <= {fact['residual_factor']['upper']:.3e}")
    print(f"  |Upsilon Delta - 1|_cb   <= {fact['residual_retract']['upper']:.3e}")
    print(f"  UCP checks: {fact['ucp_flags']}")
    failures = pipeline.verify_report(report)
    print(f"  replay verification: {'ok' if not failures else failures}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "gen": cmd_gen,
        "analyze": cmd_analyze,
        "idempotentize": cmd_idempotentize,
        "reconstruct": cmd_reconstruct,
        "factorize": cmd_factorize,
        "verify": cmd_verify,
        "demo": cmd_demo,
    }
    try:
        return handlers[args.command](args)
    except Exception as exc:  # surface clean one-line errors to the shell
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
