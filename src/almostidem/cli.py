"""Command-line front end.

Subcommands: gen | analyze | idempotentize | reconstruct | factorize |
verify | demo.  Channels are exchanged as JSON files with Choi matrices;
reports are self-contained and replayable by `verify`.  The environment
variable ALMOSTIDEM_THREADS caps the linear-algebra thread pool; set it to 1
when several `aiq` processes run at once on a host with few cores.
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
    # each generator kind reads only its own of these (GEN_READS)
    gen.add_argument("--eta", type=float,
                     help="parameter of the built-in example (default 0.04)")
    gen.add_argument("--dim", type=int, help="space dimension")
    gen.add_argument("--kraus-rank", type=int, help="Kraus rank of --random-ucp (default 3)")
    gen.add_argument("--t", type=float, help="perturbation weight (default 0)")
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--out", required=True)

    options = {
        "--seed": {"type": int, "default": 0},
        "--json-out": {"help": "write the report/output JSON here"},
    }
    # each subcommand declares only the options its handler reads
    pipeline = ("--seed", "--json-out")
    for name, help_text, reads in (
        ("analyze", "validity flags, certified idempotency defect, carrier",
         ("--seed", "--json-out")),
        ("idempotentize", "write the idempotent envelope of a channel",
         ("--json-out",)),
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


def _load_channel(path: str):
    from . import serialize as ser

    return ser.channel_from_dict(ser.load_json(path))


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
    """The (d,e) pairs of a comma-separated list such as '(2,2), (1,3)'; the
    whole text must be such a list."""
    import re

    pair = r"\(\s*(\d+)\s*,\s*(\d+)\s*\)"
    if not re.fullmatch(rf"\s*{pair}(\s*,\s*{pair})*\s*", text):
        raise ValueError(f"--idempotent: cannot parse block pairs from {text!r}")
    pairs = tuple((int(d), int(e)) for d, e in re.findall(pair, text))
    if min(min(p) for p in pairs) <= 0:
        raise ValueError(
            f"--idempotent needs positive block sizes and multiplicities, got {text!r}")
    return pairs


def _parse_dims(text: str) -> tuple[int, ...]:
    try:
        dims = tuple(int(x) for x in text.split(","))
    except ValueError:
        dims = ()
    if not dims or min(dims) <= 0:
        raise ValueError(f"--pinching needs comma-separated positive block sizes, got {text!r}")
    return dims


# the generator options each kind of `gen` reads; any other is refused
GEN_READS = {
    "example_twolevel": ("eta",),
    "idempotent": ("dim",),
    "random_ucp": ("dim", "kraus_rank"),
    "pinching": (),
    "perturb": ("t",),
}


def cmd_gen(args) -> int:
    from . import channels as chn
    from . import serialize as ser

    kind = next(k for k in GEN_READS if getattr(args, k) not in (None, False))
    unread = [f"--{opt.replace('_', '-')}" for opt in ("eta", "dim", "kraus_rank", "t")
              if getattr(args, opt) is not None and opt not in GEN_READS[kind]]
    if unread:
        raise ValueError(f"gen --{kind.replace('_', '-')} does not read {', '.join(unread)}")
    for opt in ("dim", "kraus_rank"):
        value = getattr(args, opt)
        if value is not None and value <= 0:
            raise ValueError(f"--{opt.replace('_', '-')} must be positive, got {value}")
    meta = {"seed": args.seed}
    if kind == "example_twolevel":
        eta = 0.04 if args.eta is None else args.eta
        ch = two_level_example(eta)
        meta["kind"] = "two-level-example"
        meta["eta_parameter"] = eta
    elif kind == "idempotent":
        pairs = _parse_pairs(args.idempotent)
        dim = sum(d * e for d, e in pairs) if args.dim is None else args.dim
        ch = chn.gen_random_idempotent(pairs, dim, args.seed)
        meta["kind"] = "random-idempotent"
        meta["pairs"] = [list(p) for p in pairs]
    elif kind == "random_ucp":
        if args.dim is None:
            raise ValueError("--random-ucp needs --dim")
        ch = chn.gen_random_ucp(args.dim, 3 if args.kraus_rank is None else args.kraus_rank,
                                args.seed)
        meta["kind"] = "random-ucp"
    elif kind == "pinching":
        dims = _parse_dims(args.pinching)
        ch = chn.gen_pinching(dims)
        meta["kind"] = "pinching"
        meta["blocks"] = list(dims)
    else:
        t = 0.0 if args.t is None else args.t
        ch = chn.gen_perturbed(_load_channel(args.perturb), t, args.seed)
        meta["kind"] = "perturbed"
        meta["t"] = t
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

    ch = _load_channel(args.input)
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

    ch = _load_channel(args.input)
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

    ch = _load_channel(args.input)
    report, artifacts = pipeline.reconstruct_channel(ch, seed=args.seed)
    _emit(report, args)
    rec = report["checkpoints"][-1]
    print(
        f"block_dims={tuple(report['block_dims'])} "
        f"mult_defect={rec['mult_defect']:.3e} bijective={rec['bijective']}"
    )
    return 0


def cmd_factorize(args) -> int:
    from . import pipeline

    ch = _load_channel(args.input)
    report, artifacts = pipeline.factorize_channel(ch, seed=args.seed)
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
    report, artifacts = pipeline.factorize_channel(pert, seed=args.seed)
    fact = report["factorization"]
    print(f"  recovered blocks: {tuple(fact['block_dims'])}")
    print(f"  |Delta Upsilon - Phi|_cb <= {fact['residual_factor']['upper']:.3e}")
    print(f"  |Upsilon Delta - 1|_cb   <= {fact['residual_retract']['upper']:.3e}")
    print(f"  UCP checks: {fact['ucp_flags']}")
    failures = pipeline.verify_report(report)
    print(f"  replay verification: {'ok' if not failures else failures}")
    return 1 if failures else 0


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
        # --seed seeds numpy's generators, which refuse a negative one
        if getattr(args, "seed", 0) < 0:
            raise ValueError(f"--seed must be non-negative, got {args.seed}")
        return handlers[args.command](args)
    except Exception as exc:  # surface clean one-line errors to the shell
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
