"""Command line interface.

Subcommands:

* ``exponents``    render the dimension chains and exact bound-term
                   exponents for (k, d, s), with the closed-form /
                   linear-system cross-check status.
* ``construct``    generate a lower-bound instance and write it as
                   ``.inc.json``.
* ``verify``       recount an instance, search for a forbidden K_{s,t},
                   and report; exits 1 when a witness is found.
* ``embed``        re-embed a generated instance into a higher dimension
                   with generic containing flats.
* ``sweep``        run a size ladder from a JSON spec and write the report.
* ``oracle count`` naive-only recount of a file, for cross-tool checking.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, fields
from functools import cache

from . import heap, serialization
from .constructions import (
    ConstructionConfig,
    build_grid_construction,
    build_sphere_construction,
    embed_configuration,
    verify_construction,
)
from .errors import (
    DegenerateRandomness,
    InvalidInput,
    ResourceLimit,
    SizeShortfall,
    SweepFailed,
)
from .experiments import SweepSpec, run_sweep
from .exponents import enumerate_chains, term_from_chain, term_from_system
from .incidence import IncidenceInstance, count_incidences, kst_verdict


def _cmd_exponents(args) -> int:
    chains = enumerate_chains(args.k, args.d, restricted=args.restricted)
    entries = []
    for chain in chains:
        closed = term_from_chain(chain, args.s)
        system = term_from_system(chain, args.s)
        entries.append(
            {
                "chain": [[p.k, p.d] for p in chain],
                "alpha": str(closed.alpha),
                "beta": str(closed.beta),
                "q_exponents": [
                    {"pair": [p.k, p.d], "exponent": str(e)}
                    for p, e in closed.q_exponents
                ],
                "epsilon_on_m": closed.epsilon_on_m,
                "cross_check": "ok" if closed == system else "MISMATCH",
            }
        )
    doc = {
        "k": args.k,
        "d": args.d,
        "s": args.s,
        "restricted": args.restricted,
        "terms": entries,
    }
    if args.json:
        print(json.dumps(doc, indent=2))
    else:
        print(f"chains for (k, d) = ({args.k}, {args.d}), s = {args.s}"
              + (" [restricted]" if args.restricted else ""))
        for e in entries:
            qs = " ".join(
                f"q[{q['pair'][0]},{q['pair'][1]}]^{q['exponent']}"
                for q in e["q_exponents"]
            )
            print(
                f"  {e['chain']}: m^({e['alpha']}+eps) n^{e['beta']} {qs}"
                f"  [{e['cross_check']}]"
            )
    return 0 if all(e["cross_check"] == "ok" for e in entries) else 1


def _cmd_construct(args) -> int:
    cfg = ConstructionConfig(
        d=args.d, m=args.m, n=args.n, s=args.s, t_cap=args.t_cap,
        box_side=args.box_side, seed=args.seed, pad=not args.no_pad,
        epsilon_prime=args.epsilon_prime,
    )
    if args.variant == "a":
        out = build_grid_construction(cfg)
    else:
        out = build_sphere_construction(cfg)
    t_claim = out.t_measured + 1
    serialization.save_construction(args.output, out, args.s, t_claim)
    print(
        f"wrote {args.output}: {len(out.points)} points, {len(out.flats)} flats"
        f" ({out.padding_start} core), |V|={len(out.normals_used)},"
        f" t_measured={out.t_measured}, predicted={out.predicted_incidences}"
    )
    return 0


def _cmd_verify(args) -> int:
    doc = serialization.load_document(args.file)
    if "construction" in doc:
        report = verify_construction(
            serialization.dict_to_construction(doc), args.s, args.t
        )
        payload = {
            f.name: getattr(report, f.name) for f in fields(report) if f.name != "witness"
        }
        payload["predicted_exponents"] = [str(x) for x in report.predicted_exponents]
        witness = report.witness
    else:
        inst = serialization.dict_to_instance(doc)
        work = IncidenceInstance(inst.points, inst.flats, args.s, args.t)
        naive = count_incidences(work, strategy="naive")
        hashed = count_incidences(work, strategy="hashed")
        kst_status, witness, gave_up = kst_verdict(work)
        payload = {
            "naive_count": naive,
            "hashed_count": hashed,
            "counts_agree": naive == hashed,
            "kst_status": kst_status if gave_up is None else f"{kst_status} ({gave_up})",
        }
    if witness is not None:
        payload["witness"] = asdict(witness)
    print(json.dumps(payload, indent=2))
    return 1 if witness is not None else 0


def _cmd_embed(args) -> int:
    inner = serialization.load_construction(args.file)
    out = embed_configuration(inner, args.d_outer, args.k, args.seed)
    serialization.save_construction(args.output, out, args.s, out.t_measured + 1)
    print(
        f"wrote {args.output}: embedded R^{inner.ambient_dim} -> R^{args.d_outer}"
        f" as {args.k}-flats, {len(out.points)} points, {len(out.flats)} flats"
    )
    return 0


def _cmd_sweep(args) -> int:
    spec = SweepSpec.from_dict(serialization.load_document(args.spec))
    report = run_sweep(spec, output=args.output)
    pred = report["prediction"]
    print(
        f"wrote {args.output}: fitted composite slope"
        f" {pred['fitted_composite_slope']:.4f} vs predicted"
        f" {pred['composite_slope']:.4f} (delta {pred['delta']:+.4f})"
    )
    return 0


def _cmd_oracle(args) -> int:
    inst = serialization.load_instance(args.file)
    print(count_incidences(inst, strategy="naive"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="inclab",
        description="exact incidence-bound toolkit: exponents, constructions, sweeps",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("exponents", help="render chains and bound-term exponents")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--restricted", action="store_true",
                   help="only chains over pairs with ratio <= 1/2")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_exponents)

    p = sub.add_parser("construct", help="generate a lower-bound instance")
    p.add_argument("--variant", choices=("a", "b"), required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--t-cap", type=int, default=None)
    p.add_argument("--box-side", type=int, default=None)
    p.add_argument("--epsilon-prime", type=float, default=0.1)
    p.add_argument("--no-pad", action="store_true")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("verify", help="recount and K_{s,t}-check an instance")
    p.add_argument("file")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("embed", help="re-embed an instance in higher dimension")
    p.add_argument("file")
    p.add_argument("--d-outer", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--s", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_embed)

    p = sub.add_parser("sweep", help="run a size ladder from a JSON spec")
    p.add_argument("spec")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("oracle", help="independent recount of an instance file")
    p.add_argument("action", choices=("count",))
    p.add_argument("file")
    p.set_defaults(func=_cmd_oracle)
    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """:func:`build_parser`'s parser, built once per process: parsing
    leaves it as it was, and building it takes about a millisecond."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    heap.fix()
    try:
        return args.func(args)
    except (
        InvalidInput,
        SweepFailed,
        SizeShortfall,
        DegenerateRandomness,
        ResourceLimit,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        heap.trim()


if __name__ == "__main__":
    sys.exit(main())
