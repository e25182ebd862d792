"""Command-line front door: verify registry identities, evaluate single
instances, run the sequence guesser and the Hankel/J-fraction tools, and
emit deterministic JSON reports.

Exit codes: 0 all-pass, 1 verification failure, 2 usage error,
3 degenerate input.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Optional, Sequence

from . import catalog
from .exactnum import fmt_rat, parse_rat
from .guess import ZeroTermError, rate_guess
from .hankel import (NAMED_MOMENTS, DegenerateMomentsError, MomentSeq,
                     hankel_dets, heilermann_products, jfraction_from_moments)


def _emit(args: argparse.Namespace, text: str) -> None:
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
    sys.stdout.write(text)
    if not text.endswith("\n"):
        sys.stdout.write("\n")


def _json_dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=False)


def _resolve_ids(raw: str) -> Optional[list[str]]:
    known = catalog.registry_ids()
    if raw == "all":
        return list(known)
    ids = [part.strip() for part in raw.split(",") if part.strip()]
    if not ids or any(i not in known for i in ids):
        return None
    # report order is registry order, independent of request order
    order = {rid: k for k, rid in enumerate(known)}
    return sorted(set(ids), key=order.__getitem__)


def cmd_verify(args: argparse.Namespace) -> int:
    if args.trials < 1:
        sys.stderr.write("--trials must be >= 1\n")
        return 2
    ids = _resolve_ids(args.id)
    if ids is None:
        sys.stderr.write(f"unknown identity id: {args.id}\n")
        return 2
    reports = [
        catalog.verify_identity(rid, trials=args.trials, seed=args.seed,
                                max_n=args.max_n)
        for rid in ids
    ]
    if args.fmt == "json":
        _emit(args, _json_dumps([r.to_json_dict() for r in reports]))
    else:
        lines = []
        for r in reports:
            status = "PASS" if r.overall else "FAIL"
            lines.append(f"{r.id}: {status} ({len(r.trials)} trials)")
        _emit(args, "\n".join(lines))
    return 0 if all(r.overall for r in reports) else 1


def cmd_eval(args: argparse.Namespace) -> int:
    if not args.id or args.id == "all":
        sys.stderr.write("eval requires a single --id\n")
        return 2
    ids = _resolve_ids(args.id)
    if ids is None or len(ids) != 1:
        sys.stderr.write(f"unknown identity id: {args.id}\n")
        return 2
    rid = ids[0]
    trial = catalog.verify_identity(rid, trials=1, seed=args.seed,
                                    max_n=args.max_n).trials[0]
    payload = {"id": rid, **trial.to_json_dict()}
    if args.fmt == "json":
        _emit(args, _json_dumps(payload))
    else:
        lines = [f"{rid} at n={trial.params['n']}"]
        for key, value in payload["params"].items():
            lines.append(f"  {key} = {value}")
        lines.append(f"  lhs = {payload['lhs']}")
        lines.append(f"  rhs = {payload['rhs']}")
        lines.append(f"  {'PASS' if trial.ok else 'FAIL'}")
        _emit(args, "\n".join(lines))
    return 0 if trial.ok else 1


def cmd_guess(args: argparse.Namespace) -> int:
    try:
        terms = [parse_rat(part) for part in args.terms.split(",")]
        if not terms:
            raise ValueError
    except (ValueError, ZeroDivisionError):
        sys.stderr.write(f"cannot parse terms: {args.terms!r}\n")
        return 2
    try:
        guesses = rate_guess(terms)
    except ZeroTermError:
        guesses = []
    if args.fmt == "json":
        _emit(args, _json_dumps({
            "command": "guess",
            "terms": [fmt_rat(t) for t in terms],
            "guesses": [str(g) for g in guesses],
        }))
    else:
        if guesses:
            _emit(args, "\n".join(str(g) for g in guesses))
        else:
            _emit(args, "no product-form law found")
    return 0 if guesses else 1


def cmd_hankel(args: argparse.Namespace) -> int:
    seq_spec, offset, n = args.seq, args.offset, args.n
    if n < 1 or offset < 0:
        sys.stderr.write("need n >= 1 and offset >= 0\n")
        return 2
    # 2n - 1 moments determine the determinants; the depth-n J-fraction
    # needs one more
    count_det = offset + 2 * n - 1
    count_jf = offset + 2 * n
    if seq_spec.startswith("custom:"):
        try:
            values = [parse_rat(p) for p in seq_spec[len("custom:"):].split(",")]
        except (ValueError, ZeroDivisionError):
            sys.stderr.write(f"cannot parse custom sequence: {seq_spec!r}\n")
            return 2
        if len(values) < count_det:
            sys.stderr.write(
                f"custom sequence too short: need {count_det} terms, "
                f"have {len(values)}\n")
            return 2
        moments = MomentSeq(values)
    elif seq_spec in NAMED_MOMENTS:
        moments = NAMED_MOMENTS[seq_spec](count_jf)
    else:
        sys.stderr.write(f"unknown sequence {seq_spec!r}\n")
        return 2

    shifted = MomentSeq([moments[k + offset]
                         for k in range(min(len(moments) - offset, 2 * n))])
    dets = hankel_dets(shifted, n)

    def _degenerate(message: str) -> int:
        payload = {"command": "hankel", "seq": seq_spec, "offset": offset,
                   "n": n, "dets": [fmt_rat(d) for d in dets],
                   "degenerate": message}
        if args.fmt == "json":
            _emit(args, _json_dumps(payload))
        else:
            _emit(args, f"degenerate moment sequence: {message}")
        return 3

    for i, d in enumerate(dets, start=1):
        if d == 0:
            return _degenerate(f"Hankel determinant of order {i} vanishes")
    if len(shifted) < 2 * n:
        sys.stderr.write(
            f"custom sequence too short for the J-fraction: need "
            f"{count_jf} terms\n")
        return 2
    try:
        jf = jfraction_from_moments(shifted, n)
    except DegenerateMomentsError as exc:
        return _degenerate(str(exc))
    heilermann_ok = heilermann_products(jf, n)[1:] == dets
    payload = {
        "command": "hankel", "seq": seq_spec, "offset": offset, "n": n,
        "dets": [fmt_rat(d) for d in dets],
        "jfraction": {
            "mu0": fmt_rat(jf.mu0),
            "a": [fmt_rat(x) for x in jf.a],
            "b": [fmt_rat(x) for x in jf.b],
        },
        "heilermann_ok": heilermann_ok,
    }
    if args.fmt == "json":
        _emit(args, _json_dumps(payload))
    else:
        lines = [f"Hankel determinants of {seq_spec} (offset {offset}):"]
        for i, d in enumerate(dets, start=1):
            lines.append(f"  n={i}: {fmt_rat(d)}")
        lines.append(f"J-fraction: mu0 = {fmt_rat(jf.mu0)}")
        lines.append("  a = " + ", ".join(fmt_rat(x) for x in jf.a))
        lines.append("  b = " + ", ".join(fmt_rat(x) for x in jf.b))
        lines.append(f"Heilermann cross-check: {'ok' if heilermann_ok else 'MISMATCH'}")
        _emit(args, "\n".join(lines))
    return 0 if heilermann_ok else 1


def cmd_list(args: argparse.Namespace) -> int:
    ids = catalog.registry_ids()
    if args.fmt == "json":
        _emit(args, _json_dumps(list(ids)))
    else:
        _emit(args, "\n".join(ids))
    return 0


COMMANDS = {
    "verify": cmd_verify,
    "eval": cmd_eval,
    "guess": cmd_guess,
    "hankel": cmd_hankel,
    "list": cmd_list,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="detkit",
        description="Exact verification of closed-form determinant identities.")
    sub = parser.add_subparsers(dest="command")

    def output(p):
        p.add_argument("--format", choices=("text", "json"), default="text",
                       dest="fmt")
        p.add_argument("--out", default=None)

    for name, text in (("verify", "run randomized identity checks"),
                       ("eval", "one sampled instance of one identity")):
        p = sub.add_parser(name, help=text)
        p.add_argument("--id", default="all")
        if name == "verify":
            p.add_argument("--trials", type=int, default=5)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--max-n", type=int, default=None, dest="max_n")
        output(p)

    pg = sub.add_parser("guess", help="fit a product-form law to a sequence")
    pg.add_argument("terms", help="comma-separated rational terms")
    output(pg)

    ph = sub.add_parser("hankel", help="Hankel determinants and J-fraction")
    ph.add_argument("--seq", default="bernoulli",
                    help="bernoulli|euler|bell|hermite|custom:a,b,...")
    ph.add_argument("--offset", type=int, default=0)
    ph.add_argument("--n", type=int, default=3)
    output(ph)

    output(sub.add_parser("list", help="registry ids in report order"))
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # one parser per process: parsing leaves it unchanged, and each fresh
    # one is a few hundred objects in reference cycles
    return build_parser()


def main(argv: Sequence[str] = None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if not args.command:
        parser.print_usage(sys.stderr)
        return 2
    return COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
