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
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from . import catalog
from .catalog.base import run_trial, trial_rng
from .exactnum import bell_poly, bernoulli, euler_even, fmt_rat, hermite_poly, rat
from .guess import ZeroTermError, rate_guess
from .hankel import (DegenerateMomentsError, MomentSeq, hankel_dets,
                     heilermann_product, jfraction_from_moments)


@dataclass
class CliConfig:
    command: str
    ids: tuple[str, ...] = ("all",)
    trials: int = 5
    seed: int = 0
    max_n: Optional[int] = None
    out: Optional[str] = None
    fmt: str = "text"
    extra: dict = field(default_factory=dict)


def _emit(config: CliConfig, text: str) -> None:
    if config.out:
        with open(config.out, "w") as fh:
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
    for i in ids:
        if i not in known:
            return None
    # report order is registry order, independent of request order
    order = {rid: k for k, rid in enumerate(known)}
    return sorted(set(ids), key=order.__getitem__)


def cmd_verify(config: CliConfig) -> int:
    ids = _resolve_ids(config.extra.get("id", "all"))
    if ids is None:
        sys.stderr.write(f"unknown identity id: {config.extra.get('id')}\n")
        return 2
    reports = [
        catalog.verify_identity(rid, trials=config.trials, seed=config.seed,
                                max_n=config.max_n)
        for rid in ids
    ]
    if config.fmt == "json":
        _emit(config, _json_dumps([r.to_json_dict() for r in reports]))
    else:
        lines = []
        for r in reports:
            status = "PASS" if r.overall else "FAIL"
            lines.append(f"{r.id}: {status} ({len(r.trials)} trials)")
        _emit(config, "\n".join(lines))
    return 0 if all(r.overall for r in reports) else 1


def cmd_eval(config: CliConfig) -> int:
    raw = config.extra.get("id")
    if not raw or raw == "all":
        sys.stderr.write("eval requires a single --id\n")
        return 2
    ids = _resolve_ids(raw)
    if ids is None or len(ids) != 1:
        sys.stderr.write(f"unknown identity id: {raw}\n")
        return 2
    record = catalog.get_record(ids[0])
    n = record.max_n if config.max_n is None else min(record.max_n, config.max_n)
    n = max(n, record.min_n)
    rng = trial_rng(config.seed, record.id, 0)
    trial = run_trial(record, rng, n)
    trial.params = {"n": n, **trial.params}
    payload = {"id": record.id, **trial.to_json_dict()}
    if config.fmt == "json":
        _emit(config, _json_dumps(payload))
    else:
        lines = [f"{record.id} at n={n}"]
        for key, value in payload["params"].items():
            lines.append(f"  {key} = {value}")
        lines.append(f"  lhs = {payload['lhs']}")
        lines.append(f"  rhs = {payload['rhs']}")
        lines.append(f"  {'PASS' if trial.ok else 'FAIL'}")
        _emit(config, "\n".join(lines))
    return 0 if trial.ok else 1


def cmd_guess(config: CliConfig, terms_raw: str) -> int:
    try:
        terms = [Fraction(part.strip()) for part in terms_raw.split(",")]
        if not terms:
            raise ValueError
    except (ValueError, ZeroDivisionError):
        sys.stderr.write(f"cannot parse terms: {terms_raw!r}\n")
        return 2
    try:
        guesses = rate_guess(terms)
    except ZeroTermError:
        guesses = []
    if config.fmt == "json":
        _emit(config, _json_dumps({
            "command": "guess",
            "terms": [fmt_rat(t) for t in terms],
            "guesses": [str(g) for g in guesses],
        }))
    else:
        if guesses:
            _emit(config, "\n".join(str(g) for g in guesses))
        else:
            _emit(config, "no product-form law found")
    return 0 if guesses else 1


_NAMED_SEQS = {
    "bernoulli": bernoulli,
    "euler": lambda k: euler_even(2 * k),
    "bell": lambda k: bell_poly(k)(1),
    "hermite": lambda k: hermite_poly(k)(0),
}


def cmd_hankel(config: CliConfig) -> int:
    seq_spec = config.extra.get("seq") or "bernoulli"
    offset = int(config.extra.get("offset") or 0)
    n = int(config.extra.get("n") or 3)
    if n < 1 or offset < 0:
        sys.stderr.write("need n >= 1 and offset >= 0\n")
        return 2
    # 2n - 1 moments determine the determinants; the depth-n J-fraction
    # needs one more
    count_det = offset + 2 * n - 1
    count_jf = offset + 2 * n
    if seq_spec.startswith("custom:"):
        try:
            values = [rat(Fraction(p.strip()))
                      for p in seq_spec[len("custom:"):].split(",")]
        except (ValueError, ZeroDivisionError):
            sys.stderr.write(f"cannot parse custom sequence: {seq_spec!r}\n")
            return 2
        if len(values) < count_det:
            sys.stderr.write(
                f"custom sequence too short: need {count_det} terms, "
                f"have {len(values)}\n")
            return 2
        moments = MomentSeq(values)
    elif seq_spec in _NAMED_SEQS:
        fn = _NAMED_SEQS[seq_spec]
        moments = MomentSeq([fn(k) for k in range(count_jf)])
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
        if config.fmt == "json":
            _emit(config, _json_dumps(payload))
        else:
            _emit(config, f"degenerate moment sequence: {message}")
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
    heilermann_ok = all(
        heilermann_product(jf, i) == dets[i - 1] for i in range(1, n + 1))
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
    if config.fmt == "json":
        _emit(config, _json_dumps(payload))
    else:
        lines = [f"Hankel determinants of {seq_spec} (offset {offset}):"]
        for i, d in enumerate(dets, start=1):
            lines.append(f"  n={i}: {fmt_rat(d)}")
        lines.append(f"J-fraction: mu0 = {fmt_rat(jf.mu0)}")
        lines.append("  a = " + ", ".join(fmt_rat(x) for x in jf.a))
        lines.append("  b = " + ", ".join(fmt_rat(x) for x in jf.b))
        lines.append(f"Heilermann cross-check: {'ok' if heilermann_ok else 'MISMATCH'}")
        _emit(config, "\n".join(lines))
    return 0 if heilermann_ok else 1


def cmd_list(config: CliConfig) -> int:
    ids = catalog.registry_ids()
    if config.fmt == "json":
        _emit(config, _json_dumps(list(ids)))
    else:
        _emit(config, "\n".join(ids))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="detkit",
        description="Exact verification of closed-form determinant identities.")
    sub = parser.add_subparsers(dest="command")

    def common(p, with_id=True):
        if with_id:
            p.add_argument("--id", default="all")
        p.add_argument("--trials", type=int, default=5)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--max-n", type=int, default=None, dest="max_n")
        p.add_argument("--format", choices=("text", "json"), default="text",
                       dest="fmt")
        p.add_argument("--out", default=None)

    common(sub.add_parser("verify", help="run randomized identity checks"))
    common(sub.add_parser("eval", help="one sampled instance of one identity"))

    pg = sub.add_parser("guess", help="fit a product-form law to a sequence")
    pg.add_argument("terms", help="comma-separated rational terms")
    common(pg, with_id=False)

    ph = sub.add_parser("hankel", help="Hankel determinants and J-fraction")
    ph.add_argument("--seq", default="bernoulli",
                    help="bernoulli|euler|bell|hermite|custom:a,b,...")
    ph.add_argument("--offset", type=int, default=0)
    ph.add_argument("--n", type=int, default=3)
    common(ph, with_id=False)

    common(sub.add_parser("list", help="registry ids in report order"),
           with_id=False)
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
    if getattr(args, "trials", 1) < 1:
        sys.stderr.write("--trials must be >= 1\n")
        return 2
    config = CliConfig(
        command=args.command,
        trials=getattr(args, "trials", 5),
        seed=getattr(args, "seed", 0),
        max_n=getattr(args, "max_n", None),
        out=getattr(args, "out", None),
        fmt=getattr(args, "fmt", "text"),
    )
    if args.command == "verify":
        config.extra["id"] = args.id
        return cmd_verify(config)
    if args.command == "eval":
        config.extra["id"] = args.id
        return cmd_eval(config)
    if args.command == "guess":
        return cmd_guess(config, args.terms)
    if args.command == "hankel":
        config.extra.update(seq=args.seq, offset=args.offset, n=args.n)
        return cmd_hankel(config)
    if args.command == "list":
        return cmd_list(config)
    parser.print_usage(sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
