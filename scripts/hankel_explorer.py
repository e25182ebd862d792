#!/usr/bin/env python3
"""Tabulate Hankel determinants and J-fraction coefficients for the
built-in moment sequences.

Usage: python scripts/hankel_explorer.py [--n N]
"""

import argparse
import sys

from detkit.exactnum import fmt_rat
from detkit.hankel import (NAMED_MOMENTS, bernoulli_shifted_moments, hankel_dets,
                           heilermann_products, jfraction_from_moments)

SEQUENCES = {
    "bernoulli (shift 2)": lambda count: bernoulli_shifted_moments(count, 2),
    "secant numbers": NAMED_MOMENTS["euler"],
    "bell numbers": NAMED_MOMENTS["bell"],
    "hermite at 0": NAMED_MOMENTS["hermite"],
    "bernoulli": NAMED_MOMENTS["bernoulli"],
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=5,
                        help="largest Hankel order to tabulate")
    args = parser.parse_args()
    n = args.n
    for name, make in SEQUENCES.items():
        moments = make(2 * n)
        print(f"== {name} ==")
        print("  moments:", ", ".join(fmt_rat(moments[k]) for k in range(2 * n)))
        dets = hankel_dets(moments, n)
        print("  hankel dets:", ", ".join(fmt_rat(d) for d in dets))
        jf = jfraction_from_moments(moments, n)
        print("  a:", ", ".join(fmt_rat(x) for x in jf.a))
        print("  b:", ", ".join(fmt_rat(x) for x in jf.b))
        cross = heilermann_products(jf, n)[1:] == dets
        print(f"  product cross-check: {'ok' if cross else 'MISMATCH'}")
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
