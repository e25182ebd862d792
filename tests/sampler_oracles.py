"""The cauchy and borchardt samplers and `distinct_fracs` as they were
written on Fraction sets: oracles for the samplers that key their sets by
(numerator, denominator), which must consume the generator identically
and return the same draws or raise the same Resample.  The borchardt
sampler refuses n above the permanent's cap before any draw."""

from detkit.catalog.base import Resample, rand_frac


def distinct_fracs(rng, count, nonzero=False, lo=-9):
    out = []
    seen = set()
    if count == 0:
        return ()
    for _ in range(100 * count + 100):
        x = rand_frac(rng, lo)
        if nonzero and x == 0:
            continue
        if x in seen:
            continue
        seen.add(x)
        out.append(x)
        if len(out) == count:
            return tuple(out)
    raise Resample


def sample_cauchy(rng, n):
    X = distinct_fracs(rng, n)
    Y = distinct_fracs(rng, n)
    xs = set(X)
    if any(-y in xs for y in Y):  # x + y == 0
        raise Resample
    return {"X": X, "Y": Y}


def sample_borchardt(rng, n):
    if n > 9:
        raise ValueError("permanent capped at n <= 9")
    X = distinct_fracs(rng, n)
    Y = distinct_fracs(rng, n)
    if not set(X).isdisjoint(Y):  # x - y == 0
        raise Resample
    return {"X": X, "Y": Y}

