"""Tests for detkit's record classes: the cold import stays free of
`dataclasses`, and each record keeps the equality, hashing and repr that
callers rely on."""

import os
import subprocess
import sys
from fractions import Fraction

import pytest

from detkit.catalog import (get_record, verify_goulden_jackson,
                            verify_strehl_wilf, verify_turnbull)
from detkit.catalog import structured
from detkit.catalog.base import IdentityRecord, Trial, VerifyReport
from detkit.combinat import ASM, PosetData, asm_enumerate, partition_lattice
from detkit.exactnum import PolyQ, RatFn
from detkit.guess import GuessExpr
from detkit.hankel import JFraction, MomentSeq

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

_COLD_IMPORT = """
import sys
before = set(sys.modules)
import detkit, detkit.cli
print(" ".join(sorted({"dataclasses", "inspect"} & (set(sys.modules) - before))))
"""


def test_cold_import_loads_neither_dataclasses_nor_inspect():
    # a fresh interpreter, so that no module this test run has loaded
    # counts; the diff of sys.modules ignores what site preloads
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", _COLD_IMPORT], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    assert proc.stdout.split() == []


def _value_records():
    """Pairs of equal records built apart, and one unequal record, for each
    of the six value classes."""
    law = RatFn(PolyQ([1, 1]), PolyQ([2, 0, 1]))
    trial = get_record("turnbull").trial
    lattice = partition_lattice(3)
    return [
        (MomentSeq([1, "1/2", 3]), MomentSeq((Fraction(1), Fraction(1, 2), 3)),
         MomentSeq([1, "1/2"])),
        (JFraction(1, [2], [3]), JFraction(Fraction(1), (2,), ("3",)), JFraction(1, [2], [4])),
        (GuessExpr(1, (Fraction(2),), law), GuessExpr(1, (2,), law, None),
         GuessExpr(1, (2,), law, 0)),
        (lattice, PosetData(lattice.elements, lattice.leq, lattice.rank),
         partition_lattice(2)),
        (asm_enumerate(3)[0], ASM(tuple(asm_enumerate(3)[0].entries)), asm_enumerate(3)[1]),
        (IdentityRecord("x", trial, 4), IdentityRecord(id="x", trial=trial, max_n=4, min_n=1),
         IdentityRecord("x", trial, 4, 2)),
    ]


@pytest.mark.parametrize("a, b, other", _value_records(),
                         ids=["MomentSeq", "JFraction", "GuessExpr", "PosetData", "ASM",
                              "IdentityRecord"])
def test_value_records_compare_and_hash_by_fields(a, b, other):
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != other and len({a, b, other}) == 2


def test_records_repr_like_dataclasses():
    assert repr(JFraction(1, [2], [])) == (
        "JFraction(mu0=Fraction(1, 1), a=(Fraction(2, 1),), b=())")
    assert repr(Trial({"n": 1}, 2, 2, True)) == (
        "Trial(params={'n': 1}, lhs=2, rhs=2, ok=True, micros=None)")
    assert repr(VerifyReport("x")) == "VerifyReport(id='x', trials=[], notes=())"


def test_trial_and_report_compare_by_value_and_do_not_hash():
    assert Trial({"n": 1}, 2, 2, True) == Trial({"n": 1}, 2, 2, True, None)
    assert Trial({"n": 1}, 2, 2, True) != Trial({"n": 1}, 2, 2, True, 5)
    assert VerifyReport("x") == VerifyReport("x", [], ())
    for record in (Trial({}, 1, 1, True), VerifyReport("x")):
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)


def test_reports_without_trials_do_not_share_a_list():
    a, b = VerifyReport("x"), VerifyReport("x")
    a.trials.append(Trial({}, 1, 1, True))
    assert b.trials == [] and a.trials is not b.trials


@pytest.mark.parametrize("verify, args, identity_id", [
    (verify_turnbull, (2, 3), "turnbull"),
    (verify_goulden_jackson, (2,), "goja"),
    (verify_strehl_wilf, (2,), "stwi"),
])
def test_one_off_records_keep_the_registered_id_and_sizes(monkeypatch, verify, args,
                                                         identity_id):
    seen = []

    def run_trials(record, n, trials, seed):
        seen.append(record)
        return VerifyReport(record.id)

    monkeypatch.setattr(structured, "run_trials", run_trials)
    verify(*args)
    registered = get_record(identity_id)
    (record,) = seen
    assert record.trial is not registered.trial
    assert (record.id, record.max_n, record.min_n) == (
        registered.id, registered.max_n, registered.min_n)
