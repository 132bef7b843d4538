"""Shared draw helpers for the test suite, a spy on the p-adic lifting,
a guard against the exact kernel and a frontier sweep with one wrong
entry.

Every test that needs spectral parameters draws them through
`draw_point` with an explicit seed, so failures reproduce exactly.
"""

from __future__ import annotations

from random import Random

from openloop import ONE, Scalar, SpectralPoint
from openloop import exactla
from openloop.groundstate import generic_parameters
from openloop.transfer import _sweep


def draw_point(rng: Random, length: int, s: Scalar = ONE) -> SpectralPoint:
    """A generic spectral point: z's, zetas and w jointly non-degenerate."""
    vals = generic_parameters(rng, length + 3)
    return SpectralPoint(
        z=tuple(vals[:length]),
        zeta1=vals[length],
        zeta2=vals[length + 1],
        w=vals[length + 2],
        s=s,
    )


def rational(num: int, den: int = 1) -> Scalar:
    from fractions import Fraction

    return Scalar.from_rational(Fraction(num, den))


def spy_lifting(monkeypatch) -> dict:
    """What the p-adic lifting of `exactla` reads, step by step.

    Without an anchor each lifting step reads Wang's reconstruction
    (`_reconstruct` without a den_bound).  With one, a step reads nothing
    until the anchored entry, value * hint, fits the reading's bound, and
    from then on tries the anchored reading (`_anchored`, read by
    `_reconstruct` at a den_bound) and then Wang's, unless the anchored
    one is certified; an anchor that never fits, off Z[zeta] or past the
    lifting's budget, is lifted as none.  "anchored" and "wang" count
    those calls, so an unanchored lifting took "wang" steps and an
    anchored one counts its steps from the anchored fit.
    "certified" lists the denominator of each vector that passed the
    certificate: the hint where the anchored reading was returned.
    """
    record = {"anchored": 0, "wang": 0, "certified": []}
    anchored, reconstruct = exactla._anchored, exactla._reconstruct

    def spy_anchored(*args):
        record["anchored"] += 1
        return anchored(*args)

    def spy_reconstruct(residues, m, den_bound=None):
        if den_bound is None:
            record["wang"] += 1
        return reconstruct(residues, m, den_bound)

    monkeypatch.setattr(exactla, "_anchored", spy_anchored)
    monkeypatch.setattr(exactla, "_reconstruct", spy_reconstruct)
    certified = exactla._certified

    def spy_certified(cols, nums, den):
        vec = certified(cols, nums, den)
        if vec is not None:
            record["certified"].append(den)
        return vec

    monkeypatch.setattr(exactla, "_certified", spy_certified)
    return record


def refuse_exact_kernel(monkeypatch) -> None:
    """Make any call of the exact RREF `exactla.kernel_basis` fail the
    test: the lifting alone decides the kernel."""

    def refuse(rows, ncols):
        raise AssertionError("fell back to the exact kernel")

    monkeypatch.setattr(exactla, "kernel_basis", refuse)


def mutated_sweep(target: int, calls: list):
    """A stand-in for `transfer._sweep` that appends each call's point to
    calls and, in call number target (from 0), adds one to the first
    numerator of the lowest row of the first nonzero column."""

    def mutated(point, cols, den):
        out, d = _sweep(point, cols, den)
        if len(calls) == target:
            col = next(c for c in out if c)
            row = min(col)
            n0, n1, n2, n3 = col[row]
            col[row] = (n0 + 1, n1, n2, n3)
        calls.append(point)
        return out, d

    return mutated
