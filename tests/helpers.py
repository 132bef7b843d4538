"""Shared draw helpers for the test suite, and a spy on the p-adic lifting.

Every test that needs spectral parameters draws them through
`draw_point` with an explicit seed, so failures reproduce exactly.
"""

from __future__ import annotations

from random import Random

from openloop import ONE, Scalar, SpectralPoint
from openloop import exactla
from openloop.groundstate import generic_parameters


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

    Each lifting step tries the anchored reading (`_anchored`) where an
    anchor is given and then Wang's reconstruction (`_reconstruct`),
    unless the anchored one is certified; "anchored" and "wang" count
    those calls, so a lifting took max(anchored, wang) steps.
    "certified" lists the denominator of each vector that passed the
    certificate: the hint where the anchored reading was returned.
    """
    record = {"anchored": 0, "wang": 0, "certified": []}

    def counted(name, key):
        inner = getattr(exactla, name)

        def spy(*args):
            record[key] += 1
            return inner(*args)

        monkeypatch.setattr(exactla, name, spy)

    counted("_anchored", "anchored")
    counted("_reconstruct", "wang")
    certified = exactla._certified

    def spy_certified(cols, nums, d, den):
        vec = certified(cols, nums, d, den)
        if vec is not None:
            record["certified"].append(den)
        return vec

    monkeypatch.setattr(exactla, "_certified", spy_certified)
    return record
