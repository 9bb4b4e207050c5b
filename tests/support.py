"""Helpers that only the tests use: the point-literal parser, the region
of a point, and a least-squares fit of count tables."""
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from hkcount.heights import HKRationalPoint, Region, canonicalize

_POINT_RE = re.compile(r"\s*\[([^\]]*)\]\s*;\s*\[([^\]]*)\]\s*")


def parse_point(text: str) -> HKRationalPoint:
    """Parse the point literal '[q0:...:q_{t-1}];[y0:...:y_r]' that
    `count --stream` prints."""
    m = _POINT_RE.fullmatch(text)
    if m is None:
        raise ValueError(f"bad point literal {text!r}")
    base = canonicalize(Fraction(x) for x in m.group(1).split(":"))
    fiber = canonicalize(Fraction(x) for x in m.group(2).split(":"))
    return HKRationalPoint(base=base, fiber=fiber)


def region_of(P: HKRationalPoint) -> Region:
    """GoodOpen iff the distinguished fiber coordinate y_0 is nonzero."""
    return Region.GOOD_OPEN if P.fiber.coords[0] != 0 else Region.SUBBUNDLE_F


class DegenerateFitError(ValueError):
    """Not enough (or collinear) data for the requested fit."""


@dataclass(frozen=True)
class ExponentFit:
    slope: float
    log_coefficient: float
    coefficient: float  # the companion pure-power coefficient of the 2-param fit


def estimate_exponent(table: Sequence,
                      exponent: Optional[float] = None) -> ExponentFit:
    """Log-log slope plus a two-parameter fit N ~ C B^a log B + C2 B^a.

    `table` rows are (B, count) pairs.  The slope comes from least squares
    on (log B, log N); the two-parameter fit uses the given exponent `a`
    (default: slope rounded to the nearest integer) and returns C as
    log_coefficient and C2 as coefficient.
    """
    pairs = [(float(b), float(n)) for b, n in table]
    if len(pairs) < 4:
        raise DegenerateFitError("need at least 4 grid points")
    bs = np.array([b for b, _ in pairs])
    ns = np.array([n for _, n in pairs])
    if np.any(bs <= 1) or np.any(ns <= 0):
        raise DegenerateFitError("fit needs B > 1 and positive counts")
    slope, _ = np.polyfit(np.log(bs), np.log(ns), 1)
    a = float(exponent) if exponent is not None else float(round(slope))
    design = np.column_stack([bs ** a * np.log(bs), bs ** a])
    sol, *_ = np.linalg.lstsq(design, ns, rcond=None)
    return ExponentFit(slope=float(slope), log_coefficient=float(sol[0]),
                       coefficient=float(sol[1]))
