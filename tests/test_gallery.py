"""Symbols whose answer the theorem decides, against the finite-section verdict.

For phi = c g + d conj(g) with bounded analytic g, T_phi is invertible
exactly when inf_D |phi| > 0.  Each entry records that answer, worked out
by hand from where g vanishes or, for |c| = |d|, from the sign of
Re(e^{-i theta/2} g) with d/c = e^{i theta}.  The verdict is evidence and
may stay ``inconclusive``; it must never contradict the theorem.

The schedule is the verdict's default; the grid is ``default_modulus_grid``
(radii 1 - 2^-j, j = 0..10, and 256 angles), which some zeros below are
placed to dodge.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np
import pytest

from berglab.analysis import invertibility_verdict
from berglab.symbols import HarmonicSymbol, PolynomialSymbol, RationalSymbol, power_symbol

SIZES = (16, 32, 64, 128, 256)
#: half an angle step of the 256-angle grid
HALF_STEP = cmath.exp(1j * math.pi / 256)
#: entries answered ``inconclusive`` when this gallery was recorded; it may only go down
INCONCLUSIVE = 10


def blaschke(*zeros):
    """The finite Blaschke product of prod (z - a) / (1 - conj(a) z) as p / q."""
    p, q = np.ones(1, dtype=complex), np.ones(1, dtype=complex)
    for a in zeros:
        p = np.convolve(p, [-a, 1.0])
        q = np.convolve(q, [1.0, -np.conj(a)])
    return RationalSymbol(p, q)


@dataclass(frozen=True)
class Entry:
    name: str
    c: complex
    d: complex
    g: object
    invertible: bool
    #: inf_D |g| in closed form, for the d = 0 entries that check the section bound
    inf_g: float | None = None


P = PolynomialSymbol
GALLERY = [
    # zeros of g inside the disc, with |c| != |d|, are zeros of phi
    Entry("zero at 0.5", 1, 0, P([-0.5, 1]), False),
    Entry("zero at 0.95", 1, 0, P([-0.95, 1]), False),
    Entry("|d| > |c|, zero at 0", 0.5, 2, P([0, 1]), False),
    # a zero on the circle: inf |phi| = 0, though T_phi is bounded
    Entry("zero at -1, d = 0.5", 1, 0.5, P([1, 1]), False),
    # between the dyadic radii 0.75 and 0.875, and half an angle step off the grid's angles
    Entry("zero at 0.8", 1, 0, P([-0.8, 1]), False),
    Entry("zero at 0.875 e^{i pi/256}, d = 0.3", 1, 0.3, P([-0.875 * HALF_STEP, 1]), False),
    # zeros just outside: inf |phi| >= (|c| - |d|) inf |g| > 0
    Entry("zero at 1.2", 1, 0, P([-1.2, 1]), True, inf_g=0.2),
    Entry("zero at 1.001", 1, 0, P([-1.001, 1]), True, inf_g=0.001),
    Entry("zero at 1.05, d = 0.5", 1, 0.5, P([-1.05, 1]), True),
    Entry("2 + z", 1, 0, P([2, 1]), True, inf_g=1.0),
    Entry("|d| > |c|, 3 + z", 0.5, 1, P([3, 1]), True),
    # finite Blaschke products vanish at their zeros
    Entry("Blaschke 0.7", 1, 0, blaschke(0.7), False),
    Entry("Blaschke 0.7, d = 0.5", 1, 0.5, blaschke(0.7), False),
    Entry("Blaschke 0.5, -0.3i, d = 0.25", 1, 0.25, blaschke(0.5, -0.3j), False),
    # |(1 + 0.5 z) / (2 - 0.5 z)| is least at z = -1
    Entry("(1 + 0.5z)/(2 - 0.5z)", 1, 0, RationalSymbol([1, 0.5], [2, -0.5]), True, inf_g=0.2),
    # |c| = |d|: |phi| = 2 |c| |Re(e^{-i theta/2} g)|, zero where that real part changes sign
    Entry("c = d, 2 + z", 1, 1, P([2, 1]), True),
    Entry("c = d, 0.05 + z^2", 1, 1, P([0.05, 0, 1]), False),
    Entry("d = ic, 2 + z", 1, 1j, P([2, 1]), True),
    Entry("d = -c, 2i + z", 1, -1, P([2j, 1]), True),
    # ((1+z)/(1-z))^{it} maps the disc onto the annulus e^{-pi|t|/2} < |g| < e^{pi|t|/2}
    # with every phase, so inf |phi| = ||c| - |d|| e^{-pi|t|/2}, which is 0 for |c| = |d|
    Entry("power t = 1", 1, 0, power_symbol(1), True, inf_g=math.exp(-math.pi / 2)),
    Entry("power t = 3", 1, 0, power_symbol(3), True, inf_g=math.exp(-3 * math.pi / 2)),
    Entry("power t = -0.5", 1, 0, power_symbol(-0.5), True, inf_g=math.exp(-math.pi / 4)),
    Entry("power t = 1, d = 0.4", 1, 0.4, power_symbol(1), True),
    Entry("power t = 2, d = -0.5i", 1, -0.5j, power_symbol(2), True),
    Entry("power t = 1, c = d", 1, 1, power_symbol(1), False),
]


@pytest.fixture(scope="module")
def verdicts():
    return {
        e.name: invertibility_verdict(HarmonicSymbol(e.c, e.d, e.g), SIZES) for e in GALLERY
    }


def test_gallery_size_and_names():
    assert 15 <= len(GALLERY) <= 25
    assert len({e.name for e in GALLERY}) == len(GALLERY)


@pytest.mark.parametrize("entry", GALLERY, ids=lambda e: e.name)
def test_verdict_never_contradicts_the_theorem(entry, verdicts):
    verdict = verdicts[entry.name].verdict
    wrong = "not_invertible_likely" if entry.invertible else "invertible_likely"
    assert verdict != wrong, f"{entry.name}: theorem says invertible={entry.invertible}"


def test_inconclusive_count_does_not_grow(verdicts):
    inconclusive = [n for n, r in verdicts.items() if r.verdict == "inconclusive"]
    assert len(inconclusive) <= INCONCLUSIVE, inconclusive


@pytest.mark.parametrize(
    "entry", [e for e in GALLERY if e.inf_g is not None], ids=lambda e: e.name
)
def test_d0_section_bound(entry, verdicts):
    # for d = 0, A_N^{-1} is the section of T_{1/g}, whose norm grows with N toward
    # 1 / inf_D |g|: sigma_min(A_N) never increases and never falls below inf_D |g|
    assert entry.d == 0
    sigma = np.array(verdicts[entry.name].sigma_min) / abs(entry.c)
    assert np.all(sigma[1:] <= sigma[:-1] * (1 + 1e-12)), sigma
    assert np.all(sigma >= entry.inf_g * (1 - 1e-12)), (sigma, entry.inf_g)


#: the entries answered ``not_invertible_likely`` and ``invertible_likely`` when the
#: trend's bisection began to stop at eps^2 max|B| (DECISIONS.md entry 24), the rest
#: ``inconclusive``: a change that moves a verdict must name it here, and why
RECORDED = {
    "not_invertible_likely": {
        "zero at 0.5", "|d| > |c|, zero at 0", "zero at 0.875 e^{i pi/256}, d = 0.3",
        "Blaschke 0.5, -0.3i, d = 0.25",
    },
    "invertible_likely": {
        "zero at 1.2", "2 + z", "|d| > |c|, 3 + z", "(1 + 0.5z)/(2 - 0.5z)", "c = d, 2 + z",
        "d = ic, 2 + z", "d = -c, 2i + z", "power t = 1", "power t = 3", "power t = -0.5",
        "power t = 1, d = 0.4",
    },
}


def test_verdicts_are_the_recorded_ones(verdicts):
    recorded = {name: verdict for verdict, names in RECORDED.items() for name in names}
    assert {
        name: report.verdict for name, report in verdicts.items()
    } == {e.name: recorded.get(e.name, "inconclusive") for e in GALLERY}
