"""Abundance maps for test scenes, each checked for contrast.

At the protocol's correlation length of 15 pixels, a random abundance map
of 10 pixels or fewer a side is exactly the uniform mixture, and 11 to 13
pixels a side still carry the FFT's rounding. A test scene on such a map
cannot tell an unmixer that returns 1/K everywhere from a right one, so
every shared scene builder passes its map through :func:`assert_contrast`.
"""

from twolmm import AbundanceMatrix, generate_grf_abundances
from twolmm.datagen import GrfSpec

# A correlation length that gives grids of 5 pixels a side or more contrast.
SHORT_LENGTH = 4.0

MIN_SPREAD = 0.1


def assert_contrast(abundances: AbundanceMatrix) -> AbundanceMatrix:
    """Fail unless the abundances' standard deviation over every entry is
    above ``MIN_SPREAD``; return them. A K = 1 map is all ones by
    definition and is not checked."""
    spread = float(abundances.data.std())
    assert abundances.endmember_count == 1 or spread > MIN_SPREAD, (
        f"abundance spread {spread:.3g} is not above {MIN_SPREAD}: the map is (nearly) uniform"
    )
    return abundances


def grf_map(width: int, height: int, k: int, seed: int, correlation_length: float = 15.0):
    """``generate_grf_abundances`` of the given grid, checked for contrast."""
    spec = GrfSpec(
        width=width, height=height, correlation_length=correlation_length, k=k, seed=seed
    )
    return assert_contrast(generate_grf_abundances(spec))
