"""The numpy float formatter against ``repr``."""

import math
import subprocess
import sys
from fractions import Fraction

import numpy as np
from hypothesis import given, settings, strategies as st

from magnonchain import _floattext


def _texts(values) -> list[str]:
    return [bytes(row[row != 0]).decode() for row in _floattext.render(values)]


@settings(deadline=None, max_examples=200)
@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=64))
def test_any_bit_pattern_prints_as_repr(patterns):
    values = np.array(patterns, dtype=np.uint64).view(np.float64)
    assert _texts(values) == [repr(float(x)) for x in values]


def test_every_binary_exponent_prints_as_repr():
    """Each power of two (the lower neighbour is nearer) and its two
    neighbours, over the whole double range, subnormals included."""
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    values = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf),
                             -powers, 10.0 ** np.arange(-323, 309)])
    assert _texts(values) == [repr(float(x)) for x in values]


def test_floor_logarithms_are_exact_over_the_double_range():
    """The fixed-point logarithms Schubfach reads its table with, against
    exact integer comparisons."""
    def floor_log10(x: Fraction) -> int:
        k = math.floor(math.log10(x.numerator) - math.log10(x.denominator))
        while Fraction(10) ** (k + 1) <= x:
            k += 1
        while Fraction(10) ** k > x:
            k -= 1
        return k

    q = np.arange(-1074, 972)
    pow2 = [Fraction(2) ** int(e) for e in q]
    assert _floattext._floor_log10_pow2(q).tolist() == [floor_log10(x) for x in pow2]
    assert (_floattext._floor_log10_three_quarters_pow2(q).tolist()
            == [floor_log10(3 * x / 4) for x in pow2])
    e = np.arange(-_floattext.K_MAX, -_floattext.K_MIN + 1)
    assert _floattext._floor_log2_pow10(e).tolist() == [
        (10 ** int(x)).bit_length() - 1 if x >= 0 else -(10 ** -int(x)).bit_length()
        for x in e]


def test_importing_the_cli_builds_no_formatter():
    """The formatter module and its tables wait for the first large column."""
    code = ("import sys, magnonchain.cli\n"
            "assert 'magnonchain._floattext' not in sys.modules\n"
            "from magnonchain import _floattext\n"
            "assert _floattext._tables.cache_info().currsize == 0\n")
    subprocess.run([sys.executable, "-c", code], check=True)
