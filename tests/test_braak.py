"""Braak's G-function certifies the spectrum of `build_rabi` (Braak, PRL 107, 100401 (2011)).

With omega = 1 and Delta = omega0 / 2 the Rabi Hamiltonian is Braak's
a^dag a + Delta sigma_z + g sigma_x (a + a^dag) shifted by 1/2, so every
level E of one parity chain is a zero of that chain's G at x = E - 1/2 + g^2.
G is summed here at 30 digits from its recurrence, independently of any
matrix: the levels come from `np.linalg.eigvalsh` of `build_rabi`'s parity
sectors, the zeros from mpmath.
"""

import mpmath
import numpy as np
import pytest

from qrmframes import HilbertSpace, ModelParams, build_rabi

FIG_RF = ModelParams.from_dimensionless(0.0, 0.16)
FIG_CRF = ModelParams.from_dimensionless(1.0 / 1.31, 0.16)

mp = mpmath.mp.clone()
mp.dps = 30


def g_function(x, g, delta, sign):
    """Braak's G_sign(x) = sum_n K_n [1 - sign Delta / (x - n)] g^n, with K_0 = 1, K_1 = f_0 and
    n K_n = f_{n-1} K_{n-1} - K_{n-2}, f_n = 2g + (n - x + Delta^2 / (x - n)) / (2g); summed
    until n > 2g^2 + |x| + 20 and the term falls below 1e-32 of the sum."""
    g, delta = mp.mpf(g), mp.mpf(delta)
    two_g, delta_sq, signed_delta, past = 2 * g, delta**2, sign * delta, 2 * g**2 + abs(x) + 20
    k_prev, k, power, total, n = mp.zero, mp.one, mp.one, mp.zero, 0
    while True:
        term = k * (1 - signed_delta / (x - n)) * power
        total += term
        if n > past and abs(term) < 1e-32 * abs(total):
            return total
        f = two_g + (n - x + delta_sq / (x - n)) / two_g
        k_prev, k = k, (f * k - k_prev) / (n + 1)
        power *= g
        n += 1


def parity_chains(params, n_max):
    """The lowest three levels of each parity chain of `build_rabi`, keyed by the sign of its G:
    + for the chain of |e,0> (odd excitation number), - for the chain of |g,0> (even)."""
    space = HilbertSpace(n_max)
    entries = build_rabi(params, space).entries
    odd = space.excitations() % 2 == 1
    return {sign: np.linalg.eigvalsh(entries[np.ix_(mask, mask)])[:3] for sign, mask in ((+1, odd), (-1, ~odd))}


def bracket(level, g):
    """x0 = E - 1/2 + g^2 of a level E and the interval x0 -+ 1e-11 max(1, |x0|) around it."""
    x0 = mp.mpf(float(level)) - mp.mpf("0.5") + mp.mpf(g) ** 2
    half = mp.mpf("1e-11") * max(1, abs(x0))
    return x0, (x0 - half, x0 + half)


def changes_sign(g, delta, sign, interval):
    lo, hi = interval
    return g_function(lo, g, delta, sign) * g_function(hi, g, delta, sign) < 0


@pytest.mark.parametrize("figure", [FIG_RF, FIG_CRF], ids=["fig-rf", "fig-crf"])
def test_build_rabi_levels_are_zeros_of_the_g_function(figure):
    # the figure sets in units of omega: g / omega = 6.25, deep strong coupling
    params = ModelParams(omega=1.0, omega0=figure.omega0 / figure.omega, g=figure.g / figure.omega)
    g, delta = params.g, params.omega0 / 2
    for sign, levels in parity_chains(params, 400).items():
        for level in levels:
            x0, interval = bracket(level, g)
            assert changes_sign(g, delta, sign, interval), (sign, level)
            root = mp.findroot(lambda x: g_function(x, g, delta, sign), interval, solver="anderson", verify=False)
            # the lowest deep-strong levels sit at x0 ~ 0, E ~ -g^2: the scale is the level's, not x0's
            assert abs(root - x0) <= 1e-14 * max(1.0, abs(level)), (sign, level)


def test_only_the_own_parity_g_function_vanishes_at_a_level():
    # at g / omega = 6.25 the two chains are degenerate far below the bracket, so both G change sign there
    params = ModelParams(omega=1.0, omega0=1.0, g=3.0)
    g, delta = params.g, params.omega0 / 2
    for sign, levels in parity_chains(params, 200).items():
        for level in levels:
            _, interval = bracket(level, g)
            assert changes_sign(g, delta, sign, interval), (sign, level)
            assert not changes_sign(g, delta, -sign, interval), (sign, level)
