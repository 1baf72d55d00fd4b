"""Property tests over random grids and seeds.

The Weyl calculus invariants are checked on both application paths: a
real function symbol (separable) and the Sigma that build_symbols makes
from a small random state (general).  The model nonlinearity is checked
for the skew identity behind L^2 conservation, with no time stepping.
Examples are derandomized, so every run draws the same cases.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from gcwaves.dispersion import DispersionParams
from gcwaves.fields import Grid, inner, l2_norm, random_field
from gcwaves.goodvar import build_symbols, random_state
from gcwaves.model import ModelConfig, nonlinearity
from gcwaves.paradiff import ParadiffConfig, Symbol, weyl_apply

CASES = dict(m=st.integers(4, 8).map(lambda k: 2 * k),
             seed=st.integers(0, 2 ** 16),
             chi=st.sampled_from([-2, -3]))
SETTINGS = settings(max_examples=20, derandomize=True, deadline=None, database=None)


def _check_self_adjoint_and_conjugation(a, grid, cfg, seed):
    u = random_field(grid, seed=seed + 1)
    v = random_field(grid, seed=seed + 2)
    lhs = inner(weyl_apply(a, u, cfg), v)
    rhs = inner(u, weyl_apply(a, v, cfg))
    assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(lhs))
    # conj(T_a u) = T_{a'} conj(u), a'(y, zeta) = conj(a(y, -zeta))
    left = weyl_apply(a, u, cfg).conj()
    right = weyl_apply(a.conj_flip(), u.conj(), cfg)
    assert np.max(np.abs(left.coeffs - right.coeffs)) <= 1e-13 * (
        1e-30 + np.max(np.abs(left.coeffs)))


@SETTINGS
@given(**CASES)
def test_weyl_invariants_real_function_symbol(m, seed, chi):
    grid = Grid(m)
    a = Symbol.from_function(random_field(grid, seed=seed, real=True))
    _check_self_adjoint_and_conjugation(a, grid, ParadiffConfig(chi_exponent=chi), seed)


@SETTINGS
@given(**CASES)
def test_weyl_invariants_good_variable_sigma(m, seed, chi):
    grid = Grid(m)
    cfg = ParadiffConfig(chi_exponent=chi)
    state = random_state(grid, DispersionParams(1.0, 1.0), amplitude=0.05, seed=seed)
    sigma = build_symbols(state, cfg).Sigma
    assert not sigma.is_separable
    _check_self_adjoint_and_conjugation(sigma, grid, cfg, seed)


@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(m=st.integers(4, 32).map(lambda k: 2 * k), seed=st.integers(0, 2 ** 16),
       decay=st.sampled_from([0.0, 0.02, 0.25]), band=st.integers(0, 10),
       amplitude=st.floats(1e-3, 1e3))
def test_nonlinearity_is_skew_on_dealiased_fields(m, seed, decay, band, amplitude):
    # Re<N(U), U> = 0 to rounding: the retained products are alias-free, and
    # transport plus half-divergence pair to a skew operator
    grid = Grid(m)
    cfg = ModelConfig(DispersionParams(1.0, 1.0), grid, 0.1, 1e-2, 1.0,
                      velocity_band=band)
    u = random_field(grid, seed=seed, decay=decay) * amplitude
    nl = nonlinearity(u, cfg)
    assert abs(np.real(inner(nl, u))) <= 1e-13 * max(l2_norm(nl) * l2_norm(u), 1e-300)
