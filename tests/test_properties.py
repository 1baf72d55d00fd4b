"""Property tests: the Weyl calculus invariants over random grids and seeds.

Both application paths are covered: a real function symbol (separable)
and the Sigma that build_symbols makes from a small random state (general).
Examples are derandomized, so every run draws the same cases.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from gcwaves.dispersion import DispersionParams
from gcwaves.fields import Grid, inner, random_field
from gcwaves.goodvar import build_symbols, random_state
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
