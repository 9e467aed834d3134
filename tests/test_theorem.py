"""Dang's Theorem 2.1 as a positive control: a run inside the theorem's
hypotheses stays within its bound.

On a space with modulus kappa = 1, take T f(x) = sum_i coef_i f(scale_i x)
and a one-term phi = a m(x) d, with m(x) = |x|^e (ABS) or sign(x) |x|^e
(SIGNED).  phi is an eigenvector of T with multiplier mu, so

    |T phi(x) - phi(x), y| = |a (mu - 1)|^beta |x|^(e beta) |d, y|,

and eps(x) = |a (mu - 1)|^beta max_y |d, y| |x|^(e beta) meets the
hypothesis |T phi(x) - phi(x), y| <= eps(x) at every witness y.  Whenever the
iteration converges and eps* is finite, the theorem gives
|phi(x) - psi(x), y|^theta <= eps*(x), i.e. ``K_observed <= 1``.  The
bound is tight at beta = 1 (K reaches 1 - 1e-12), and eps without its
beta, |a (mu - 1)| max_y |d, y| |x|^e, breaks it on a POWERED space.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qbanach.fixedpoint import Branch, IterationSpec, ScalarErrorFn, iterate
from qbanach.radical import Term, VectorFunction
from qbanach.spaces import cross_2norm, eval_norm, power_space, scaled_space

WITNESSES = [np.array([0.0, 1.0, 0.0]), np.array([0.0, 0.0, 1.0])]
# eps covers the rounding of mu and of the norms against the iterate's own
SLACK = 1.0 + 1e-12


def _magnitudes(lo, hi):
    """A float of either sign whose magnitude lies in [lo, hi]."""
    return st.floats(lo, hi).flatmap(lambda v: st.sampled_from([v, -v]))


_SPACES = st.one_of(
    st.just(cross_2norm()),
    st.floats(0.3, 1.0).map(lambda beta: power_space(cross_2norm(), beta)),
    st.floats(0.1, 10.0).map(lambda factor: scaled_space(cross_2norm(), factor)),
)
_BRANCHES = st.lists(st.builds(Branch, scale=_magnitudes(0.1, 3.0), coef=_magnitudes(0.05, 1.5)),
                     min_size=1, max_size=2)
_TERMS = st.builds(Term, coef=_magnitudes(0.05, 2.0), exponent=st.floats(-3.0, 3.0),
                   mode=st.sampled_from(["ABS", "SIGNED"]),
                   direction=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3))


def _multiplier(branches, term) -> float:
    """mu with T m = mu m for the term's m(x)."""
    signed = term.mode == "SIGNED"
    return sum(br.coef * (-1.0 if signed and br.scale < 0 else 1.0) * abs(br.scale) ** term.exponent
               for br in branches)


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(space=_SPACES, branches=_BRANCHES, term=_TERMS,
       samples=st.lists(_magnitudes(0.25, 4.0), min_size=1, max_size=3))
def test_a_run_inside_the_hypotheses_stays_within_the_bound(space, branches, term, samples):
    beta = space.beta
    mu = _multiplier(branches, term)
    reach = max(eval_norm(space, term.direction, y) for y in WITNESSES)
    eps = ScalarErrorFn([(abs(term.coef * (mu - 1.0)) ** beta * reach * SLACK,
                          term.exponent * beta)])
    try:
        report = iterate(IterationSpec(branches, space), VectorFunction([term]), eps, samples,
                         WITNESSES, tol=1e-10, n_max=100)
    except ValueError:  # |mu| > 1: the iterate diverges
        assume(False)
    assume(report.converged and report.eps_star_converged)
    assert report.K_observed is not None and report.K_observed <= 1.0, report
