"""The theorem as a property: every pass flag holds on a drawn admissible scenario.

A draw is a plant c = c1(x) + c2(t) and f(x, y), a spectral shift
lambda0 = sup c + gap, and an initial-data family.  ``run_scenario`` runs it
at grid_m 51, n_xi 101, dt 4e-4 and t_end 2, where every flag of such
scenarios is resolved, and every flag must pass.  The sup c that sets
lambda0 comes from dense samples, not from the closed form that the package
checks, so the draw does not lean on the code under test.  A failing draw is
printed as a scenario file that ``backstep verify --config`` runs.
"""
import dataclasses
import tempfile

import numpy as np
from hypothesis import example, given, note, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly

from backstep.coefficients import C2_KINDS, CoefficientFamily
from backstep.verify import load_scenario, run_scenario

ZERO_F = ((0.0,),)
coefficient = st.floats(-10, 10)


def sampled_sup_c(c1, c2) -> float:
    """max of c1 on 100001 nodes of [0, 1] plus max of c2 on 100001 nodes of [0, 20];
    c2's largest peak is before t = 17 for every drawn family."""
    kind, a, b = c2
    c2_of = CoefficientFamily(c2_kind=kind, c2_a=a, c2_b=b).c2
    return float(np.max(npoly.polyval(np.linspace(0, 1, 100001), c1))
                 + np.max(c2_of(np.linspace(0, 20, 100001))))


def scenario_text(c1, c2, f, lambda0, family) -> str:
    """The scenario as a file for ``backstep verify``."""
    kind, a, b = c2
    return "\n".join([
        "[problem]",
        f"c1_poly = {' '.join(map(repr, c1))}",
        f"c2_kind = {kind}",
        f"c2_a = {a!r}",
        f"c2_b = {b!r}",
        f"f_poly = {'; '.join(' '.join(map(repr, row)) for row in f)}",
        f"lambda0 = {lambda0!r}",
        "[kernel]",
        "n_xi = 101",
        "[sim]",
        "grid_m = 51",
        "dt = 4e-4",
        "t_end = 2",
        "record_stride = 20",
        "[initial_data]",
        f"family = {family}",
        "",
    ])


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(c1=st.lists(coefficient, min_size=1, max_size=4).map(tuple),
       c2=st.tuples(st.sampled_from(C2_KINDS), st.floats(-3, 3), st.floats(0.2, 8)),
       f=st.one_of(st.just(ZERO_F),
                   st.tuples(st.tuples(coefficient, coefficient),
                             st.tuples(coefficient, coefficient))),
       gap=st.floats(0.05, 25),
       family=st.sampled_from(("constant", "cosine", "polynomial", "bump")))
# c1' feeds the target's u_x: the W^{1,p} floor needs its factor 1 + max|c1'| t
@example(c1=(0.0, 0.0, -4.0), c2=("constant", 0.0, 1.0), f=((0.0, 0.0), (0.0, -1.0)), gap=1.0,
         family="constant")
# negligible leading coefficients of c1, which the closed-form range of c1 once lost
@example(c1=(0.0, 1.0, -1.0, 1.35e-288), c2=("constant", 0.0, 1.0), f=ZERO_F, gap=1.0,
         family="bump")
@example(c1=(0.0, 0.0, 1.0, 1e-320), c2=("constant", 0.0, 1.0), f=ZERO_F, gap=1.0,
         family="bump")
# c = 0 with a small gap: the second increment is >= tol at the certified stop, but
# within its bound, which is no rounding floor
@example(c1=(0.0,), c2=("constant", 0.0, 1.0), f=ZERO_F, gap=0.005, family="bump")
def test_every_flag_passes(c1, c2, f, gap, family):
    text = scenario_text(c1, c2, f, sampled_sup_c(c1, c2) + gap, family)
    note(text)
    with tempfile.TemporaryDirectory() as work:
        with open(f"{work}/scenario.ini", "w") as fh:
            fh.write(text)
        config = dataclasses.replace(load_scenario(f"{work}/scenario.ini"), outputs=work)
        report = run_scenario(config)
    failed = sorted(name for name, ok in report.pass_flags.items() if not ok)
    assert not failed, failed
