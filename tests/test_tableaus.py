"""Structural and order-condition tests for the DOPRI5 Butcher tableau."""

from dataclasses import replace

import numpy as np
import pytest

from repro.errors import SolverError
from repro.solvers import DOPRI5

ALL = [DOPRI5]


@pytest.mark.parametrize("tableau", ALL, ids=lambda t: t.name)
class TestStructure:
    def test_structural_validation(self, tableau):
        tableau.validate()

    def test_error_weights_sum_to_zero(self, tableau):
        assert abs(tableau.e.sum()) < 1e-12


@pytest.mark.parametrize("tableau", ALL, ids=lambda t: t.name)
class TestOrderConditions:
    """Classic rooted-tree order conditions up to order 3."""

    def test_order_1(self, tableau):
        assert tableau.b.sum() == pytest.approx(1.0)

    def test_order_2(self, tableau):
        assert tableau.b.dot(tableau.c) == pytest.approx(0.5)

    def test_order_3(self, tableau):
        assert tableau.b.dot(tableau.c ** 2) == pytest.approx(1.0 / 3.0)
        ac = tableau.a.dot(tableau.c)
        assert tableau.b.dot(ac) == pytest.approx(1.0 / 6.0)


class TestHighOrderConditions:
    @pytest.mark.parametrize("tableau", ALL, ids=lambda t: t.name)
    def test_order_4_quadrature(self, tableau):
        assert tableau.b.dot(tableau.c ** 3) == pytest.approx(0.25)

    @pytest.mark.parametrize("tableau", ALL, ids=lambda t: t.name)
    def test_order_5_quadrature(self, tableau):
        assert tableau.b.dot(tableau.c ** 4) == pytest.approx(0.2)

    def test_dopri5_fsal_row(self):
        """FSAL: the last a-row equals b (the final stage is f(t+h, y1))."""
        assert np.allclose(DOPRI5.a[-1], DOPRI5.b)
        assert DOPRI5.first_same_as_last


class TestValidationRaises:
    """Corrupt tableaus are rejected with SolverError (not assert)."""

    def test_wrong_stage_matrix_shape(self):
        broken = replace(DOPRI5, a=DOPRI5.a[:-1])
        with pytest.raises(SolverError, match="stage matrix"):
            broken.validate()

    def test_wrong_node_shape(self):
        broken = replace(DOPRI5, c=DOPRI5.c[:-1])
        with pytest.raises(SolverError, match="nodes"):
            broken.validate()

    def test_row_sum_condition(self):
        broken = replace(DOPRI5, c=DOPRI5.c + 0.1)
        with pytest.raises(SolverError, match="row-sum"):
            broken.validate()

    def test_weights_must_sum_to_one(self):
        broken = replace(DOPRI5, b=DOPRI5.b * 2.0)
        with pytest.raises(SolverError, match="weights sum"):
            broken.validate()

    def test_error_weights_must_sum_to_zero(self):
        e = DOPRI5.e.copy()
        e[0] += 0.5
        broken = replace(DOPRI5, e=e)
        with pytest.raises(SolverError, match="error weights"):
            broken.validate()

    def test_upper_triangle_rejected(self):
        a = DOPRI5.a.copy()
        a[0, -1] = 0.25
        a[0, 0] = -0.25 + DOPRI5.a[0, 0]
        broken = replace(DOPRI5, a=a)
        with pytest.raises(SolverError, match="lower triangular"):
            broken.validate()
