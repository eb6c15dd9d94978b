"""Small choice models used to exercise the generic dual machinery."""

import numpy as np

from dualbid.mmkp import ChoiceModel


class FixedChoiceModel(ChoiceModel):
    """Classic single-option pairs: constant gain V and consumption W per (i, j)."""

    def __init__(self, gains, consumptions, budgets):
        self._v = np.asarray(gains, dtype=float)
        self._w = np.asarray(consumptions, dtype=float)
        self._b = np.asarray(budgets, dtype=float)
        assert self._w.shape == (*self._v.shape, self._b.size)

    @property
    def n_items(self):
        return self._v.shape[0]

    @property
    def budgets(self):
        return self._b

    def item_best(self, i, alpha):
        return self._v[i].copy(), self._v[i] - self._w[i] @ np.asarray(alpha, dtype=float)

    def gain(self, i, j, sub_choice):
        return float(self._v[i, j])

    def consumption(self, i, j, sub_choice):
        return self._w[i, j].copy()


class QuadraticToyModel(ChoiceModel):
    """Continuous sub-choice V in [0, vmax] with convex consumption c_k * V^2."""

    def __init__(self, vmax, curvature, budgets):
        self._vmax = np.asarray(vmax, dtype=float)
        self._c = np.asarray(curvature, dtype=float)
        self._b = np.asarray(budgets, dtype=float)
        assert self._c.shape == (*self._vmax.shape, self._b.size)

    @property
    def n_items(self):
        return self._vmax.shape[0]

    @property
    def budgets(self):
        return self._b

    def item_best(self, i, alpha):
        load = self._c[i] @ np.asarray(alpha, dtype=float)  # (M,)
        with np.errstate(divide="ignore"):
            interior = np.where(load > 0.0, 1.0 / (2.0 * load), np.inf)
        v = np.minimum(interior, self._vmax[i])
        return v, v - load * v * v

    def gain(self, i, j, sub_choice):
        return float(sub_choice)

    def consumption(self, i, j, sub_choice):
        return self._c[i, j] * sub_choice * sub_choice


class RunawayModel(ChoiceModel):
    """Inconsistent model whose reported scores grow with alpha.

    Its consumption claims push alpha up while beta keeps rising, so the dual
    value explodes; used to exercise the divergence guard.
    """

    def __init__(self, weight=1e3):
        self._w = weight

    @property
    def n_items(self):
        return 1

    @property
    def budgets(self):
        return np.zeros(1)

    def item_best(self, i, alpha):
        return np.asarray([1.0]), np.asarray([1.0 + self._w * float(alpha[0])])

    def gain(self, i, j, sub_choice):
        return 1.0

    def consumption(self, i, j, sub_choice):
        return np.asarray([self._w])
