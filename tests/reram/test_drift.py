"""Tests for the retention-drift model."""

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.reram.device import ReRAMDeviceParams
from repro.reram.drift import DriftModel


class TestDriftModel:
    def test_no_drift_at_reference_time(self, rng):
        device = ReRAMDeviceParams()
        g0 = rng.uniform(device.g_min, device.g_max, size=(8, 8))
        model = DriftModel(nu=0.05)
        np.testing.assert_array_equal(model.conductance_at(g0, 1.0, device), g0)

    def test_conductance_decays_toward_hrs(self, rng):
        device = ReRAMDeviceParams()
        g0 = np.full((4, 4), device.g_max)
        model = DriftModel(nu=0.05)
        g_later = model.conductance_at(g0, 1e6, device)
        assert (g_later < g0).all()
        assert (g_later >= device.g_min).all()

    def test_hrs_cells_do_not_drift(self):
        device = ReRAMDeviceParams()
        g0 = np.full((2, 2), device.g_min)
        drifted = DriftModel(nu=0.1).conductance_at(g0, 1e7, device)
        np.testing.assert_allclose(drifted, g0)

    def test_monotone_in_time(self, rng):
        device = ReRAMDeviceParams()
        g0 = np.full((4,), device.g_max)
        model = DriftModel(nu=0.03)
        values = [model.conductance_at(g0, t, device)[0] for t in (1.0, 1e3, 1e6)]
        assert values[0] >= values[1] >= values[2]

    def test_zero_nu_is_stable(self, rng):
        device = ReRAMDeviceParams()
        g0 = rng.uniform(device.g_min, device.g_max, size=(4,))
        np.testing.assert_allclose(
            DriftModel(nu=0.0).conductance_at(g0, 1e9, device), g0
        )

    def test_negative_nu_rejected(self):
        with pytest.raises(ParameterError):
            DriftModel(nu=-0.1)

