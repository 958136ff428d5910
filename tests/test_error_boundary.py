"""The single-exception-type contract at the API boundary.

Every library-raised error derives from :class:`repro.errors.ReproError`,
so callers can wrap any entry point in one ``except ReproError`` clause.
"""

import numpy as np
import pytest

from repro.errors import (
    CalibrationError,
    DeviceError,
    MappingError,
    ParameterError,
    ReproError,
    ScheduleError,
    ShapeError,
)


class TestHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [ShapeError, ParameterError, MappingError, ScheduleError, DeviceError, CalibrationError],
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)

    def test_value_errors_also_catchable_as_valueerror(self):
        assert issubclass(ShapeError, ValueError)
        assert issubclass(ParameterError, ValueError)


class TestBoundaryCatches:
    def test_bad_spec_caught_as_repro_error(self):
        from repro.deconv.shapes import DeconvSpec

        with pytest.raises(ReproError):
            DeconvSpec(0, 4, 1, 3, 3, 1, stride=1)

    def test_bad_operands_caught_as_repro_error(self):
        from repro.core.red_design import REDDesign
        from repro.deconv.shapes import DeconvSpec

        spec = DeconvSpec(2, 2, 2, 2, 2, 2, stride=2)
        with pytest.raises(ReproError):
            REDDesign(spec).run_functional(np.zeros((1, 1, 1)), np.zeros(spec.kernel_shape))

    def test_bad_device_caught_as_repro_error(self):
        from repro.reram.device import ReRAMDeviceParams

        with pytest.raises(ReproError):
            ReRAMDeviceParams(r_on=1e7, r_off=1e3)

    def test_bad_schedule_caught_as_repro_error(self):
        from repro.core.dataflow import red_cycle_count
        from repro.deconv.shapes import DeconvSpec

        with pytest.raises(ReproError):
            red_cycle_count(DeconvSpec(2, 2, 2, 2, 2, 2, stride=2), fold=0)
