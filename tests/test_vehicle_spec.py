"""Tests for vehicle specs and the VehicleInfo packet."""

import math

import pytest

from repro.geometry import Approach, Movement, Turn
from repro.vehicle import VehicleInfo, VehicleSpec


class TestVehicleSpec:
    def test_testbed_defaults(self):
        spec = VehicleSpec()
        assert spec.length == pytest.approx(0.568)
        assert spec.width == pytest.approx(0.296)
        assert spec.v_max == pytest.approx(3.0)

    def test_with_limits(self):
        spec = VehicleSpec().with_limits(v_max=2.0)
        assert spec.v_max == 2.0
        assert spec.length == pytest.approx(0.568)

    def test_frozen(self):
        with pytest.raises(Exception):
            VehicleSpec().length = 1.0

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            VehicleSpec(length=0.0)
        with pytest.raises(ValueError):
            VehicleSpec(v_max=-1.0)
        with pytest.raises(ValueError):
            VehicleSpec(wheelbase=1.0, length=0.5)

    def test_non_finite_rejected(self):
        """NaN passes every ``<= 0`` check, so it needs its own."""
        with pytest.raises(ValueError):
            VehicleSpec(width=math.nan)
        with pytest.raises(ValueError):
            VehicleSpec(v_max=math.inf)


class TestVehicleInfo:
    def make(self, buffer=0.078):
        return VehicleInfo(
            vehicle_id=3,
            spec=VehicleSpec(),
            movement=Movement(Approach.SOUTH, Turn.STRAIGHT),
            buffer=buffer,
        )

    def test_effective_length(self):
        info = self.make(buffer=0.078)
        assert info.effective_length == pytest.approx(0.568 + 2 * 0.078)

    def test_effective_length_with_extra(self):
        info = self.make(buffer=0.078)
        assert info.effective_length_with(0.45) == pytest.approx(
            0.568 + 2 * (0.078 + 0.45)
        )

    def test_negative_buffer_rejected(self):
        with pytest.raises(ValueError):
            self.make(buffer=-0.01)

    def test_non_finite_buffer_rejected(self):
        with pytest.raises(ValueError):
            self.make(buffer=math.nan)
        with pytest.raises(ValueError):
            self.make(buffer=math.inf)

    def test_negative_id_rejected(self):
        with pytest.raises(ValueError):
            VehicleInfo(
                vehicle_id=-1,
                spec=VehicleSpec(),
                movement=Movement(Approach.SOUTH, Turn.STRAIGHT),
            )
