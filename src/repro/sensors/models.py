"""Sensor noise models: quadrature encoder, GPS, IMU heading.

Ch 3.1: "An IM design must take into account the error propagated from
GPS, encoder, etc.  An encoder error would affect the vehicle
longitudinally, whereas GPS error would affect a vehicle both laterally
and longitudinally."

Numbers default to the testbed hardware class: a quadrature encoder on
the Traxxas motor (per-revolution quantisation plus slip noise), a
consumer GPS (metre-class, irrelevant indoors but modelled for the
general API), and the Bosch BNO055 IMU used for steering feedback.

Every model draws through ``rng.normal(loc, scale)``, so it takes a
numpy ``Generator`` or a :class:`NormalStream` over one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

import numpy as np

__all__ = ["EncoderModel", "GpsModel", "ImuModel", "NormalStream", "normal_stream"]

#: Standard normals a :class:`NormalStream` draws per refill.
_BLOCK = 64


class NormalStream:
    """Scalar normal draws from one generator, prefetched in blocks.

    ``normal(loc, scale)`` returns what ``rng.normal(loc, scale)``
    would, bit for bit: numpy computes a scalar normal as
    ``loc + scale * z`` from the generator's next standard normal
    ``z``, and ``rng.standard_normal(n)`` is the same ``n`` draws in
    the same order.  A draw costs about a fifth of a numpy scalar
    call.

    The first block is drawn at the first ``normal`` call, not here:
    building a stream leaves the generator untouched, so code that
    draws from the generator after building a consumer (a vehicle
    seeds its protocol RNG after its plant) sees the same state.

    One generator, one stream: every consumer of a generator's normals
    must share its stream, because a second stream would draw its
    block after the first one's and reorder the values.
    """

    __slots__ = ("rng", "_block")

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        #: Prefetched standard normals, next draw last.
        self._block: List[float] = []

    def normal(self, loc: float = 0.0, scale: float = 1.0) -> float:
        """One normal draw, as ``rng.normal(loc, scale)``."""
        block = self._block
        if not block:
            block = self._block = self.rng.standard_normal(_BLOCK)[::-1].tolist()
        return loc + scale * block.pop()


def _require_rng(rng: Optional[np.random.Generator]) -> np.random.Generator:
    return rng if rng is not None else np.random.default_rng()


def normal_stream(
    rng: Union[np.random.Generator, NormalStream, None],
) -> NormalStream:
    """The stream to draw ``rng``'s normals through: ``rng`` itself if
    it is one, else a new stream over the generator (a fresh one for
    ``None``)."""
    if isinstance(rng, NormalStream):
        return rng
    return NormalStream(_require_rng(rng))


@dataclass
class EncoderModel:
    """Quadrature wheel encoder measuring longitudinal velocity.

    Parameters
    ----------
    counts_per_metre:
        Encoder resolution after gearing; velocity is quantised to one
        count per sample interval.
    sample_interval:
        Measurement window, seconds.
    slip_noise_std:
        Multiplicative wheel-slip noise (fraction of true speed).
    """

    counts_per_metre: float = 2500.0
    sample_interval: float = 0.02
    slip_noise_std: float = 0.01

    def __post_init__(self):
        if self.counts_per_metre <= 0:
            raise ValueError("counts_per_metre must be positive")
        if self.sample_interval <= 0:
            raise ValueError("sample_interval must be positive")
        if self.slip_noise_std < 0:
            raise ValueError("slip_noise_std must be non-negative")

    @property
    def velocity_resolution(self) -> float:
        """Smallest nonzero speed distinguishable in one sample window."""
        return 1.0 / (self.counts_per_metre * self.sample_interval)

    def measure(
        self,
        true_velocity: float,
        rng: Union[np.random.Generator, NormalStream, None] = None,
    ) -> float:
        """One noisy, quantised velocity measurement."""
        rng = _require_rng(rng)
        slipped = true_velocity * (1.0 + rng.normal(0.0, self.slip_noise_std))
        counts = round(abs(slipped) * self.counts_per_metre * self.sample_interval)
        speed = counts / (self.counts_per_metre * self.sample_interval)
        return math.copysign(speed, slipped) if slipped else 0.0


@dataclass
class GpsModel:
    """Position fix with independent lateral/longitudinal gaussian error."""

    sigma_long: float = 0.02
    sigma_lat: float = 0.02

    def __post_init__(self):
        if self.sigma_long < 0 or self.sigma_lat < 0:
            raise ValueError("sigmas must be non-negative")

    def measure(
        self,
        true_long: float,
        true_lat: float,
        rng: Optional[np.random.Generator] = None,
    ) -> Tuple[float, float]:
        """One (longitudinal, lateral) position fix."""
        rng = _require_rng(rng)
        return (
            float(true_long + rng.normal(0.0, self.sigma_long)),
            float(true_lat + rng.normal(0.0, self.sigma_lat)),
        )


@dataclass
class ImuModel:
    """Fused IMU heading (BNO055-class): bias plus gaussian noise."""

    bias: float = 0.0
    sigma: float = 0.01

    def __post_init__(self):
        if self.sigma < 0:
            raise ValueError("sigma must be non-negative")

    def measure(self, true_heading: float, rng: Optional[np.random.Generator] = None) -> float:
        """One heading measurement, radians."""
        rng = _require_rng(rng)
        return float(true_heading + self.bias + rng.normal(0.0, self.sigma))
