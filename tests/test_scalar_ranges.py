"""The one range rule for scalar parameters, ``errors.require_positive`` and
``errors.require_nonnegative``, at each of the twelve sites that call it:
every value is accepted or rejected, with the same message, as the check that
site wrote itself (``oracles.OLD_SCALAR_CHECKS``), and an int too large for a
float is rejected everywhere."""

import math
import sys

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from oracles import OLD_SCALAR_CHECKS
from glovekit.calibration import ForceFeedbackMap
from glovekit.controlsim import Gains, PlantParams, simulate_tracking
from glovekit.emulator import EmulatorConfig
from glovekit.errors import GlovekitError
from glovekit.model import BasisConfig, Demonstration, TrajectoryModel

# each site, called with the value under test and valid values elsewhere
SITES = {
    "Gains.kp": lambda x: Gains(kp=x),
    "Gains.kd": lambda x: Gains(kd=x),
    "PlantParams.m": lambda x: PlantParams(m=x),
    "PlantParams.b": lambda x: PlantParams(b=x),
    "PlantParams.torque_limit": lambda x: PlantParams(torque_limit=x),
    "simulate_tracking.rate": lambda x: simulate_tracking(np.zeros((1, 1)), rate=x),
    "ForceFeedbackMap.f_max": lambda x: ForceFeedbackMap(f_max=x),
    "BasisConfig.lam": lambda x: BasisConfig(lam=x),
    "TrajectoryModel.eps_reg": lambda x: TrajectoryModel(BasisConfig(K=1), np.zeros((1, 1)),
                                                         np.ones((1, 1, 1)), np.ones(1),
                                                         eps_reg=x),
    "EmulatorConfig.rate": lambda x: EmulatorConfig(rate=x),
    "EmulatorConfig.noise_std": lambda x: EmulatorConfig(noise_std=x),
    "Demonstration.dt": lambda x: Demonstration(np.zeros((2, 1)), x),
}

EDGES = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, sys.float_info.min,
         sys.float_info.max, -sys.float_info.max, 1.0, -1.0]


def test_every_site_has_its_old_check():
    assert sorted(SITES) == sorted(OLD_SCALAR_CHECKS)


def with_edges(test):
    for x in EDGES:
        test = example(value=x)(example(value=np.float64(x))(test))
    return test


@pytest.mark.parametrize("site", sorted(SITES))
@given(value=st.tuples(st.floats(), st.booleans()).map(
    lambda drawn: np.float64(drawn[0]) if drawn[1] else drawn[0]))
@with_edges
def test_site_keeps_its_old_answer_and_message(site, value):
    predicate, message = OLD_SCALAR_CHECKS[site]
    if predicate(value):
        # an accepted subnormal rate overflows 1 / rate later, which is not the check's
        with np.errstate(all="ignore"):
            SITES[site](value)
    else:
        with pytest.raises(GlovekitError) as info:
            SITES[site](value)
        assert str(info.value) == message.format(value)


@pytest.mark.parametrize("site", sorted(SITES))
def test_int_too_large_for_a_float_is_rejected(site):
    """The three old spellings differed here: ``0 < x < np.inf`` took 10**400,
    ``math.isfinite`` raised OverflowError."""
    with pytest.raises(GlovekitError) as info:
        SITES[site](10**400)
    assert str(info.value) == OLD_SCALAR_CHECKS[site][1].format(10**400)
