"""Shared fixtures: bases, collision operators, and the kernel cache.

Expensive objects (kernel matrices, collision tensors) are cached on disk
under MVPB_CACHE (defaulting to a per-user temp directory) and shared
session-wide, so repeated runs only pay the assembly cost once.
"""

import os
import tempfile

import numpy as np
import pytest

from mvpb.collision import CollisionOperator
from mvpb.nonlinear import build_gamma
from mvpb.velocity import basis_pair

CACHE = os.environ.get(
    "MVPB_CACHE", os.path.join(tempfile.gettempdir(), "mvpb-cache"))
os.makedirs(CACHE, exist_ok=True)


@pytest.fixture(scope="session")
def cache_dir():
    return CACHE


@pytest.fixture(scope="session")
def bases16():
    return basis_pair(16, 8)


@pytest.fixture(scope="session")
def ops16(bases16):
    b0, b1 = bases16
    return (CollisionOperator(b0, cache_dir=CACHE),
            CollisionOperator(b1, cache_dir=CACHE))


@pytest.fixture(scope="session")
def gamma16(bases16):
    return build_gamma(bases16[0], cache_dir=CACHE)


@pytest.fixture(scope="session")
def bases24():
    return basis_pair(24, 12)


@pytest.fixture(scope="session")
def ops24(bases24):
    b0, b1 = bases24
    return (CollisionOperator(b0, cache_dir=CACHE),
            CollisionOperator(b1, cache_dir=CACHE))


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260826)
