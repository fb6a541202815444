"""Shared fixtures: bases, collision operators, and the kernel cache.

Expensive objects (kernel matrices, collision tensors) are cached on disk
under MVPB_CACHE and shared session-wide, so repeated runs only pay the
assembly cost once.  Without MVPB_CACHE the directory is a temp directory
named by a digest of the sources that build those objects, so a change
to how a kernel or Gamma is built is tested against a fresh build, not
against a file an older build wrote under the same tag.  The other
digests' directories there are removed once a day has passed since they
last changed.
"""

import hashlib
import os
import re
import shutil
import tempfile
import threading
import time

import numpy as np
import pytest

from mvpb import collision, nonlinear
from mvpb.collision import CollisionOperator
from mvpb.nonlinear import build_gamma
from mvpb.velocity import basis_pair


def _build_source_digest():
    """Short digest of the collision and nonlinear module sources."""
    h = hashlib.sha256()
    for module in (collision, nonlinear):
        with open(module.__file__, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:12]


def session_cache(tmpdir):
    """MVPB_CACHE if set, else <tmpdir>/mvpb-cache-<source digest>.

    In the second case every other <tmpdir>/mvpb-cache-<12 hex> directory
    last modified more than a day ago is removed first.
    """
    if os.environ.get("MVPB_CACHE"):
        return os.environ["MVPB_CACHE"]
    keep = os.path.join(tmpdir, "mvpb-cache-" + _build_source_digest())
    stale = time.time() - 86400.0
    with os.scandir(tmpdir) as entries:
        for entry in entries:
            if (re.fullmatch("mvpb-cache-[0-9a-f]{12}", entry.name)
                    and entry.path != keep
                    and entry.is_dir(follow_symlinks=False)
                    and entry.stat(follow_symlinks=False).st_mtime < stale):
                # another session may be removing it too
                shutil.rmtree(entry.path, ignore_errors=True)
    return keep


CACHE = session_cache(tempfile.gettempdir())
os.makedirs(CACHE, exist_ok=True)


@pytest.fixture(autouse=True)
def no_leaked_threads():
    """Fail a test that ends with more Python threads alive than it started
    with: every worker pool (branch eigensolves, Gamma build, Gamma apply,
    kinetic-wave blocks) must be shut down before its call returns."""
    before = threading.active_count()
    yield
    alive = threading.enumerate()
    assert len(alive) <= before, (
        "threads alive after the test: " + ", ".join(t.name for t in alive))


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
