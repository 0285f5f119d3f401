"""Fixtures shared by the test modules: the cache the C kernels' library is
built into, and forgetting the library a test loaded."""

from __future__ import annotations

import pytest

from polarimeter import _native


def forget_kernels():
    """Clear the cached library, so the next kernel call builds or loads it
    again."""
    _native._kernels.cache_clear()


@pytest.fixture(scope="module")
def kernel_cache(tmp_path_factory):
    """A cache directory the library is built into, in use for this module."""
    cache = tmp_path_factory.mktemp("cache")
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("XDG_CACHE_HOME", str(cache))
        forget_kernels()
        yield cache
    forget_kernels()


@pytest.fixture
def forget_kernel_after():
    """Forget the library this test loads (or fails to) when it ends."""
    yield
    forget_kernels()
