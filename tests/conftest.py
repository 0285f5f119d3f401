"""Fixtures shared by the test modules: the cache the C kernels are built
into, and forgetting the kernels a test loaded."""

from __future__ import annotations

import pytest

from polarimeter import _native


def forget_kernels():
    """Clear both cached kernels, so the next call builds or loads again."""
    _native.louvain_kernel.cache_clear()
    _native.archive_kernel.cache_clear()


@pytest.fixture(scope="module")
def kernel_cache(tmp_path_factory):
    """A cache directory the kernels are built into, in use for this module."""
    cache = tmp_path_factory.mktemp("cache")
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("XDG_CACHE_HOME", str(cache))
        forget_kernels()
        yield cache
    forget_kernels()


@pytest.fixture
def forget_kernel_after():
    """Forget the kernels this test loads (or fails to) when it ends."""
    yield
    forget_kernels()
