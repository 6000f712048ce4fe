import functools

import pytest

from glt_stokes import precond


@pytest.fixture
def fresh_pool(monkeypatch):
    """A pool of this test's own.  The package's pool takes its size from
    `workers()` at first use, so a test that sets a worker count needs its
    own pool to run on that many threads."""
    pool = functools.cache(precond._pool.__wrapped__)
    monkeypatch.setattr(precond, "_pool", pool)
    yield
    if pool.cache_info().currsize:
        pool().shutdown()
