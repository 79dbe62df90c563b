import pytest

from sfdalab import numerics


@pytest.fixture
def blas_threads():
    """The loaded OpenBLAS's thread-count getter, with the count set to 2
    for the test and put back after it; skips without an OpenBLAS."""
    api = numerics._openblas()
    if api is None:
        pytest.skip("no OpenBLAS loaded")
    get, set_ = api
    before = get()
    set_(2)
    yield get
    set_(before)
