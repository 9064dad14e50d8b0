"""Every case's traced memory peak, beside its timings.

The ``benchmark`` fixture here is pytest-benchmark's, whose calls also run
the benchmarked function once more after the timed rounds, under
``tracemalloc``. The peak of that call, in bytes, goes into the case's
``extra_info`` as ``tracemalloc_peak_bytes``, so no timed round runs traced.
"""

import tracemalloc

import pytest
from pytest_benchmark.fixture import BenchmarkFixture


class _TracedPeak(BenchmarkFixture):
    """pytest-benchmark's fixture, whose calls also record a traced peak."""

    def __call__(self, function, *args, **kwargs):
        result = super().__call__(function, *args, **kwargs)
        self._trace(function, args, kwargs)
        return result

    def pedantic(self, target, args=(), kwargs=None, **options):
        result = super().pedantic(target, args=args, kwargs=kwargs, **options)
        self._trace(target, args, kwargs or {})
        return result

    def _trace(self, function, args, kwargs) -> None:
        tracemalloc.start()
        try:
            function(*args, **kwargs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        self.extra_info["tracemalloc_peak_bytes"] = peak


@pytest.fixture
def benchmark(benchmark):
    # pytest-benchmark accepts only a BenchmarkFixture in this place.
    benchmark.__class__ = _TracedPeak
    return benchmark
