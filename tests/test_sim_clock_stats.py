"""Tests for picosecond units, clock domains and statistics primitives."""

import pytest

from repro.sim import (
    Accumulator,
    Clock,
    Counter,
    DAC_CLOCK,
    HOST_CLOCK,
    QCC_SRAM_CLOCK,
    StatGroup,
    ms,
    ns,
    to_ms,
    to_ns,
    to_us,
    us,
)


class TestTimeConversions:
    def test_ns_round_trip(self):
        assert to_ns(ns(12.5)) == pytest.approx(12.5)

    def test_us_round_trip(self):
        assert to_us(us(3.25)) == pytest.approx(3.25)

    def test_ms_round_trip(self):
        assert to_ms(ms(0.75)) == pytest.approx(0.75)

    def test_units_nest(self):
        assert us(1) == ns(1000)
        assert ms(1) == us(1000)


class TestClock:
    def test_host_clock_period(self):
        assert HOST_CLOCK.period_ps == 1000  # 1 GHz -> 1 ns

    def test_qcc_sram_clock_period(self):
        assert QCC_SRAM_CLOCK.period_ps == 5000  # 200 MHz -> 5 ns

    def test_dac_clock_period(self):
        assert DAC_CLOCK.period_ps == 500  # 2 GHz -> 0.5 ns

    def test_cycles_to_ps(self):
        assert HOST_CLOCK.cycles_to_ps(1000) == ns(1000)

    def test_next_edge_alignment(self):
        clock = Clock(200_000_000)
        assert clock.next_edge(0) == 0
        assert clock.next_edge(1) == 5000
        assert clock.next_edge(5000) == 5000
        assert clock.next_edge(5001) == 10000

    def test_rejects_nonpositive_frequency(self):
        with pytest.raises(ValueError):
            Clock(0)

    def test_rejects_negative_cycles(self):
        with pytest.raises(ValueError):
            HOST_CLOCK.cycles_to_ps(-1)


class TestCounter:
    def test_increment(self):
        counter = Counter("hits")
        counter.increment()
        counter.increment(4)
        assert counter.value == 5

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter("x").increment(-1)

    def test_rejects_bool(self):
        # bool subclasses int: increment(True) used to count as 1.
        counter = Counter("x")
        with pytest.raises(TypeError):
            counter.increment(True)
        with pytest.raises(TypeError):
            counter.increment(False)
        assert counter.value == 0

    def test_rejects_non_integral(self):
        for bad in (1.5, 1.0, "2", None):
            with pytest.raises(TypeError):
                Counter("x").increment(bad)

    def test_accepts_numpy_integers(self):
        import numpy as np

        counter = Counter("x")
        counter.increment(np.int64(3))
        assert counter.value == 3

    def test_reset(self):
        counter = Counter("x", value=3)
        counter.reset()
        assert counter.value == 0


class TestAccumulator:
    def test_mean_min_max(self):
        acc = Accumulator("depth")
        for value in (2.0, 4.0, 9.0):
            acc.observe(value)
        assert acc.mean == pytest.approx(5.0)
        assert acc.minimum == 2.0
        assert acc.maximum == 9.0
        assert acc.count == 3

    def test_empty_mean_is_zero(self):
        assert Accumulator("x").mean == 0.0

    def test_rejects_non_finite(self):
        # One NaN would poison total/mean forever; inf pins min/max.
        acc = Accumulator("x")
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError):
                acc.observe(bad)
        assert acc.count == 0


class TestStatGroup:
    def test_get_or_create_identity(self):
        group = StatGroup("cache")
        assert group.counter("hits") is group.counter("hits")

    def test_as_dict_namespacing(self):
        group = StatGroup("l1")
        group.counter("hits").increment(3)
        group.accumulator("lat").observe(10.0)
        flat = group.as_dict()
        assert flat["l1.hits"] == 3
        assert flat["l1.lat.mean"] == 10.0
