"""Tests for the parallel executor's deadline partitioning
(:func:`repro.parallel.pool.partition_deadline`), which guarantees one
stuck subgoal can never consume its siblings' share of a ``--timeout``
budget."""

from hypothesis import given, strategies as st

from repro.parallel.pool import partition_deadline


class TestPartitionDeadline:
    def test_no_deadline_passes_through(self):
        assert partition_deadline(None, pending=10, workers=4) is None

    def test_exhausted_deadline_is_zero(self):
        assert partition_deadline(0.0, pending=10, workers=4) == 0.0
        assert partition_deadline(-1.0, pending=10, workers=4) == 0.0

    def test_nothing_pending_is_zero(self):
        assert partition_deadline(60.0, pending=0, workers=4) == 0.0

    def test_even_split_across_waves(self):
        # 8 subgoals over 4 workers = 2 waves; each task gets half
        # the remaining deadline.
        assert partition_deadline(60.0, pending=8, workers=4) == 30.0

    def test_single_wave_gets_everything(self):
        assert partition_deadline(60.0, pending=3, workers=4) == 60.0

    @given(remaining=st.floats(min_value=0.001, max_value=10_000),
           pending=st.integers(min_value=1, max_value=512),
           workers=st.integers(min_value=1, max_value=64))
    def test_slice_never_exceeds_remaining(self, remaining, pending,
                                           workers):
        piece = partition_deadline(remaining, pending, workers)
        assert 0.0 < piece <= remaining

    @given(remaining=st.floats(min_value=0.001, max_value=10_000),
           pending=st.integers(min_value=1, max_value=512),
           workers=st.integers(min_value=1, max_value=64))
    def test_no_task_starves_siblings(self, remaining, pending,
                                      workers):
        # The starvation guarantee: even if one task burns its whole
        # slice, the waves in aggregate still fit the run deadline
        # (slice * wave-count <= remaining, up to float rounding).
        piece = partition_deadline(remaining, pending, workers)
        waves = -(-pending // max(1, workers))  # ceil division
        assert piece * waves <= remaining * (1 + 1e-9)
