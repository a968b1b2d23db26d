"""Seeded full-jitter write retries against a held ``BEGIN IMMEDIATE``.

Contract (ISSUE 10): a locked store is retried a bounded number of
times with full-jitter backoff before :class:`StoreLockedError`
propagates, and every backoff delay is deterministic given
``retry_seed``.  The lock is held by a second raw sqlite connection so
the contention is real, and the store's ``_sleep`` injection point both
records the drawn delays and (in the recovery test) releases the lock
between attempts — no test actually sleeps.
"""

from __future__ import annotations

import sqlite3

import pytest

from repro.errors import StoreLockedError
from repro.store import SummaryStore

#: Milliseconds one attempt blocks before sqlite gives up: tiny, so the
#: exhaustion tests finish in milliseconds rather than 4x5 seconds.
FAST_TIMEOUT_MS = 5
BASE_S = 0.001


def _open_fast(store_path, **kwargs):
    kwargs.setdefault("busy_timeout_ms", FAST_TIMEOUT_MS)
    kwargs.setdefault("retry_base_s", BASE_S)
    return SummaryStore.open(store_path, **kwargs)


@pytest.fixture
def blocker(store_path):
    """A second connection holding the write lock for the whole test."""
    SummaryStore.create(store_path).close()
    conn = sqlite3.connect(store_path, isolation_level=None)
    conn.execute("BEGIN IMMEDIATE")
    yield conn
    conn.close()


def _record_sleeps(store):
    sleeps = []
    store._sleep = sleeps.append
    return sleeps


class TestHeldLock:
    def test_exhausted_retries_raise_typed(self, store_path, blocker):
        with _open_fast(store_path, retry_attempts=2) as st:
            sleeps = _record_sleeps(st)
            with pytest.raises(
                StoreLockedError, match=r"after 3 attempt\(s\)"
            ):
                st.put("estimate", "('k',)", b"1.5")
        # One backoff before each retry, none after the final failure,
        # each drawn from the widening full-jitter window [0, base*2^n).
        assert len(sleeps) == 2
        for attempt, delay in enumerate(sleeps):
            assert 0.0 <= delay < BASE_S * (2.0 ** attempt)

    def test_zero_attempts_fail_on_first_lock(self, store_path, blocker):
        with _open_fast(store_path, retry_attempts=0) as st:
            sleeps = _record_sleeps(st)
            with pytest.raises(
                StoreLockedError, match=r"after 1 attempt\(s\)"
            ):
                st.put("estimate", "('k',)", b"1.5")
        assert sleeps == []

    def test_error_does_not_poison_the_store(self, store_path, blocker):
        with _open_fast(store_path, retry_attempts=0) as st:
            with pytest.raises(StoreLockedError):
                st.put("estimate", "('k',)", b"1.5")
            blocker.execute("ROLLBACK")
            st.put("estimate", "('k',)", b"1.5")
            assert st.get("estimate", "('k',)") == b"1.5"

    def test_lock_released_mid_backoff_recovers(self, store_path, blocker):
        with _open_fast(store_path, retry_attempts=3) as st:
            released = []

            def release(_delay):
                blocker.execute("ROLLBACK")
                released.append(_delay)

            st._sleep = release
            st.put("estimate", "('k',)", b"2.5")
            assert st.get("estimate", "('k',)") == b"2.5"
        # Exactly one backoff: the first retry found the lock gone.
        assert len(released) == 1


class TestBatch:
    def _rows(self, store_path):
        with SummaryStore.open(store_path) as st:
            return st.counts()

    def test_batch_commits_once(self, store_path):
        commits = []
        with SummaryStore.create(store_path) as st:
            st._conn.set_trace_callback(
                lambda sql: commits.append(sql) if sql == "COMMIT" else None
            )
            with st.batch():
                st.put("estimate", "('a',)", b"1.5")
                st.put("estimate", "('b',)", b"2.5")
                with st.batch():  # a nested batch joins the outer one
                    st.put("machine_time", "('c',)", b"3.5")
                assert commits == []
                # Puts are not visible until the block exits.
                assert st.get("estimate", "('a',)") is None
            assert commits == ["COMMIT"]
            assert st.get("estimate", "('b',)") == b"2.5"
        assert self._rows(store_path) == {"estimate": 2, "machine_time": 1}

    def test_raising_block_writes_nothing(self, store_path):
        with SummaryStore.create(store_path) as st:
            with pytest.raises(RuntimeError, match="mid-batch"):
                with st.batch():
                    st.put("estimate", "('a',)", b"1.5")
                    raise RuntimeError("mid-batch")
            assert st.counts() == {}
            # The store is usable, and unbatched again, afterwards.
            st.put("estimate", "('a',)", b"1.5")
            assert st.counts() == {"estimate": 1}

    def test_exhausted_batch_writes_nothing(self, store_path, blocker):
        with _open_fast(store_path, retry_attempts=1) as st:
            sleeps = _record_sleeps(st)
            with pytest.raises(
                StoreLockedError, match=r"after 2 attempt\(s\)"
            ):
                with st.batch():
                    st.put("estimate", "('a',)", b"1.5")
                    st.put("estimate", "('b',)", b"2.5")
        # One budget for the whole batch, not one per put.
        assert len(sleeps) == 1
        blocker.execute("ROLLBACK")
        assert self._rows(store_path) == {}

    def test_batch_retried_whole_after_lock_release(
        self, store_path, blocker
    ):
        with _open_fast(store_path, retry_attempts=3) as st:
            released = []

            def release(delay):
                blocker.execute("ROLLBACK")
                released.append(delay)

            st._sleep = release
            with st.batch():
                st.put("estimate", "('a',)", b"1.5")
                st.put("estimate", "('b',)", b"2.5")
            assert st.counts() == {"estimate": 2}
        assert len(released) == 1


class TestDeterministicBackoff:
    def _exhaust(self, store_path, seed):
        with _open_fast(
            store_path, retry_attempts=3, retry_seed=seed
        ) as st:
            sleeps = _record_sleeps(st)
            with pytest.raises(StoreLockedError):
                st.put("estimate", "('k',)", b"1.5")
        return sleeps

    def test_same_seed_same_delays(self, store_path, blocker):
        assert self._exhaust(store_path, seed=7) == self._exhaust(
            store_path, seed=7
        )

    def test_different_seed_different_delays(self, store_path, blocker):
        assert self._exhaust(store_path, seed=7) != self._exhaust(
            store_path, seed=8
        )


class _RollsBackOnFirstInsert:
    """A connection whose first INSERT fails the way sqlite fails a
    statement after rolling the whole transaction back itself."""

    def __init__(self, conn):
        self._conn = conn
        self.failed = False

    @property
    def in_transaction(self):
        return self._conn.in_transaction

    def execute(self, sql, params=()):
        if sql.startswith("INSERT") and not self.failed:
            self.failed = True
            self._conn.execute("ROLLBACK")
            raise sqlite3.OperationalError("database is locked")
        return self._conn.execute(sql, params)

    def close(self):
        self._conn.close()


class TestTransactionAlreadyRolledBack:
    def test_lock_error_is_retried_not_masked(self, store_path):
        SummaryStore.create(store_path).close()
        with _open_fast(store_path, retry_attempts=1) as st:
            sleeps = _record_sleeps(st)
            st._conn = _RollsBackOnFirstInsert(st._conn)
            st.put("estimate", "('k',)", b"1.5")
            assert st._conn.failed
            assert len(sleeps) == 1
            assert st.get("estimate", "('k',)") == b"1.5"
