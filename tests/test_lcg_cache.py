"""Tests for the bounded shared LCG tile cache."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.lcg.cache import TileCache, clear_tile_cache, tile_cache
from repro.lcg.matrix import HplAiMatrix


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_tile_cache()
    yield
    clear_tile_cache()


class TestTileCacheMechanics:
    def test_put_get_roundtrip(self):
        c = TileCache(max_bytes=1 << 20)
        key = (8, 1, 2, 3, 0, 4, 0, 8)
        a = np.arange(32.0).reshape(4, 8)
        c.put(key, a)
        got = c.get(key)
        np.testing.assert_array_equal(got, a)
        assert not got.flags.writeable  # stored entries are frozen

    def test_miss_returns_none_and_counts(self):
        c = TileCache()
        assert c.get((1, 2, 3, 4, 0, 1, 0, 1)) is None
        assert c.stats()["misses"] == 1

    def test_byte_budget_enforced_lru(self):
        row = np.zeros((1, 128))  # 1 KiB each
        c = TileCache(max_bytes=4 * row.nbytes)
        keys = [(i, 0, 0, 0, 0, 1, 0, 128) for i in range(6)]
        for k in keys:
            c.put(k, row)
        assert c.total_bytes <= c.max_bytes
        assert len(c) == 4
        # Oldest two were evicted, newest four retained.
        assert c.get(keys[0]) is None and c.get(keys[1]) is None
        assert c.get(keys[5]) is not None
        assert c.stats()["evictions"] == 2

    def test_get_refreshes_lru_order(self):
        row = np.zeros((1, 128))
        c = TileCache(max_bytes=2 * row.nbytes)
        k1, k2, k3 = [(i, 0, 0, 0, 0, 1, 0, 128) for i in range(3)]
        c.put(k1, row)
        c.put(k2, row)
        c.get(k1)  # refresh: k2 becomes the eviction victim
        c.put(k3, row)
        assert c.get(k1) is not None
        assert c.get(k2) is None

    def test_oversized_entry_skipped(self):
        c = TileCache(max_bytes=64)
        c.put((0,) * 8, np.zeros(1024))
        assert len(c) == 0

    def test_zero_budget_disables_retention(self):
        c = TileCache(max_bytes=0)
        c.put((0,) * 8, np.zeros(4))
        assert len(c) == 0 and c.total_bytes == 0

    def test_negative_budget_rejected(self):
        with pytest.raises(ConfigurationError):
            TileCache(max_bytes=-1)
        with pytest.raises(ConfigurationError):
            TileCache().resize(-5)

    def test_resize_shrink_evicts(self):
        row = np.zeros((1, 128))
        c = TileCache(max_bytes=4 * row.nbytes)
        for i in range(4):
            c.put((i, 0, 0, 0, 0, 1, 0, 128), row)
        c.resize(2 * row.nbytes)
        assert len(c) == 2 and c.total_bytes <= c.max_bytes


class TestMatrixCacheIntegration:
    def test_cached_blocks_bitwise_identical(self):
        m_cached = HplAiMatrix(64, 7)
        m_direct = HplAiMatrix(64, 7, use_cache=False)
        cold = m_cached.block(0, 16, 0, 64)   # populates
        warm = m_cached.block(0, 16, 0, 64)   # hits
        direct = m_direct.block(0, 16, 0, 64)
        np.testing.assert_array_equal(cold, direct)
        np.testing.assert_array_equal(warm, direct)
        assert tile_cache().stats()["hits"] >= 1

    def test_shared_across_instances(self):
        HplAiMatrix(64, 7).block(0, 16, 0, 64)
        before = tile_cache().stats()["hits"]
        HplAiMatrix(64, 7).block(0, 16, 0, 64)  # same matrix, new object
        assert tile_cache().stats()["hits"] == before + 1

    def test_distinct_matrices_do_not_collide(self):
        a = HplAiMatrix(64, 7).block(0, 8, 0, 64)
        b = HplAiMatrix(64, 8).block(0, 8, 0, 64)  # different seed
        assert not np.array_equal(a, b)

    def test_returned_arrays_are_private_copies(self):
        m = HplAiMatrix(64, 7)
        first = m.block(0, 8, 0, 64)
        first[0, 0] = 1e9  # caller scribbles on its copy
        again = m.block(0, 8, 0, 64)
        assert again[0, 0] != 1e9
        assert again.flags.writeable

    def test_non_fp64_request_from_cache(self):
        m = HplAiMatrix(64, 7)
        ref = m.block(0, 8, 0, 64).astype(np.float32)
        m.block(0, 8, 0, 64)  # ensure cached
        np.testing.assert_array_equal(
            m.block(0, 8, 0, 64, dtype=np.float32), ref
        )

    def test_use_cache_false_bypasses(self):
        m = HplAiMatrix(64, 7, use_cache=False)
        m.block(0, 8, 0, 64)
        m.block(0, 8, 0, 64)
        s = tile_cache().stats()
        assert s["entries"] == 0 and s["hits"] == 0 and s["misses"] == 0

    def test_bounded_memory_under_sweep(self):
        """A band sweep far larger than the budget stays within it."""
        from repro.lcg.cache import configure_tile_cache

        band_bytes = 8 * 64 * 8  # one 8x64 FP64 band
        configure_tile_cache(3 * band_bytes)
        try:
            m = HplAiMatrix(64, 7)
            for g in range(8):
                m.block(g * 8, (g + 1) * 8, 0, 64)
            s = tile_cache().stats()
            assert s["bytes"] <= s["max_bytes"]
            assert s["evictions"] >= 5
            # Evicted bands regenerate identically.
            np.testing.assert_array_equal(
                m.block(0, 8, 0, 64),
                HplAiMatrix(64, 7, use_cache=False).block(0, 8, 0, 64),
            )
        finally:
            from repro.lcg.cache import DEFAULT_MAX_BYTES

            configure_tile_cache(DEFAULT_MAX_BYTES)


class TestBandReader:
    """``band()`` reads the cached array in place; ``block()`` copies."""

    def test_second_call_returns_the_same_array(self):
        m = HplAiMatrix(64, 7)
        first = m.band(0, 8)
        assert m.band(0, 8) is first
        assert HplAiMatrix(64, 7).band(0, 8) is first  # shared by value

    def test_writes_are_refused(self):
        m = HplAiMatrix(64, 7)
        for band in (m.band(8, 16), m.band(8, 16)):  # miss, then hit
            with pytest.raises(ValueError):
                band[0, 0] = 1e9

    def test_bitwise_equal_to_block(self):
        m = HplAiMatrix(64, 7)
        band = m.band(16, 24)
        assert band.tobytes() == m.block(16, 24, 0, 64).tobytes()
        assert band.tobytes() == (
            HplAiMatrix(64, 7, use_cache=False).block(16, 24, 0, 64).tobytes()
        )

    def test_counts_like_block(self):
        from repro.obs import Observability, use

        def tally(read):
            clear_tile_cache()
            obs = Observability()
            with use(obs):
                m = HplAiMatrix(64, 7)
                for g in (0, 1, 0, 2, 1, 0):
                    read(m, g * 8, (g + 1) * 8)
            s = tile_cache().stats()
            events = {
                e: obs.metrics.counter("lcg.tile_cache", event=e).value
                for e in ("hit", "miss")
            }
            return s["hits"], s["misses"], s["entries"], events

        by_band = tally(lambda m, r0, r1: m.band(r0, r1))
        by_block = tally(lambda m, r0, r1: m.block(r0, r1, 0, 64))
        assert by_band == by_block == (3, 3, 3, {"hit": 3, "miss": 3})

    def test_uncached_band_is_fresh_and_read_only(self):
        m = HplAiMatrix(64, 7, use_cache=False)
        before = tile_cache().stats()
        a, b = m.band(0, 8), m.band(0, 8)
        assert a is not b
        assert not a.flags.writeable and not b.flags.writeable
        assert a.tobytes() == b.tobytes()
        assert tile_cache().stats() == before


class TestCacheObservability:
    """Cache events mirror into the obs metrics registry when enabled."""

    def test_hits_misses_evictions_counted(self):
        from repro.obs import Observability, use

        obs = Observability()
        with use(obs):
            row = np.zeros((1, 128))
            c = TileCache(max_bytes=2 * row.nbytes)
            k1 = (1, 1, 1, 1, 0, 1, 0, 128)
            k2 = (2, 2, 2, 2, 0, 1, 0, 128)
            k3 = (3, 3, 3, 3, 0, 1, 0, 128)
            c.get(k1)            # miss
            c.put(k1, row)
            c.get(k1)            # hit
            c.put(k2, row)
            c.put(k3, row)       # evicts k1

        def val(event):
            return obs.metrics.counter("lcg.tile_cache", event=event).value

        assert val("miss") == 1
        assert val("hit") == 1
        assert val("eviction") == 1
        # the cache's own counters agree
        assert c.stats()["hits"] == 1
        assert c.stats()["evictions"] == 1

    def test_disabled_handle_records_nothing(self):
        from repro.obs import context as obs_context

        assert not obs_context.current().enabled  # module default
        c = TileCache()
        c.get((9, 9, 9, 9, 0, 1, 0, 1))
        assert c.stats()["misses"] == 1  # plain counters still work
