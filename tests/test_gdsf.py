"""Tests for GDSF cache replacement and the cache factory."""

import pytest
from hypothesis import given, strategies as st

from repro.core import SimulationParams
from repro.sim import GDSFCache, LRUCache, make_cache


class TestGDSFBasics:
    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            GDSFCache(-1)

    def test_hit_miss_accounting(self):
        c = GDSFCache(100)
        c.insert("/a", 40)
        assert c.access("/a")
        assert not c.access("/b")
        assert c.hit_rate == 0.5

    def test_size_mismatch_rejected(self):
        c = GDSFCache(100)
        c.insert("/a", 40)
        with pytest.raises(ValueError, match="size mismatch"):
            c.insert("/a", 50)

    def test_oversized_rejected(self):
        c = GDSFCache(100)
        assert c.insert("/big", 200) == []
        assert not c.peek("/big")


class TestGDSFReplacement:
    def test_small_popular_beats_large_cold(self):
        c = GDSFCache(100)
        c.insert("/small", 10)
        for _ in range(5):
            c.access("/small")
        c.insert("/large", 80)
        # Inserting another file must evict the large cold one, not the
        # small popular one.
        evicted = c.insert("/new", 30)
        assert "/large" in evicted
        assert c.peek("/small")

    def test_frequency_accumulates(self):
        c = GDSFCache(100)
        c.insert("/a", 50)
        c.insert("/b", 50)
        for _ in range(3):
            c.access("/b")
        evicted = c.insert("/c", 50)
        assert evicted == ["/a"]

    def test_aging_term_allows_turnover(self):
        # A once-hot file must eventually yield to a stream of new
        # files (the L term rises with each eviction).
        c = GDSFCache(100)
        c.insert("/hot", 50)
        for _ in range(10):
            c.access("/hot")
        survived = True
        for i in range(200):
            c.insert(f"/n{i}", 50)
            c.access(f"/n{i}")
            if not c.peek("/hot"):
                survived = False
                break
        assert not survived, "GDSF aging must eventually evict stale files"

    def test_pinned_never_victim(self):
        c = GDSFCache(100)
        c.insert("/pin", 50, pinned=True)
        c.insert("/a", 50)
        evicted = c.insert("/b", 40)
        assert "/pin" not in evicted
        assert c.peek("/pin")

    def test_pin_unpin_roundtrip(self):
        c = GDSFCache(100)
        c.insert("/a", 40)
        assert c.pin("/a")
        assert c.pinned_bytes == 40
        assert c.unpin("/a")
        assert c.pinned_bytes == 0
        assert not c.pin("/nope")
        c.pin("/a")
        assert c.unpin_all() == 1

    def test_callbacks_fire(self):
        ins, ev = [], []
        c = GDSFCache(100, on_insert=ins.append, on_evict=ev.append)
        c.insert("/a", 60)
        c.insert("/b", 60)
        assert ins == ["/a", "/b"]
        assert ev == ["/a"]

    def test_contents_orders_next_victim_first(self):
        c = GDSFCache(200)
        c.insert("/cold", 50)
        c.insert("/hot", 50)
        for _ in range(4):
            c.access("/hot")
        assert c.contents()[0] == "/cold"

    @given(st.lists(st.tuples(
        st.sampled_from([f"/f{i}" for i in range(10)]),
        st.integers(min_value=1, max_value=60)),
        min_size=1, max_size=100))
    def test_property_capacity_invariant(self, ops):
        c = GDSFCache(120)
        sizes = {}
        for path, size in ops:
            size = sizes.setdefault(path, size)
            c.access(path)
            c.insert(path, size)
            assert c.resident_bytes <= 120
            assert c.resident_bytes == sum(
                sizes[p] for p in c.contents())


class TestFactory:
    def test_all_policies(self):
        assert isinstance(make_cache("lru", 100), LRUCache)
        assert isinstance(make_cache("gdsf", 100), GDSFCache)

    def test_unknown_policy(self):
        with pytest.raises(ValueError, match="unknown cache policy"):
            make_cache("bogus", 100)
        with pytest.raises(ValueError, match="unknown cache policy"):
            make_cache("gdsf-pred", 100)

    def test_params_validation(self):
        with pytest.raises(ValueError, match="cache_policy"):
            SimulationParams(cache_policy="bogus")
        with pytest.raises(ValueError, match="cache_policy"):
            SimulationParams(cache_policy="gdsf-pred")

    def test_server_uses_configured_cache(self):
        from repro.sim import BackendServer, Simulator
        params = SimulationParams(n_backends=1, cache_bytes=1 << 20,
                                  cache_policy="gdsf")
        srv = BackendServer(Simulator(), 0, params)
        assert isinstance(srv.cache, GDSFCache)
