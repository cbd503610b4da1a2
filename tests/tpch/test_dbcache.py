"""Tests for the dbgen disk/memory cache (:mod:`repro.tpch.dbcache`)."""

import numpy as np
import pytest

from repro.tpch import dbcache
from repro.tpch.dbgen import ALL_TABLES, generate_database, _generate_database


@pytest.fixture
def isolated_cache(tmp_path, monkeypatch):
    """Point the cache at a private directory with a zero persist
    threshold so tiny test databases exercise the disk path."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_DISK_CACHE", raising=False)
    monkeypatch.setattr(dbcache, "MIN_PERSIST_BYTES", 0)
    dbcache.clear_memo()
    yield tmp_path
    dbcache.clear_memo()


class TestKeys:
    def test_key_uses_dependency_expanded_tables(self):
        assert dbcache.database_key(0.1, 42, ("lineitem",), None) == (
            dbcache.database_key(0.1, 42, ("lineitem", "orders", "customer"), None)
        )

    def test_key_discriminates_every_parameter(self):
        base = dbcache.database_key(0.1, 42, ALL_TABLES, None)
        assert dbcache.database_key(0.2, 42, ALL_TABLES, None) != base
        assert dbcache.database_key(0.1, 43, ALL_TABLES, None) != base
        assert dbcache.database_key(0.1, 42, ("lineitem",), None) != base
        assert dbcache.database_key(0.1, 42, ALL_TABLES, 1.5) != base

    def test_canonical_tables_in_generation_order(self):
        assert dbcache.canonical_tables(("lineitem", "nation")) == (
            "nation", "customer", "orders", "lineitem",
        )

    def test_unknown_table_rejected(self):
        with pytest.raises(ValueError, match="unknown tables"):
            dbcache.database_key(0.1, 42, ("nope",), None)


class TestRoundTrip:
    def test_disk_hit_equals_fresh_generation(self, isolated_cache):
        first = generate_database(0.005, seed=3, tables=("lineitem", "supplier"))
        dbcache.clear_memo()  # force the disk path
        second = generate_database(0.005, seed=3, tables=("lineitem", "supplier"))
        reference = _generate_database(0.005, 3, ("lineitem", "supplier"), None)
        assert second.table_names == first.table_names == reference.table_names
        for name in reference.table_names:
            for column in reference.table(name).column_names:
                np.testing.assert_array_equal(second[name][column], reference[name][column])
                np.testing.assert_array_equal(first[name][column], reference[name][column])

    def test_memo_hit_shares_arrays_but_not_wrappers(self, isolated_cache):
        first = generate_database(0.005, seed=5)
        second = generate_database(0.005, seed=5)
        assert first is not second
        assert first.cache_key == second.cache_key is not None
        # Same backing arrays (no regeneration), fresh Database wrappers.
        assert np.shares_memory(first["lineitem"]["l_quantity"],
                                second["lineitem"]["l_quantity"])

    def test_persisted_entry_on_disk(self, isolated_cache):
        db = generate_database(0.005, seed=7, tables=("supplier",))
        entry = isolated_cache / "dbgen" / db.cache_key
        assert (entry / "meta.json").exists()
        # Encoded columns persist one .npy per payload part, raw columns
        # persist one plain array; either way the column is on disk.
        payloads = {path.name for path in entry.glob("supplier.s_suppkey*.npy")}
        assert payloads, "s_suppkey has no persisted payload"

    def test_mutation_invalidates_cache_key(self, isolated_cache):
        from repro.storage import ColumnTable

        db = generate_database(0.005, seed=9, tables=("supplier",))
        assert db.cache_key is not None
        db.add_table(ColumnTable("extra", {"x": np.arange(4)}))
        assert db.cache_key is None
        assert db.identity == db.uid

    def test_small_databases_stay_off_disk(self, isolated_cache, monkeypatch):
        monkeypatch.setattr(dbcache, "MIN_PERSIST_BYTES", 1 << 40)
        db = generate_database(0.005, seed=11, tables=("supplier",))
        assert not (isolated_cache / "dbgen" / db.cache_key).exists()
        # ... but the in-process memo still serves repeats.
        again = generate_database(0.005, seed=11, tables=("supplier",))
        assert np.shares_memory(db["supplier"]["s_acctbal"],
                                again["supplier"]["s_acctbal"])

    def test_disk_cache_disable_env(self, isolated_cache, monkeypatch):
        monkeypatch.setenv("REPRO_DISK_CACHE", "0")
        db = generate_database(0.005, seed=13, tables=("supplier",))
        assert not (isolated_cache / "dbgen").exists()
        assert db.cache_key is not None  # memo identity still applies

    def test_corrupt_entry_falls_back_to_generation(self, isolated_cache):
        db = generate_database(0.005, seed=15, tables=("supplier",))
        entry = isolated_cache / "dbgen" / db.cache_key
        (entry / "meta.json").write_text("{not json")
        dbcache.clear_memo()
        again = generate_database(0.005, seed=15, tables=("supplier",))
        np.testing.assert_array_equal(db["supplier"]["s_acctbal"],
                                      again["supplier"]["s_acctbal"])

    def test_different_seeds_do_not_collide(self, isolated_cache):
        a = generate_database(0.005, seed=17, tables=("supplier",))
        b = generate_database(0.005, seed=18, tables=("supplier",))
        assert not np.array_equal(a["supplier"]["s_acctbal"],
                                  b["supplier"]["s_acctbal"])


class TestZoneMapPersistence:
    """Format 4 persists per-column zone maps next to the payloads and
    reattaches them on load; an entry in an older format (no zone maps)
    is a miss, regenerated and rewritten in format 4."""

    def assert_equal_zone_maps(self, actual, expected):
        assert actual.domain == expected.domain
        assert actual.chunk_rows == expected.chunk_rows
        assert actual.n_rows == expected.n_rows
        np.testing.assert_array_equal(actual.mins, expected.mins)
        np.testing.assert_array_equal(actual.maxs, expected.maxs)
        if expected.code_sets is None:
            assert actual.code_sets is None
        else:
            np.testing.assert_array_equal(actual.code_sets, expected.code_sets)

    def test_zone_map_files_on_disk(self, isolated_cache):
        import json

        db = generate_database(0.005, seed=21, tables=("lineitem",))
        entry = isolated_cache / "dbgen" / db.cache_key
        meta = json.loads((entry / "meta.json").read_text())
        assert meta["format"] == 4
        assert "l_shipdate" in meta["zone_maps"]["lineitem"]
        assert list(entry.glob("lineitem.l_shipdate.zm.*.npy"))

    def test_disk_roundtrip_reattaches_equal_zone_maps(self, isolated_cache):
        first = generate_database(0.005, seed=21, tables=("lineitem",))
        expected = first.table("lineitem").zone_map("l_shipdate")
        dbcache.clear_memo()  # force the disk path
        second = generate_database(0.005, seed=21, tables=("lineitem",))
        self.assert_equal_zone_maps(
            second.table("lineitem").zone_map("l_shipdate"), expected)

    def test_memo_hit_shares_zone_maps(self, isolated_cache):
        first = generate_database(0.005, seed=23, tables=("lineitem",))
        second = generate_database(0.005, seed=23, tables=("lineitem",))
        self.assert_equal_zone_maps(
            second.table("lineitem").zone_map("l_quantity"),
            first.table("lineitem").zone_map("l_quantity"),
        )

    def test_format_2_entry_stays_readable(self, isolated_cache):
        """An entry written before zone maps existed is a miss: the
        database is regenerated with equal columns and zone maps, and
        the entry is rewritten in format 4."""
        import json

        db = generate_database(0.005, seed=25, tables=("lineitem",))
        expected = db.table("lineitem").zone_map("l_shipdate")
        entry = isolated_cache / "dbgen" / db.cache_key
        meta = json.loads((entry / "meta.json").read_text())
        meta["format"] = 2
        meta.pop("zone_maps", None)
        (entry / "meta.json").write_text(json.dumps(meta))
        for stale in entry.glob("*.zm.*.npy"):
            stale.unlink()
        dbcache.clear_memo()
        again = generate_database(0.005, seed=25, tables=("lineitem",))
        np.testing.assert_array_equal(db["lineitem"]["l_quantity"],
                                      again["lineitem"]["l_quantity"])
        self.assert_equal_zone_maps(
            again.table("lineitem").zone_map("l_shipdate"), expected)
        assert json.loads((entry / "meta.json").read_text())["format"] == 4
        assert list(entry.glob("lineitem.l_shipdate.zm.*.npy"))


class TestEncodedEntries:
    """Every stored entry carries ``"encoded": true``: a warm load takes
    its EncodedColumns and zone maps as stored, with no encoding pass.
    A format-1 entry (raw columns) is a miss, regenerated encoded and
    rewritten in format 4."""

    def test_encoded_entry_loads_without_an_encoding_pass(
        self, isolated_cache, monkeypatch
    ):
        import json

        from repro.storage import EncodedColumn, zonemap

        db = generate_database(0.005, seed=27, tables=("lineitem",))
        entry = isolated_cache / "dbgen" / db.cache_key
        meta = json.loads((entry / "meta.json").read_text())
        assert meta["encoded"] is True
        stored = meta["encodings"]["lineitem"]
        assert stored, "the entry holds no encoded lineitem columns"

        def refuse(*args, **kwargs):
            raise AssertionError("a warm load must not rebuild this")

        monkeypatch.setattr(dbcache, "encode_columns", refuse)
        monkeypatch.setattr(zonemap, "build_zone_map", refuse)
        dbcache.clear_memo()
        again = generate_database(0.005, seed=27, tables=("lineitem",))
        lineitem = again.table("lineitem")
        for column in lineitem.column_names:
            encoded = lineitem.encoding(column)
            assert isinstance(encoded, EncodedColumn) == (column in stored), column
            if encoded is not None:
                assert encoded.codec_kind == stored[column]["codec"], column
            lineitem.zone_map(column)  # attached from disk, never built

    def test_raw_entry_is_encoded_on_load(self, isolated_cache):
        import json

        db = generate_database(0.005, seed=29, tables=("lineitem",))
        entry = isolated_cache / "dbgen" / db.cache_key
        meta = json.loads((entry / "meta.json").read_text())
        for stale in entry.glob("*.npy"):
            stale.unlink()
        for name in db.table_names:
            table = db.table(name)
            for column in table.column_names:
                np.save(entry / f"{name}.{column}.npy", np.asarray(table[column]))
        raw_meta = {key: meta[key] for key in ("name", "scale_factor", "tables")}
        (entry / "meta.json").write_text(json.dumps({"format": 1, **raw_meta}))
        dbcache.clear_memo()
        again = generate_database(0.005, seed=29, tables=("lineitem",))
        for name in db.table_names:
            table, loaded = db.table(name), again.table(name)
            for column in table.column_names:
                assert (loaded.encoding(column) is None) == (table.encoding(column) is None)
                np.testing.assert_array_equal(loaded[column], table[column])
                zone_map, expected = loaded.zone_map(column), table.zone_map(column)
                assert zone_map.domain == expected.domain
                np.testing.assert_array_equal(zone_map.mins, expected.mins)
                np.testing.assert_array_equal(zone_map.maxs, expected.maxs)
        rewritten = json.loads((entry / "meta.json").read_text())
        assert rewritten["format"] == 4
        assert rewritten["encodings"] == meta["encodings"]


class TestDamagedEntries:
    def test_truncated_file_is_repaired_once(self, isolated_cache):
        """A truncated payload file makes the entry unreadable; the load
        that finds it removes it, so the regenerated database is written
        back whole and later processes load it instead of paying dbgen."""
        from repro.tpch import dbgen

        db = generate_database(0.005, seed=31, tables=("lineitem",))
        damaged = isolated_cache / "dbgen" / db.cache_key / "lineitem.l_tax.codes.npy"
        whole = damaged.read_bytes()
        damaged.write_bytes(whole[:40])
        before = dbgen.GENERATION_COUNT
        for _ in range(2):
            dbcache.clear_memo()  # a fresh process: disk path only
            again = generate_database(0.005, seed=31, tables=("lineitem",))
            np.testing.assert_array_equal(again["lineitem"]["l_tax"], db["lineitem"]["l_tax"])
        assert dbgen.GENERATION_COUNT == before + 1
        assert damaged.read_bytes() == whole
