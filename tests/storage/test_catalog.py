"""Database catalog tests."""

import numpy as np
import pytest

from repro.storage import ColumnTable, Database
from repro.storage.encoding import encode_columns


def make_db():
    db = Database("testdb", scale_factor=0.1)
    db.add_table(ColumnTable("t1", {"a": np.arange(5, dtype=np.int64)}))
    db.add_table(ColumnTable("t2", {"b": np.ones(3)}))
    return db


class TestCatalog:
    def test_lookup(self):
        db = make_db()
        assert db.table("t1").n_rows == 5
        assert db["t2"].n_rows == 3
        assert "t1" in db
        assert db.table_names == ("t1", "t2")

    def test_duplicate_rejected(self):
        db = make_db()
        with pytest.raises(ValueError):
            db.add_table(ColumnTable("t1"))

    def test_missing_table_helpful_error(self):
        with pytest.raises(KeyError, match="available"):
            make_db().table("zz")

    def test_nbytes(self):
        assert make_db().nbytes == 5 * 8 + 3 * 8

    def test_summary(self):
        summary = make_db().summary()
        assert summary["t1"] == {"rows": 5, "bytes": 40}

    def test_scale_factor_recorded(self):
        assert make_db().scale_factor == 0.1


class TestCopy:
    def test_plain_copy_keeps_the_identity(self):
        db = make_db()
        db.cache_key = "content"
        assert db.copy().identity == "content"

    def test_encoded_copy_gets_a_fresh_identity(self):
        db = make_db()
        db.cache_key = "content"
        encoded = db.copy(encode_columns)
        assert encoded.cache_key is None
        assert encoded.identity not in (db.identity, db.copy(encode_columns).identity)
