"""The settings table (:mod:`repro.settings`): one parser, call-time
reads, and the docs / source census that keeps it the only reader."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro import settings

ROOT = Path(__file__).resolve().parents[1]
OFF_WORDS = ("0", "false", "no", "off")


class TestParser:
    @pytest.mark.parametrize("name", ["exec_cache"])
    def test_unset_and_empty_are_the_default(self, monkeypatch, name):
        row = settings.SETTINGS[name]
        monkeypatch.delenv(row.env, raising=False)
        assert settings.enabled(name) is row.default
        for blank in ("", "   "):
            monkeypatch.setenv(row.env, blank)
            assert settings.enabled(name) is row.default

    @pytest.mark.parametrize("name", ["exec_cache"])
    @pytest.mark.parametrize("word", OFF_WORDS)
    def test_off_words_in_any_case_and_padding(self, monkeypatch, name, word):
        env = settings.SETTINGS[name].env
        for spelling in (word, word.upper(), word.title(), f"  {word} "):
            monkeypatch.setenv(env, spelling)
            assert settings.enabled(name) is False

    @pytest.mark.parametrize("name", ["exec_cache"])
    @pytest.mark.parametrize("value", ["1", "on", "garbage"])
    def test_anything_else_is_on(self, monkeypatch, name, value):
        monkeypatch.setenv(settings.SETTINGS[name].env, value)
        assert settings.enabled(name) is True

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            settings.enabled("no_such_setting")


class TestCallTimeReads:
    """olapbench's probes flip the environment mid-process; the second
    call must see the flip."""

    def test_enabled_sees_a_change_between_calls(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXEC_CACHE", "1")
        assert settings.enabled("exec_cache")
        monkeypatch.setenv("REPRO_EXEC_CACHE", "0")
        assert not settings.enabled("exec_cache")

    def test_cache_dir_sees_a_change_between_calls(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "warm"))
        assert settings.cache_dir() == tmp_path / "warm"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cold"))
        assert settings.cache_dir() == tmp_path / "cold"
        monkeypatch.delenv("REPRO_CACHE_DIR")
        assert settings.cache_dir() == Path.home() / ".cache" / "repro"

    def test_scale_factor(self, monkeypatch):
        monkeypatch.delenv("REPRO_SF", raising=False)
        assert settings.scale_factor() == 0.3
        monkeypatch.setenv("REPRO_SF", "0.05")
        assert settings.scale_factor() == 0.05


class TestCensus:
    def test_readme_table_lists_exactly_the_table(self):
        readme = (ROOT / "README.md").read_text()
        section = readme.split("## Settings", 1)[1].split("\n## ", 1)[0]
        documented = re.findall(r"^\| `(REPRO_[A-Z_]+)`", section, re.MULTILINE)
        assert documented == [row.env for row in settings.SETTINGS.values()]
        assert len(documented) == 4
        header = next(line for line in section.splitlines() if line.startswith("| name"))
        assert "keyed" not in header

    def test_retired_names_are_gone(self):
        retired = [
            "REPRO_" + name
            for name in (
                "SHARD_NODE", "SHARD_FAULTS",
                "ENCODING", "ENCODED_AGG", "PRUNING", "ROLLUPS", "COMPILE",
                "REFERENCE_SIM", "JOIN_SF",
            )
        ]
        pattern = re.compile(r"\b(" + "|".join(retired) + r")\b")
        sources = ("src/**/*.py", "tests/**/*.py", "benchmarks/*.py")
        for path in [path for glob in sources for path in ROOT.glob(glob)]:
            match = pattern.search(path.read_text())
            assert match is None, f"{match and match[0]} in {path.relative_to(ROOT)}"
