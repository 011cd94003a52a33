"""Unit tests for MinoanERConfig validation and defaults."""

import ast
from dataclasses import fields
from pathlib import Path

import pytest

import repro
from repro.core.config import PAPER_DEFAULT, MinoanERConfig


class TestDefaults:
    def test_paper_configuration(self):
        config = MinoanERConfig()
        assert (config.name_attributes_k, config.candidates_k) == (2, 15)
        assert (config.relations_n, config.theta) == (3, 0.6)

    def test_paper_default_constant(self):
        assert PAPER_DEFAULT == MinoanERConfig()

    def test_all_rules_enabled_by_default(self):
        config = MinoanERConfig()
        assert config.use_name_rule
        assert config.use_value_rule
        assert config.use_rank_aggregation
        assert config.use_reciprocity
        assert config.use_neighbor_evidence

    def test_frozen(self):
        with pytest.raises(AttributeError):
            MinoanERConfig().theta = 0.5  # type: ignore[misc]


class TestValidation:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("name_attributes_k", -1),
            ("candidates_k", 0),
            ("relations_n", -2),
            ("theta", 0.0),
            ("theta", 1.0),
            ("theta", 1.5),
        ],
    )
    def test_rejects_invalid(self, field, value):
        with pytest.raises(ValueError):
            MinoanERConfig(**{field: value})

    def test_with_options_revalidates(self):
        with pytest.raises(ValueError):
            MinoanERConfig().with_options(theta=2.0)

    def test_with_options_changes_only_given_fields(self):
        changed = MinoanERConfig().with_options(candidates_k=5)
        assert changed.candidates_k == 5
        assert changed.theta == 0.6


def _config_reads() -> set[str]:
    """Attribute names read as ``config.<name>`` or ``<expr>.config.<name>``
    anywhere in ``src/repro`` outside the module defining the config."""
    package = Path(repro.__file__).parent
    reads: set[str] = set()
    for path in package.rglob("*.py"):
        if path == package / "core" / "config.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Attribute) or not isinstance(node.ctx, ast.Load):
                continue
            owner = node.value
            if (isinstance(owner, ast.Name) and owner.id == "config") or (
                isinstance(owner, ast.Attribute) and owner.attr == "config"
            ):
                reads.add(node.attr)
    return reads


def test_every_field_is_read():
    # A field nothing reads is a knob that does nothing: delete it, or
    # keep the setting where its one reader lives.
    unread = {spec.name for spec in fields(MinoanERConfig)} - _config_reads()
    assert not unread, f"MinoanERConfig fields never read: {sorted(unread)}"
