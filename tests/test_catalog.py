"""Tests for the catalog: schema, statistics, estimation."""

import pytest

from repro.catalog import (
    Attribute,
    Catalog,
    JoinStatistics,
    Relation,
    estimate_join_cardinality,
)
from repro.common.errors import CatalogError


# --------------------------------------------------------------------------
# Schema
# --------------------------------------------------------------------------

def test_relation_size_bytes():
    rel = Relation("R", 1000, tuple_size=40)
    assert rel.size_bytes == 40_000


def test_relation_validation():
    with pytest.raises(CatalogError):
        Relation("", 10)
    with pytest.raises(CatalogError):
        Relation("R", -1)
    with pytest.raises(CatalogError):
        Relation("R", 10, tuple_size=0)


def test_attribute_lookup():
    rel = Relation("R", 10, attributes=(Attribute("k"), Attribute("v")))
    assert rel.attribute("k").name == "k"
    with pytest.raises(CatalogError):
        rel.attribute("missing")


def test_attribute_validation():
    with pytest.raises(CatalogError):
        Attribute("")
    with pytest.raises(CatalogError):
        Attribute("a", size=0)


# --------------------------------------------------------------------------
# JoinStatistics
# --------------------------------------------------------------------------

def test_selectivity_symmetric():
    stats = JoinStatistics()
    stats.set_selectivity("R", "S", 0.01)
    assert stats.selectivity("S", "R") == 0.01
    assert stats.has_edge("S", "R")


def test_selectivity_range_validation():
    stats = JoinStatistics()
    with pytest.raises(CatalogError):
        stats.set_selectivity("R", "S", 0.0)
    with pytest.raises(CatalogError):
        stats.set_selectivity("R", "S", 1.5)


def test_self_join_rejected():
    stats = JoinStatistics()
    with pytest.raises(CatalogError):
        stats.set_selectivity("R", "R", 0.5)


def test_missing_edge_raises():
    with pytest.raises(CatalogError):
        JoinStatistics().selectivity("R", "S")


def test_neighbours():
    stats = JoinStatistics({("R", "S"): 0.1, ("S", "T"): 0.2})
    assert stats.neighbours("S") == {"R", "T"}
    assert stats.neighbours("R") == {"S"}
    assert stats.neighbours("X") == set()


def test_edges_sorted_deterministic():
    stats = JoinStatistics({("B", "A"): 0.1, ("C", "A"): 0.2})
    assert [(a, b) for a, b, _ in stats.edges()] == [("A", "B"), ("A", "C")]


# --------------------------------------------------------------------------
# Cardinality estimation
# --------------------------------------------------------------------------

def test_estimate_single_relation(small_catalog):
    assert small_catalog.estimate_cardinality(["R"]) == 1000


def test_estimate_pair(small_catalog):
    # |R ⋈ S| = 1000 * 2000 * (1/1000) = 2000
    assert small_catalog.estimate_cardinality(["R", "S"]) == pytest.approx(2000)


def test_estimate_full_join(small_catalog):
    # 1000 * 2000 * 1500 * (1/1000) * (1/2000) = 1500
    assert small_catalog.estimate_cardinality(["R", "S", "T"]) == pytest.approx(1500)


def test_estimate_applies_only_internal_edges(small_catalog):
    # R and T have no direct edge: cross-product estimate.
    assert small_catalog.estimate_cardinality(["R", "T"]) == pytest.approx(1_500_000)


def test_estimate_duplicate_rejected():
    with pytest.raises(CatalogError):
        estimate_join_cardinality({"R": 10}, JoinStatistics(), ["R", "R"])


def test_estimate_empty_rejected(small_catalog):
    with pytest.raises(CatalogError):
        small_catalog.estimate_cardinality([])


def test_estimate_unknown_relation(small_catalog):
    with pytest.raises(CatalogError):
        small_catalog.estimate_cardinality(["R", "Z"])


def test_estimate_size_bytes(small_catalog):
    expected = small_catalog.estimate_cardinality(["R", "S"]) * 40
    assert small_catalog.estimate_size_bytes(["R", "S"]) == pytest.approx(expected)


# --------------------------------------------------------------------------
# Catalog container
# --------------------------------------------------------------------------

def test_catalog_registration_and_lookup(small_catalog):
    assert small_catalog.relation("R").cardinality == 1000
    with pytest.raises(CatalogError):
        small_catalog.relation("Z")
    assert len(small_catalog) == 3
    assert [relation.name for relation in small_catalog] == ["R", "S", "T"]


def test_catalog_duplicate_relation(small_catalog):
    with pytest.raises(CatalogError):
        small_catalog.add_relation(Relation("R", 5))


def test_catalog_unknown_relation(small_catalog):
    with pytest.raises(CatalogError):
        small_catalog.relation("Z")


def test_catalog_result_tuple_size_validation():
    with pytest.raises(CatalogError):
        Catalog(result_tuple_size=0)
