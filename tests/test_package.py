"""The package's public names, loaded on first use, and its record types."""

import importlib
import inspect
import pkgutil
import statistics
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import layerpath
from layerpath import (
    AggregatedGraph,
    AggregationParams,
    InvalidAlphaError,
    InvalidBetaError,
    LayeredEdge,
    LayerId,
    SweepReport,
    bench,
)

SUBMODULES = [
    importlib.import_module(f"layerpath.{info.name}")
    for info in pkgutil.iter_modules(layerpath.__path__)
]


class TestPublicNames:
    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from layerpath import *", namespace)
        assert set(layerpath.__all__) <= set(namespace)

    @pytest.mark.parametrize("name", layerpath.__all__)
    def test_each_name_is_the_object_its_module_defines(self, name):
        value = getattr(layerpath, name)
        holders = [m.__name__ for m in SUBMODULES if vars(m).get(name) is value]
        assert holders, name
        if inspect.isclass(value) or inspect.isfunction(value):
            assert value.__module__ in holders

    def test_dir_lists_every_name(self):
        assert set(layerpath.__all__) <= set(dir(layerpath))
        assert "__version__" in dir(layerpath)

    def test_an_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match=r"^module 'layerpath' has no attribute 'nope'$"):
            layerpath.nope
        assert not hasattr(layerpath, "brute_force_sp")


class Index:
    """An integer type other than int, as numpy's are."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def graph():
    return AggregatedGraph(frozenset({0, 1}), AggregationParams(), {0: ((1, 1, 0.5),)}, 1)


class TestRecords:
    @pytest.mark.parametrize("record, field", [
        (AggregationParams(), "alpha"),
        (graph(), "num_edges"),
        (SweepReport((1,), (1.0,), ((0,),)), "counts"),
        (LayeredEdge(0, 1, LayerId(0, "a"), 0.5), "weight"),
    ], ids=["AggregationParams", "AggregatedGraph", "SweepReport", "LayeredEdge"])
    def test_fields_cannot_be_assigned(self, record, field):
        with pytest.raises(AttributeError):
            setattr(record, field, 1)

    def test_graphs_compare_and_hash_by_identity(self):
        g, h = graph(), graph()
        assert g != h and not g == h
        assert g == g
        assert len({g, h}) == 2

    def test_params_coerce_their_fields(self):
        p = AggregationParams(Index(2), Fraction(1, 2))
        assert (p.alpha, p.beta) == (2, 0.5)
        assert type(p.alpha) is int and type(p.beta) is float
        assert type(AggregationParams(beta=1).beta) is float
        assert AggregationParams(2, 0.5)._replace(beta=1) == AggregationParams(2, 1.0)

    @pytest.mark.parametrize("kwargs, error", [
        ({"alpha": 0}, InvalidAlphaError),
        ({"alpha": True}, InvalidAlphaError),
        ({"alpha": 1.0}, InvalidAlphaError),
        ({"beta": 1.5}, InvalidBetaError),
        ({"beta": float("nan")}, InvalidBetaError),
        ({"beta": True}, InvalidBetaError),
        ({"beta": "0.5"}, InvalidBetaError),
    ], ids=repr)
    def test_replace_rejects_what_the_constructor_rejects(self, kwargs, error):
        with pytest.raises(error):
            AggregationParams(**kwargs)
        with pytest.raises(error):
            AggregationParams()._replace(**kwargs)


# sums that round, an odd count, and a sum past the largest float (inf)
@pytest.mark.parametrize("data", [[0.1, 0.2], [0.3, 0.1, 0.2], [1.0, 0.1, 0.7, 0.2], [1e308, 1.5e308]])
def test_bench_median_rounds_as_statistics_does(data):
    assert bench._median(data).hex() == statistics.median(data).hex()


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=9))
def test_bench_median_is_statistics_median(data):
    assert bench._median(data).hex() == statistics.median(data).hex()
