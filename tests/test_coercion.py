"""Numbers given to the library: one coercer per kind, the same rules everywhere."""

import math

import numpy as np
import pytest

from layerpath import (
    AggregationParams,
    InvalidAlphaError,
    InvalidBetaError,
    MultiLayeredNetwork,
    ParameterError,
    WeightOutOfRangeError,
    apsp_repeated_dijkstra,
    benchmark,
    ml_floyd_warshall,
    random_network,
)
from layerpath.core import coerce_int, coerce_unit
from netgen import build_net

# not integers: bools, floats (even whole ones) and text
NOT_INTEGERS = [True, False, 2.0, 2.5, "2", None]
# not reals in [0, 1]: bools, text, out of range, nan
NOT_UNIT_REALS = [True, False, "0.5", b"0.5", None, -0.25, 1.5, math.nan, math.inf]


class TestCoerceInt:
    @pytest.mark.parametrize("value", [0, 7, np.int64(3)])
    def test_integers_at_the_minimum_or_above_pass(self, value):
        assert coerce_int(value, "count") == value
        assert type(coerce_int(value, "count")) is int

    @pytest.mark.parametrize("value", NOT_INTEGERS, ids=repr)
    def test_non_integers_raise_the_type_error(self, value):
        with pytest.raises(TypeError, match=r"^count must be an integer, got "):
            coerce_int(value, "count", error=ValueError, type_error=TypeError)
        with pytest.raises(ParameterError, match=r"^count must be an integer, got "):
            coerce_int(value, "count")

    def test_below_the_minimum_raises_the_error(self):
        with pytest.raises(ValueError, match=r"^node id must be non-negative, got -1$"):
            coerce_int(-1, "node id", error=ValueError, type_error=TypeError)
        with pytest.raises(InvalidAlphaError, match=r"^alpha must be >= 1, got 0$"):
            coerce_int(0, "alpha", minimum=1, error=InvalidAlphaError)


class TestCoerceUnit:
    @pytest.mark.parametrize("value", [0, 1, 0.0, 0.5, 1.0, np.float64(0.25)])
    def test_reals_in_the_unit_interval_pass(self, value):
        assert coerce_unit(value, "share") == float(value)

    @pytest.mark.parametrize("value", NOT_UNIT_REALS, ids=repr)
    def test_everything_else_raises_the_error(self, value):
        with pytest.raises(ParameterError, match=r"^share must (be a real number|lie in \[0, 1\])"):
            coerce_unit(value, "share")


class TestMessagesStayTheSame:
    def test_node_id(self):
        net = MultiLayeredNetwork(layers=("a",))
        with pytest.raises(ValueError, match="node id must be non-negative"):
            net.add_edge(0, -1, "a", 0.5)

    def test_alpha(self):
        with pytest.raises(InvalidAlphaError, match="alpha must be >= 1"):
            AggregationParams(alpha=0)

    def test_weight_and_beta(self):
        net = MultiLayeredNetwork(layers=("a",))
        with pytest.raises(WeightOutOfRangeError, match=r"weight must lie in \[0, 1\]"):
            net.add_edge(0, 1, "a", 1.5)
        with pytest.raises(InvalidBetaError, match=r"beta must lie in \[0, 1\]"):
            AggregationParams(beta=-0.5)

    @pytest.mark.parametrize("value", ["0.5", "0.2_5"])
    def test_text_is_no_weight_or_beta(self, value):
        # text goes through parse_real, which rejects "0.2_5"; float() would not
        net = MultiLayeredNetwork(layers=("a",))
        with pytest.raises(WeightOutOfRangeError, match="weight must be a real number"):
            net.add_edge(0, 1, "a", value)
        with pytest.raises(InvalidBetaError, match="beta must be a real number"):
            AggregationParams(beta=value)


class TestRandomNetwork:
    @pytest.mark.parametrize("value", NOT_INTEGERS + [0, -1], ids=repr)
    @pytest.mark.parametrize("which", ["num_nodes", "num_layers"])
    def test_counts_must_be_integers_of_at_least_one(self, which, value):
        args = {"num_nodes": 4, "num_layers": 2, "density": 0.5, which: value}
        with pytest.raises(ParameterError, match=f"^{which} must "):
            random_network(**args, seed=0)

    @pytest.mark.parametrize("density", NOT_UNIT_REALS, ids=repr)
    def test_density_must_lie_in_the_unit_interval(self, density):
        with pytest.raises(ParameterError, match="^density must "):
            random_network(4, 2, density, seed=0)


def _sealed_triangle():
    return build_net(("a",), [(0, 1, "a", 0.5), (1, 2, "a", 0.5), (0, 2, "a", 0.9)])


@pytest.mark.parametrize("reps", NOT_INTEGERS + [0, -1], ids=repr)
def test_benchmark_reps_must_be_an_integer_of_at_least_one(reps):
    with pytest.raises(ParameterError, match="^reps must "):
        benchmark(_sealed_triangle(), [0], reps=reps)


@pytest.mark.parametrize("max_nodes", NOT_INTEGERS + [-1], ids=repr)
@pytest.mark.parametrize("apsp", [ml_floyd_warshall, apsp_repeated_dijkstra])
def test_all_pairs_max_nodes_must_be_a_non_negative_integer(apsp, max_nodes):
    with pytest.raises(ParameterError, match="^max_nodes must "):
        apsp(_sealed_triangle(), max_nodes=max_nodes)
