"""Tests for the cost report records."""

import math
import pickle

import pytest

from repro.cost.report import LayerCost, NetworkCost


def _layer(name="l", cycles=100.0, energy=10.0, macs=1000, util=0.5):
    return LayerCost(layer_name=name, valid=True, cycles=cycles,
                     energy_nj=energy, utilization=util, macs=macs)


class TestLayerCost:
    def test_edp_product(self):
        assert _layer(cycles=100, energy=10).edp == pytest.approx(1000)

    def test_invalid_has_inf_edp(self):
        cost = LayerCost.invalid("bad", ("reason",))
        assert cost.edp == math.inf
        assert not cost.valid
        assert cost.reasons == ("reason",)


class TestNetworkCost:
    def test_totals(self):
        net = NetworkCost(network_name="n",
                          layer_costs=(_layer(cycles=100, energy=10),
                                       _layer(cycles=50, energy=5)))
        assert net.total_cycles == 150
        assert net.total_energy_nj == 15
        assert net.edp == pytest.approx(150 * 15)

    def test_any_invalid_poisons_network(self):
        net = NetworkCost(network_name="n",
                          layer_costs=(_layer(),
                                       LayerCost.invalid("bad", ())))
        assert not net.valid
        assert net.edp == math.inf
        assert net.total_cycles == math.inf

    def test_mac_weighted_utilization(self):
        net = NetworkCost(network_name="n", layer_costs=(
            _layer(macs=900, util=1.0), _layer(macs=100, util=0.0)))
        assert net.mean_utilization == pytest.approx(0.9)

    def test_zero_macs_utilization(self):
        net = NetworkCost(network_name="n",
                          layer_costs=(_layer(macs=0),))
        assert net.mean_utilization == 0.0

    def test_summary_keys(self):
        net = NetworkCost(network_name="n", layer_costs=(_layer(),))
        assert set(net.summary()) == {"cycles", "energy_nj", "edp",
                                      "utilization"}


class _CountedCost:
    """A layer cost that counts the reads of its numbers."""

    valid = True

    def __init__(self, cycles, energy_nj, reads):
        self._cycles, self._energy_nj, self._reads = cycles, energy_nj, reads

    @property
    def cycles(self):
        self._reads["cycles"] += 1
        return self._cycles

    @property
    def energy_nj(self):
        self._reads["energy_nj"] += 1
        return self._energy_nj


class TestNetworkCostFoldsOnce:
    def test_each_total_walks_the_layers_once(self):
        reads = {"cycles": 0, "energy_nj": 0}
        layers = (_CountedCost(0.1, 0.7, reads),
                  _CountedCost(0.2, 0.8, reads),
                  _CountedCost(0.3, 0.9, reads))
        net = NetworkCost(network_name="n", layer_costs=layers)
        for _ in range(3):
            assert net.valid
            assert net.total_cycles == (0 + 0.1) + 0.2 + 0.3
            assert net.total_energy_nj == (0 + 0.7) + 0.8 + 0.9
            assert net.edp == net.total_cycles * net.total_energy_nj
        assert reads == {"cycles": 3, "energy_nj": 3}

    def test_kept_totals_change_no_comparison(self):
        layer_costs = (_layer(cycles=100, energy=10), _layer(cycles=5))
        read = NetworkCost(network_name="n", layer_costs=layer_costs)
        assert read.edp == 105 * 20
        fresh = NetworkCost(network_name="n", layer_costs=layer_costs)
        assert read == fresh and hash(read) == hash(fresh)
        assert repr(read) == repr(fresh)
        assert pickle.loads(pickle.dumps(read)) == fresh
