import hypothesis
import pytest

from besspp.designer import design_layer1
from besspp.scenario import default_scenario
from besspp.supply import SupplyDistribution, flatten_distribution

hypothesis.settings.register_profile(
    "besspp", deadline=None, derandomize=True
)
hypothesis.settings.load_profile("besspp")


@pytest.fixture(scope="session")
def supply9() -> SupplyDistribution:
    return SupplyDistribution(mean_kwh=37.5, std_kwh=9.375)


@pytest.fixture(scope="session")
def expected9(supply9):
    return flatten_distribution(supply9, 9)


@pytest.fixture(scope="session")
def layer1_9(supply9, expected9):
    # Rated output 150 kW against the 337.5 kWh expected pack.
    return design_layer1(expected9, supply9.voltage_v, 3, 2.25)


@pytest.fixture(scope="session")
def scenario_default():
    return default_scenario()
