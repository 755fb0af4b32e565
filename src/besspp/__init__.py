"""Design and evaluation toolkit for second-use battery energy storage.

Retired EV battery modules come back with scattered residual capacities.
This package models that supply, sizes partial power processing converter
networks around it (dedicated, adjacent-ladder, and sparse hierarchical
layouts), and evaluates the resulting storage units in a stochastic EV
charging plaza simulation.
"""

__version__ = "0.1.0"
