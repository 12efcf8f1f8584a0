"""Symmetry-based abstraction and reachability for hybrid automata.

The package verifies safety of waypoint-following vehicle models by
collapsing symmetric modes of a hybrid automaton into an abstract
(virtual) automaton, computing the abstract reachset to a fixed point,
and transforming per-mode reachsets back to answer concrete, possibly
unbounded-horizon, safety queries.
"""

from .dynamics import Dynamics, DynamicsId, Trajectory, simulate
from .geom import (AffineMap, CellSet, ConvexPolytope, Grid, HyperRect,
                   Region, box, occupied_cells, transform_region)
from .automaton import (Execution, HybridAutomaton, build_road_automaton,
                        build_waypoint_automaton)
from .symmetry import (SymmetryPair, VirtualMap, check_equivariance,
                       make_tr_map, make_translation_map)
from .abstraction import VirtualAutomaton, check_fsr, construct_virtual_model
from .reach import (Metrics, PerModeDict, SafetyCache, TubeCache,
                    check_fixed_point, compute_reachset, mode_reach,
                    overapprox_error, sym_safety, transform_back,
                    unbounded_verif, verdict)
from .scenarios import Scenario, load_scenario

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
