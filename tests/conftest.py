import os

import numpy as np

from symreach.automaton import build_road_automaton, build_waypoint_automaton
from symreach.dynamics import Dynamics, DynamicsId
from symreach.geom import Grid, Region, box
from symreach.scenarios import RECT_WAYPOINTS, rectangle_roads, s_shaped_roads

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), "..", "scenarios")

# the start boxes of rectangle_road.scn and rectangle.scn: the waypoint-mode
# rectangle starts a full long-leg away from w0 so one per-mode time bound
# serves both the first visit and later revisits
RECT_INIT_CENTER = np.array([-4.4, -0.4, -np.pi / 4])
RECT_WP_INIT_CENTER = np.array([-7.4, -1.4, 0.0])


def scenario_path(name: str) -> str:
    return os.path.abspath(os.path.join(SCENARIO_DIR, name))


def robot() -> Dynamics:
    return Dynamics(DynamicsId.ROBOT, v=1.0, L=0.4)


def linear() -> Dynamics:
    return Dynamics(DynamicsId.LINEAR3D)


def state_grid(dyn: Dynamics) -> Grid:
    wrap = np.array([0.0, 0.0, 2 * np.pi]) if dyn.id is DynamicsId.ROBOT else None
    return Grid(np.zeros(3), np.array([0.2, 0.2, np.pi / 16]), wrap=wrap)


def rect_eps():
    return np.array([1.0, 1.4]), np.array([0.6, 1.0])


def rect_road_automaton(dyn=None, slack=1.5):
    dyn = dyn or robot()
    roads = rectangle_roads()
    tbs = [np.linalg.norm(np.asarray(d) - np.asarray(s)) / dyn.v + slack
           for (s, d) in roads]
    init = Region.from_boxes([box(RECT_INIT_CENTER, [0.8, 0.8, np.pi / 2])])
    e0, e1 = rect_eps()
    return build_road_automaton(roads, e0, e1, dyn, init_set=init,
                                time_bound=tbs, path_len=16)


def rect_waypoint_automaton(dyn=None, loops=4):
    dyn = dyn or robot()
    init = Region.from_boxes([box(RECT_WP_INIT_CENTER, [0.8, 0.8, np.pi / 2])])
    e0, e1 = rect_eps()
    return build_waypoint_automaton(RECT_WAYPOINTS, e0, e1, dyn, loops=loops,
                                    init_set=init,
                                    time_bound=[5.0, 3.3, 5.0, 3.2])


def s_road_automaton(dyn=None, slack=1.5, eps=None):
    dyn = dyn or robot()
    roads = s_shaped_roads()
    tbs = [np.linalg.norm(d - s) / dyn.v + slack for (s, d) in roads]
    widths = [0.4, 0.4, np.pi / 2] if dyn.id is DynamicsId.ROBOT \
        else [0.4, 0.4, 0.4]
    init = Region.from_boxes([box([0.0, 0.0, 0.0], widths)])
    e = np.array([0.6, 1.0]) if eps is None else np.asarray(eps)
    return build_road_automaton(roads, e, e, dyn, init_set=init,
                                time_bound=tbs)
