"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as the
criteria complete.  Heavy reach runs are shared through module fixtures.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from symreach.abstraction import check_fsr, construct_virtual_model
from symreach.dynamics import (Dynamics, DynamicsId, simulate,
                               state_deviation)
from symreach.geom import (AffineMap, Region, box, transform_region)
from symreach.reach import (Metrics, SafetyCache, TubeCache,
                            compute_reachset, mode_reach, overapprox_error,
                            transform_back, verdict, occupied_cells)
from symreach.scenarios import (build_automaton, build_map, load_scenario)
from symreach.symmetry import (SymmetryPair, check_equivariance,
                               make_translation_map, make_tr_map)

from conftest import scenario_path

ROBOT = Dynamics(DynamicsId.ROBOT, v=1.0, L=0.4)
LINEAR = Dynamics(DynamicsId.LINEAR3D)


def report(num, ok, detail):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, flush=True)
    assert ok, line


# ---------------------------------------------------------------------------
# shared runs
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def s_scenario():
    return load_scenario(scenario_path("s_shaped.scn"))


@pytest.fixture(scope="module")
def s_runs(s_scenario):
    s = s_scenario
    a = build_automaton(s)
    g = s.grid()
    out = {"a": a, "g": g}
    out["ns"] = compute_reachset(a, s.jmax, g, s.dt, "ns")
    for kind in ("t", "tr"):
        phi = build_map(replace(s, map_kind=kind), s.dyn())
        out[f"phi_{kind}"] = phi
        out[f"sc_{kind}"] = compute_reachset(a, s.jmax, g, s.dt, "sc", phi=phi)
        out[f"sv_{kind}"] = compute_reachset(a, s.jmax, g, s.dt, "sv", phi=phi)
    out["ns_vols"] = out["ns"].per_index_init_volumes(a)
    return out


@pytest.fixture(scope="module")
def rect_runs():
    out = {}
    for name in ("rectangle", "rectangle_road"):
        s = load_scenario(scenario_path(f"{name}.scn"))
        a = build_automaton(s)
        g = s.grid()
        phi = build_map(s, s.dyn())
        out[name] = {
            "a": a, "g": g, "phi": phi,
            "ns": compute_reachset(a, s.jmax, g, s.dt, "ns"),
            "sv": compute_reachset(a, s.jmax, g, s.dt, "sv", phi=phi),
        }
    return out


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_01_virtual_structure():
    t0 = time.time()
    results = []

    s = load_scenario(scenario_path("rectangle.scn"))
    va = construct_virtual_model(build_automaton(s), build_map(s, s.dyn()))
    results.append((len(va.auto.modes), len(va.auto.edges)) == (1, 1))

    s = load_scenario(scenario_path("rectangle_road.scn"))
    a = build_automaton(s)
    va_tr = construct_virtual_model(a, make_tr_map(s.dyn()))
    results.append((len(va_tr.auto.modes), len(va_tr.auto.edges)) == (3, 3))
    want = {-np.sqrt(5.0), -3.0, -5.0}
    got = sorted(float(v[0]) for v in va_tr.auto.modes)
    results.append(all(min(abs(g - w) for w in want) <= 1e-9 for g in got))
    results.append(all(np.max(np.abs(v[1:])) <= 1e-9 for v in va_tr.auto.modes))
    va_t = construct_virtual_model(a, make_translation_map(s.dyn()))
    results.append((len(va_t.auto.modes), len(va_t.auto.edges)) == (5, 5))

    s = load_scenario(scenario_path("s_shaped.scn"))
    a = build_automaton(s)
    va_t = construct_virtual_model(a, make_translation_map(s.dyn()))
    va_tr = construct_virtual_model(a, make_tr_map(s.dyn()))
    results.append((len(va_t.auto.modes), len(va_t.auto.edges)) == (3, 4))
    results.append((len(va_tr.auto.modes), len(va_tr.auto.edges)) == (2, 2))

    s = load_scenario(scenario_path("koch.scn"))
    a = build_automaton(s)
    va_t = construct_virtual_model(a, make_translation_map(s.dyn()))
    va_tr = construct_virtual_model(a, make_tr_map(s.dyn()))
    results.append((len(va_t.auto.modes), len(va_t.auto.edges)) == (6, 8))
    results.append((len(va_tr.auto.modes), len(va_tr.auto.edges)) == (2, 2))

    dt = time.time() - t0
    report(1, all(results) and dt < 5 * 1.0,
           f"virtual structure: rect 1/1 & 3/3 (P_v exact) & 5/5, "
           f"S 3/4 & 2/2, Koch 6/8 & 2/2 in {dt:.2f}s")


def test_criterion_02_equivariance():
    t0 = time.time()
    worst = 0.0
    for dyn in (ROBOT, LINEAR):
        road = np.array([1.0, 2.0, 4.0, 5.0]) if dyn.id is DynamicsId.ROBOT \
            else np.array([1.0, 2.0, 0.0, 4.0, 5.0, 0.0])
        for phi in (make_translation_map(dyn), make_tr_map(dyn)):
            rep = check_equivariance(dyn, phi.pair(road), road,
                                     samples=1000, seed=5, tol=1e-9)
            worst = max(worst, rep["max_residual"])
    good = make_tr_map(ROBOT).pair(np.array([1.0, 2.0, 4.0, 5.0]))
    broken = SymmetryPair.from_gamma(good.gamma, AffineMap.identity(4))
    ctrl = check_equivariance(ROBOT, broken, np.array([1.0, 2.0, 4.0, 5.0]),
                              samples=1000, seed=5, tol=1e-2)
    dt = time.time() - t0
    report(2, worst < 1e-9 and ctrl["max_residual"] > 1e-2 and dt < 1.0,
           f"equivariance residual {worst:.1e} < 1e-9; broken control "
           f"{ctrl['max_residual']:.1e} > 1e-2 in {dt:.2f}s")


def test_criterion_03_solution_transport():
    t0 = time.time()
    worst = 0.0
    rng = np.random.default_rng(31)
    for dyn in (ROBOT, LINEAR):
        road = np.array([1.0, 2.0, 4.0, 5.0]) if dyn.id is DynamicsId.ROBOT \
            else np.array([1.0, 2.0, 0.0, 4.0, 5.0, 0.0])
        for phi in (make_translation_map(dyn), make_tr_map(dyn)):
            pair = phi.pair(road)
            for _ in range(20):
                x0 = rng.uniform([-2, -2, -1], [2, 2, 1])
                t1 = simulate(dyn, x0, road, 4.0, 0.01)
                t2 = simulate(dyn, pair.gamma(x0), pair.rho(road), 4.0, 0.01)
                dev = state_deviation(dyn, pair.gamma(t1.states), t2.states)
                worst = max(worst, dev)
    dt = time.time() - t0
    report(3, worst < 1e-5 and dt < 5.0,
           f"solution transport sup-deviation {worst:.1e} < 1e-5 over "
           f"20 cases x 4 (dynamics, map) in {dt:.2f}s")


def test_criterion_04_fsr_suite():
    t0 = time.time()
    total_viol = 0
    combos = []
    for name in ("rectangle_road", "s_shaped", "koch", "random"):
        s = load_scenario(scenario_path(f"{name}.scn"))
        a = build_automaton(s)
        for kind in ("t", "tr"):
            phi = build_map(replace(s, map_kind=kind), s.dyn())
            va = construct_virtual_model(a, phi)
            rep = check_fsr(a, va, phi, n_execs=50, max_transitions=8,
                            seed=100, dt=s.dt)
            combos.append((name, kind, len(rep["violations"])))
            total_viol += len(rep["violations"])
    # negative control: guards shrunk by half must break the relation
    s = load_scenario(scenario_path("rectangle.scn"))
    a = build_automaton(s)
    phi = build_map(s, s.dyn())
    va = construct_virtual_model(a, phi)
    with np.errstate(invalid="ignore"):
        for ev, g in list(va.auto.guards.items()):
            shrunk = []
            for p in g.polys:
                bx = p.as_box()
                c = np.where(np.isfinite(bx.center), bx.center, 0.0)
                w = np.where(np.isfinite(bx.widths), bx.widths / 2, bx.widths)
                shrunk.append(box(c, w).to_polytope())
            va.auto.guards[ev] = Region(tuple(shrunk), 3)
    ctrl = check_fsr(a, va, phi, n_execs=50, max_transitions=8, seed=100)
    dt = time.time() - t0
    report(4, total_viol == 0 and len(ctrl["violations"]) >= 1 and dt < 120,
           f"FSR: 0 violations across {combos}; corrupted-guard control "
           f"{len(ctrl['violations'])} violations in {dt:.1f}s")


def test_criterion_05_sv_soundness_vs_ns(s_runs, rect_runs):
    t0 = time.time()
    ok = True
    details = []
    for label, ns, sv, a, g, phi in (
            ("s/t", s_runs["ns"], s_runs["sv_t"], s_runs["a"], s_runs["g"],
             s_runs["phi_t"]),
            ("s/tr", s_runs["ns"], s_runs["sv_tr"], s_runs["a"], s_runs["g"],
             s_runs["phi_tr"]),
            ("rect", rect_runs["rectangle"]["ns"],
             rect_runs["rectangle"]["sv"], rect_runs["rectangle"]["a"],
             rect_runs["rectangle"]["g"], rect_runs["rectangle"]["phi"]),
            ("rect_road", rect_runs["rectangle_road"]["ns"],
             rect_runs["rectangle_road"]["sv"],
             rect_runs["rectangle_road"]["a"],
             rect_runs["rectangle_road"]["g"],
             rect_runs["rectangle_road"]["phi"])):
        assert sv.fixed_point, f"{label}: no fixed point"
        n = len(ns.segments)
        segs = transform_back(sv.dct, phi, a, sv.va, g, range(n))
        bad = sum(0 if ns.segments[i].seg_cells.issubset(segs[i].cells)
                  else 1 for i in range(n))
        details.append(f"{label}:{n}segs")
        ok = ok and bad == 0
    dt = time.time() - t0
    report(5, ok and dt < 600,
           f"every NS segment cellwise inside the SV transformed segment "
           f"({', '.join(details)}) in {dt:.1f}s")


def test_criterion_06_fixed_point_copy_counts(s_runs):
    cp_t = s_runs["sv_t"].metrics.cp
    cp_tr = s_runs["sv_tr"].metrics.cp
    report(6, cp_t == 11 and cp_tr == 13,
           f"S-shaped robot copies: SV/T {cp_t}/16 (want 11), "
           f"SV/TR {cp_tr}/16 (want 13), fixed points at defaults")


def test_criterion_07_method_orderings(s_runs):
    ns, a = s_runs["ns"], s_runs["a"]
    ns_vols = s_runs["ns_vols"]
    oks = []
    errs = {}
    for kind in ("t", "tr"):
        sc = s_runs[f"sc_{kind}"]
        sv = s_runs[f"sv_{kind}"]
        errs[("sc", kind)] = overapprox_error(
            ns_vols, sc.per_index_init_volumes(a))
        errs[("sv", kind)] = overapprox_error(
            ns_vols, sv.per_index_init_volumes(a))
        oks.append(sv.metrics.tot < sc.metrics.tot <= ns.metrics.tot)
        oks.append(sc.metrics.co < ns.metrics.co)
        oks.append(sv.metrics.wall_time < ns.metrics.wall_time)
        oks.append(errs[("sv", kind)] >= errs[("sc", kind)] - 1e-9)
    oks.append(abs(errs[("sc", "t")]) < 1e-9)
    oks.append(23.4 / 3 <= errs[("sv", "t")] <= 23.4 * 3)
    oks.append(140.8 / 3 <= errs[("sv", "tr")] <= 140.8 * 3)
    report(7, all(oks),
           "orderings: SV.tot < SC.tot <= NS.tot and SC.co < NS.co and "
           "SV time < NS time per map; "
           f"errors SC/T={errs[('sc','t')]:.2f}% (=0), "
           f"SC/TR={errs[('sc','tr')]:.2f}%, "
           f"SV/T={errs[('sv','t')]:.1f}% (23.4 x3), "
           f"SV/TR={errs[('sv','tr')]:.1f}% (140.8 x3)")


def test_criterion_08_unbounded_verification():
    t0 = time.time()
    s = load_scenario(scenario_path("infinite_s.scn"))
    a = build_automaton(s)
    phi = build_map(s, s.dyn())
    res = compute_reachset(a, None, s.grid(), s.dt, "sv", phi=phi,
                           emit_segments=s.emit_segments)
    out, _ = verdict(res, s.unsafe_region(), a, phi, None, True)
    cp = res.metrics.cp
    seg99 = transform_back(res.dct, phi, a, res.va, res.grid, [99])[0]
    dt = time.time() - t0
    report(8, out == "Safe" and cp >= 94 and len(seg99.cells) > 0
           and dt < 300,
           f"infinite S verdict {out} with J=inf; "
           f"{cp} of 100 segments copied (>= 94); 100th segment produced "
           f"by transform-back in {dt:.1f}s")


def test_criterion_09_cache_algebra(s_runs):
    # scripted getIntersect sequence: exact hits and misses per the
    # three-case subsumption table
    g = s_runs["g"]

    def cells_of(c, w):
        return occupied_cells(Region.from_boxes([box(c, w)]), g)

    K1 = cells_of([0.0, 0.0, 0.0], [0.4, 0.4, 0.4])
    K2 = cells_of([0.0, 0.0, 0.0], [0.8, 0.8, 0.8])
    K3 = cells_of([0.0, 0.0, 0.0], [1.2, 1.2, 1.2])
    U1 = Region.from_boxes([box([5.0, 0.0, 0.0], [1.0, 1.0, 1.0])])
    U2 = Region.from_boxes([box([5.0, 0.0, 0.0], [2.0, 2.0, 2.0])])
    U3 = Region.from_boxes([box([5.0, 0.0, 0.0], [3.0, 3.0, 3.0])])
    sc = SafetyCache()
    script = []
    # 1-2: misses on the empty cache, then seed one safe entry
    script.append((sc.get_intersect(K2, 4.0, U2), None))
    sc.store_intersect(K2, 4.0, U2, True)
    script.append((sc.get_intersect(K1, 3.0, U1), True))   # subsumed: safe
    script.append((sc.get_intersect(K2, 4.0, U2), True))   # identical
    script.append((sc.get_intersect(K3, 4.0, U2), None))   # larger K: miss
    script.append((sc.get_intersect(K2, 5.0, U2), None))   # longer T: miss
    script.append((sc.get_intersect(K2, 4.0, U3), None))   # larger U: miss
    sc.store_intersect(K3, 6.0, U3, False)                  # unsafe entry
    script.append((sc.get_intersect(K3, 6.0, U3), False))  # identical unsafe
    script.append((sc.get_intersect(K3, 7.0, U3), False))  # longer: unsafe
    script.append((sc.get_intersect(K1, 5.0, U3), None))   # smaller K: miss
    script.append((sc.get_intersect(K3, 5.0, U3), None))   # shorter T: miss
    script.append((sc.get_intersect(K1, 4.0, U2), True))
    script.append((sc.get_intersect(K2, 3.9, U1), True))
    script.append((sc.get_intersect(K3, 6.5, U3), False))
    script.append((sc.get_intersect(K1, 0.5, U1), True))
    script.append((sc.get_intersect(K3, 8.0, U3), False))
    script.append((sc.get_intersect(K2, 4.1, U2), None))
    script.append((sc.get_intersect(K1, 4.0, U3), None))
    script.append((sc.get_intersect(K2, 4.0, U1), True))
    script.append((sc.get_intersect(K3, 4.0, U1), None))
    script.append((sc.get_intersect(K1, 6.0, U2), None))
    ok_script = all(got == want for got, want in script)

    # repeated identical reach queries add nothing to #co
    a = s_runs["a"]
    cache = TubeCache()
    m = Metrics()
    e = (0, 1)
    want = {e: a.guards[e]}
    maps = {e: a.resets[e]}
    mode_reach(a.init_set, a.modes[0], a.time_bounds[0], want, maps, g,
               0.01, cache, ("c", 0), m, a.dyn)
    co_first = m.co
    mode_reach(a.init_set, a.modes[0], a.time_bounds[0], want, maps, g,
               0.01, cache, ("c", 0), m, a.dyn)
    report(9, ok_script and len(script) == 20 and m.co == co_first,
           f"20 scripted subsumption queries answered exactly; repeated "
           f"reach query added 0 to #co (stayed {co_first})")


def test_criterion_10_numerical_substrate():
    # RK4 order
    ratios = []
    for dyn, x0, p in ((LINEAR, np.array([2.0, -1.0, 1.5]), np.zeros(3)),
                       (ROBOT, np.array([-4.0, -0.5, -np.pi / 4]),
                        np.array([0.0, 0.0]))):
        T = 1.6
        ref = simulate(dyn, x0, p, T, T / 3200).lstate
        e1 = state_deviation(dyn, simulate(dyn, x0, p, T, T / 16).lstate, ref)
        e2 = state_deviation(dyn, simulate(dyn, x0, p, T, T / 32).lstate, ref)
        ratios.append(e1 / e2)
    ok_rk4 = all(8.0 <= r <= 32.0 for r in ratios)

    # linear closed form at dt=1e-3 over T=1
    x0 = np.array([2.0, -1.0, 3.0])
    p = np.array([0.5, 0.5, 0.5])
    tr = simulate(LINEAR, x0, p, 1.0, 1e-3)
    t = np.arange(tr.states.shape[0]) * 1e-3
    closed = p + np.exp(np.outer(t, [-3.0, -3.0, -1.0])) * (x0 - p)
    lin_err = float(np.max(np.abs(tr.states - closed)))

    # affine region round trip
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(20):
        A = rng.normal(size=(3, 3))
        while abs(np.linalg.det(A)) < 0.3:
            A = rng.normal(size=(3, 3))
        mmap = AffineMap(A, rng.normal(size=3))
        r = Region.from_boxes([box(rng.normal(size=3), [1.0, 1.5, 0.8])])
        back = transform_region(transform_region(r, mmap), mmap.inverse())
        bb1 = r.polys[0].bounding_box()
        bb2 = back.polys[0].bounding_box()
        worst = max(worst, float(np.max(np.abs(bb1.lo - bb2.lo))),
                    float(np.max(np.abs(bb1.hi - bb2.hi))))
    report(10, ok_rk4 and lin_err < 1e-6 and worst < 1e-7,
           f"RK4 ratios {[f'{r:.1f}' for r in ratios]} in [8,32]; "
           f"linear closed-form error {lin_err:.1e} < 1e-6; "
           f"round-trip {worst:.1e} < 1e-7")
