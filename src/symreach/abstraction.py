"""Constructing the abstract (virtual) automaton from a concrete one and a
symmetry family, and the sampled forward-simulation-relation checker.

Construction, per virtual mode/edge:

* modes: images rv(p), deduplicated at 1e-9,
* initial set: gamma of the concrete initial set, initial mode rv(p_init),
* guards: union over the concrete edge class of gamma_src(guard(e)),
  each polytope kept once (the first of any bitwise-equal copies),
* resets: the composite maps gamma_dst o reset o gamma_src^-1, kept
  intensionally with their provenance (the reset is state-dependent),
* time bound: max over the mode class,
* dynamics: unchanged (virtual mode vectors chase the origin by design).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from .automaton import Edge, HybridAutomaton, sample_executions
from .dynamics import state_deviation
from .geom import AffineMap, Region
from .symmetry import VirtualMap

MODE_DEDUP_TOL = 1e-9


@dataclass
class VirtualAutomaton:
    auto: HybridAutomaton
    mode_classes: Dict[int, List[int]]           # virtual mode -> concrete modes
    edge_classes: Dict[Edge, List[Edge]]         # virtual edge -> concrete edges
    reset_provenance: Dict[Edge, List[Tuple[Edge, AffineMap]]]
    concrete_to_virtual: List[int]

    def reset_maps(self, e_v: Edge, dedup: bool = True) -> List[AffineMap]:
        maps = [m for (_, m) in self.reset_provenance[e_v]]
        if not dedup:
            return maps
        kept: List[AffineMap] = []
        for m in maps:
            if not any(m.equals(k) for k in kept):
                kept.append(m)
        return kept


def construct_virtual_model(a: HybridAutomaton, phi: VirtualMap) -> VirtualAutomaton:
    rv_vecs = [phi.rv(p) for p in a.modes]
    vmodes: List[np.ndarray] = []
    c2v: List[int] = []
    for vec in rv_vecs:
        found = None
        for k, existing in enumerate(vmodes):
            if np.max(np.abs(existing - vec)) <= MODE_DEDUP_TOL:
                found = k
                break
        if found is None:
            vmodes.append(vec)
            found = len(vmodes) - 1
        c2v.append(found)

    mode_classes: Dict[int, List[int]] = {k: [] for k in range(len(vmodes))}
    for i, k in enumerate(c2v):
        mode_classes[k].append(i)

    edge_classes: Dict[Edge, List[Edge]] = {}
    for (s, d) in a.edges:
        ev = (c2v[s], c2v[d])
        edge_classes.setdefault(ev, []).append((s, d))
    vedges = list(edge_classes.keys())

    guards_v: Dict[Edge, Region] = {}
    provenance: Dict[Edge, List[Tuple[Edge, AffineMap]]] = {}
    for ev, cls in edge_classes.items():
        polys = []
        seen = set()
        prov: List[Tuple[Edge, AffineMap]] = []
        for e in cls:
            g_src = phi.gamma(a.modes[e[0]])
            for p in a.guards[e].polys:
                img = p.transform(g_src)
                bits = (img.A.shape, img.A.tobytes(), img.b.tobytes())
                if bits not in seen:    # a bitwise copy adds nothing
                    seen.add(bits)
                    polys.append(img)
            g_dst = phi.gamma(a.modes[e[1]])
            g_src_inv = phi.gamma_inv(a.modes[e[0]])
            for r in a.resets[e]:
                prov.append((e, g_dst.compose(r).compose(g_src_inv)))
        guards_v[ev] = Region(tuple(polys), a.dim)
        provenance[ev] = prov

    resets_v: Dict[Edge, List[AffineMap]] = {
        ev: [m for (_, m) in prov] for ev, prov in provenance.items()}

    tb_v = [max(a.time_bounds[i] for i in mode_classes[k])
            for k in range(len(vmodes))]

    theta_v = Region(tuple(p.transform(phi.gamma(a.modes[a.init_mode]))
                           for p in a.init_set.polys), a.dim)

    vpath = [c2v[i] for i in a.path]
    auto_v = HybridAutomaton(a.dim, vmodes, theta_v, c2v[a.init_mode], vedges,
                             guards_v, resets_v, a.dyn, tb_v, path=vpath)
    return VirtualAutomaton(auto_v, mode_classes, edge_classes, provenance, c2v)


def dump_structure(va: VirtualAutomaton) -> str:
    """Readable summary of the abstract automaton (modes, edges, classes,
    guard bounding boxes) for reports and plot tooling."""
    out = []
    a = va.auto
    out.append(f"virtual modes: {len(a.modes)}  virtual edges: {len(a.edges)}")
    for k, vec in enumerate(a.modes):
        cls = va.mode_classes[k]
        out.append(f"  mode {k}: rv={np.array2string(vec, precision=6)} "
                   f"T={a.time_bounds[k]:g} class={cls}")
    for ev in a.edges:
        cls = va.edge_classes[ev]
        bb = a.guards[ev].bounding_box()
        out.append(f"  edge {ev[0]}->{ev[1]}: class={cls} "
                   f"guard_bbox=[{np.array2string(bb.lo, precision=6)}, "
                   f"{np.array2string(bb.hi, precision=6)}] "
                   f"resets={len(va.reset_provenance[ev])}")
    return "\n".join(out)


@dataclass
class FsrViolation:
    exec_index: int
    step: int
    kind: str
    detail: str


def check_fsr(a: HybridAutomaton, va: VirtualAutomaton, phi: VirtualMap,
              n_execs: int = 50, max_transitions: int = 8, seed: int = 0,
              dt: float = 0.01, tol: float = 1e-5) -> dict:
    """Sample concrete executions, build their images under the relation
    (x_v = gamma_p(x), p_v = rv(p)) and verify they are executions of the
    abstract automaton.

    Checks per execution: the image start lies in the abstract initial set;
    every image transition satisfies the abstract guard and lands on some
    reset image; every image trajectory re-simulates under the abstract
    dynamics within ``tol``.
    """
    from .dynamics import simulate_batch

    violations: List[FsrViolation] = []
    av = va.auto
    execs = sample_executions(a, n_execs, seed, max_transitions, dt=dt)
    images = []
    groups: dict = {}
    for j, ex in enumerate(execs):
        vpairs = []
        for k, (traj, mode) in enumerate(ex.pairs):
            g = phi.gamma(a.modes[mode])
            states_v = g(traj.states)
            vmode = va.concrete_to_virtual[mode]
            vpairs.append((states_v, vmode, traj, mode))
            groups.setdefault((vmode, traj.states.shape[0],
                               round(traj.duration, 12)), []).append(
                (j, k, states_v))
        images.append(vpairs)

    # flow condition: image trajectories solve the abstract dynamics
    flow_dev: dict = {}
    for (vmode, n_pts, dur), items in groups.items():
        X0 = np.stack([sv[0] for (_, _, sv) in items])
        resim = simulate_batch(av.dyn, X0, av.modes[vmode], dur, dt)
        for row, (j, k, sv) in enumerate(items):
            flow_dev[(j, k)] = state_deviation(av.dyn, resim[row], sv)

    for j, vpairs in enumerate(images):
        x0_v = vpairs[0][0][0]
        if not av.init_set.contains_point(x0_v, tol=1e-7):
            violations.append(FsrViolation(j, 0, "init",
                                           "image start outside abstract initial set"))
        for k in range(len(vpairs)):
            states_v, vmode, traj, mode = vpairs[k]
            dev = flow_dev[(j, k)]
            if dev > tol:
                violations.append(FsrViolation(j, k, "flow",
                                               f"trajectory deviation {dev:.2e}"))
            if k + 1 < len(vpairs):
                nxt_states_v, nxt_vmode, _, nxt_mode = vpairs[k + 1]
                ev = (vmode, nxt_vmode)
                if ev not in av.guards:
                    violations.append(FsrViolation(j, k, "edge",
                                                   "image edge missing"))
                    continue
                x_v = states_v[-1]
                if not av.guards[ev].contains_point(x_v, tol=1e-7):
                    violations.append(FsrViolation(j, k, "guard",
                                                   "image exit state outside guard"))
                imgs = [m(x_v) for m in va.reset_maps(ev, dedup=False)]
                tgt = nxt_states_v[0]
                if not any(state_deviation(av.dyn, img, tgt) <= max(tol, 1e-7)
                           for img in imgs):
                    violations.append(FsrViolation(j, k, "reset",
                                                   "image post-state not a reset image"))
    return {"violations": violations, "n_execs": n_execs}
