"""Whole-package acceptance checks, one test per numbered contract item.

Each test prints exactly one PASS/FAIL line with the measured figures, so
``pytest -rA tests/test_acceptance.py`` doubles as the acceptance report.
Criteria 8-10 share a single desk-scale rotating-line scan whose expensive
pieces (traces, system matrices, reconstructions) are built lazily on first
use and cached for the later criteria.
"""

import math
import time

import numpy as np

from mpisim import fbp as fbp_mod
from mpisim import fields, forward, magnetization, phantom, recon, sysmat

MU0 = 4e-7 * math.pi


def _report(num: int, ok: bool, detail: str, elapsed: float, budget: float):
    line = (f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} ({detail}) "
            f"[{elapsed:.1f}s / {budget:.0f}s]")
    print(line)
    assert ok, line
    assert elapsed < budget, line


# --- 1: Langevin derivative ---------------------------------------------------

def test_criterion_1_langevin_derivative():
    t0 = time.time()
    exact = magnetization.langevin_derivative(0.0) == 1.0 / 3.0
    rng = np.random.default_rng(10)
    x = rng.uniform(-50.0, 50.0, 1000)
    x = np.where(np.abs(x) < 1e-9, 0.5, x)  # the criterion excludes x = 0
    h = 1e-3
    centered = (magnetization.langevin(x + h)
                - magnetization.langevin(x - h)) / (2.0 * h)
    worst = float(np.max(np.abs(magnetization.langevin_derivative(x) - centered)))
    ok = exact and worst < 1e-6
    _report(1, ok, f"L'(0) = 1/3 exactly: {exact}; max |L' - centered diff| "
                   f"{worst:.1e} < 1e-6 over 1000 x in [-50, 50]",
            time.time() - t0, 1.0)


# --- 2: zero-field loci -------------------------------------------------------

def test_criterion_2_zero_field_loci():
    t0 = time.time()
    rng = np.random.default_rng(20)
    ffp = fields.build_topology("lissajous_ffp", g=1.0, d=(0.012, 0.012, 0.012),
                                f=(25e3, 26e3, 27e3))
    worst_p = 0.0
    for t in rng.uniform(0.0, 1e-3, 100):
        r = fields.ffp_position(ffp, t)
        worst_p = max(worst_p, float(np.linalg.norm(fields.eval_field(ffp, r, t))))

    rot = fields.build_topology("rotating_ffl", g=1.0, d=0.1, f_d=25e3, f_rot=1e3)
    stat = fields.build_topology("static_ffl", g=1.0, d=0.1, f_d=25e3, alpha=0.4)
    worst_l = 0.0
    for model in (rot, stat):
        for t in rng.uniform(0.0, 1e-3, 500):
            locus = fields.ffl_locus(model, t)
            point = locus.point + rng.uniform(-0.03, 0.03) * locus.direction
            worst_l = max(worst_l,
                          float(np.linalg.norm(fields.eval_field(model, point, t))))
    ok = worst_p < 1e-12 and worst_l < 1e-12
    _report(2, ok, f"max |B| at 100 FFP instants {worst_p:.1e} T, at 1000 "
                   f"line points {worst_l:.1e} T (< 1e-12)",
            time.time() - t0, 5.0)


# --- 3: harmonicity of every field component ----------------------------------

def _laplacian_residuals(model, pts, t, h):
    """Max |7-point discrete Laplacian| per field component, units T/m^2."""
    acc = -6.0 * fields.eval_field(model, pts, t)
    for axis in range(3):
        step = np.zeros(3)
        step[axis] = h
        acc += fields.eval_field(model, pts + step, t)
        acc += fields.eval_field(model, pts - step, t)
    return np.max(np.abs(acc), axis=0) / h ** 2


def test_criterion_3_harmonicity():
    t0 = time.time()
    rng = np.random.default_rng(30)
    pts = rng.uniform(-0.015, 0.015, (30, 3))
    built_ins = (
        fields.build_topology("lissajous_ffp", g=1.0, d=(0.012, 0.012, 0.012),
                              f=(25e3, 26e3, 27e3)),
        fields.build_topology("line_ffp", g=1.0, d=(0.012, 0.012, 0.012), f_d=25e3),
        fields.build_topology("rotating_ffl", g=1.0, d=0.1, f_d=25e3, f_rot=1e3),
        fields.build_topology("static_ffl", g=1.0, d=0.1, f_d=25e3, alpha=0.4),
    )
    pert = fields.perturb_field(built_ins[2], seed=1, magnitude=0.35)
    assert max(t.degree for t in pert.terms) == 4

    # The ideal topologies are degree <= 1 solid harmonics: the 7-point stencil
    # annihilates them exactly, so their residual sits at the roundoff floor at
    # any h and "O(h^2) -> 0" degenerates.  Components above the floor (the
    # perturbed transverse ones, degree up to 4) must shrink by 4 +- 0.5.
    h, floor = 4e-3, 1e-8
    n_floor, ratios, oks = 0, [], []
    for model in built_ins + (pert,):
        coarse = _laplacian_residuals(model, pts, 1.3e-5, h)
        fine = _laplacian_residuals(model, pts, 1.3e-5, h / 2.0)
        for rc, rf in zip(coarse, fine):
            if rc < floor and rf < floor:
                n_floor += 1
                oks.append(True)
            else:
                ratios.append(rc / rf)
                oks.append(3.5 <= rc / rf <= 4.5)
    ok = all(oks)
    _report(3, ok, f"{n_floor} exactly-harmonic components at roundoff floor "
                   f"(< {floor:g} T/m^2); halving-h ratios "
                   + "/".join(f"{r:.3f}" for r in ratios) + " within 4+-0.5",
            time.time() - t0, 10.0)


# --- 4: staircase approximation error bounds ----------------------------------

def test_criterion_4_staircase_error_bounds():
    t0 = time.time()
    params = magnetization.LangevinParams(1.0, 1600.0)  # default-config particles
    b = 0.010
    sup2 = magnetization.sup_second_derivative(params, b)
    xs = np.linspace(0.0, b, 20001, endpoint=False)  # sup over [0, b)
    dtrue = magnetization.mbar_prime(params, xs)
    mtrue = magnetization.mbar(params, xs)

    worst1 = worst2 = 0.0  # largest observed error / bound ratios
    for n in (4, 8, 16, 32):
        node_sets = (
            magnetization.nodes_equidistant(n, b),
            magnetization.nodes_l1_optimal(n, b, params, scheme="tangent"),
        )
        for nodes in node_sets:
            gaps = np.diff(np.concatenate([[0.0], nodes, [b]]))
            bound1 = sup2 * np.max(gaps)
            bound2 = sup2 * np.sum(gaps ** 2)
            for scheme in ("secant", "tangent"):
                ap = magnetization.build_approx(params, nodes, b, scheme=scheme)
                err1 = float(np.max(np.abs(dtrue - ap.eval(xs))))
                err2 = float(np.max(np.abs(mtrue - ap.eval_antiderivative(xs))))
                worst1 = max(worst1, err1 / bound1)
                worst2 = max(worst2, err2 / bound2)

    f_opt = magnetization.l1_functional(
        params, magnetization.nodes_l1_optimal(8, b, params, scheme="tangent"), b)
    f_eq = magnetization.l1_functional(params, magnetization.nodes_equidistant(8, b), b)
    ok = worst1 <= 1.0 and worst2 <= 1.0 and f_opt <= f_eq
    _report(4, ok, f"sup|m'-m'_N| <= {worst1:.2f}x bound, sup|m-m_N| <= "
                   f"{worst2:.2f}x bound over 16 scheme/N/node combinations; "
                   f"F(L1) {f_opt:.3e} <= F(equidistant) {f_eq:.3e}",
            time.time() - t0, 10.0)


# --- 5: model-chain equivalence on a small static-line scene -------------------

def test_criterion_5_model_chain_equivalence():
    t0 = time.time()
    model = fields.build_topology("static_ffl", g=1.0, d=0.02, f_d=25e3, alpha=0.4)
    acq = forward.AcquisitionConfig(f_d=25e3, sample_rate=4e7, duration=4e-5)
    grid = phantom.build_disc_phantom(0.010, [0.008], 0.010 / 16,
                                      centers=[(0.0, 0.0)])
    params = magnetization.LangevinParams(1.0, 2500.0)
    approx = magnetization.build_approx(
        params, magnetization.nodes_equidistant(29, 0.010), 0.010, scheme="secant")
    coil = forward.coil_along("x")

    [par] = forward.simulate_parallel(model, grid, [coil], acq, params)
    [gen] = forward.simulate_general(model, grid, [coil], acq, params)
    [pw] = forward.simulate_piecewise(model, grid, [coil], acq, approx,
                                      subsampling=1)
    sm = sysmat.build_system_matrix(model, approx, [coil], acq, grid,
                                    subsampling=1)
    scale = np.linalg.norm(par.samples)
    gen_rel = float(np.linalg.norm(gen.samples - par.samples) / scale)
    pw_rel = float(np.linalg.norm(pw.samples - par.samples) / scale)
    sc_diff = float(np.max(np.abs(sm.operator() @ grid.flat() - pw.samples)))
    ok = gen_rel < 0.01 and pw_rel < 0.02 and sc_diff <= 1e-12
    _report(5, ok, f"general-vs-parallel {gen_rel:.4f} < 0.01, piecewise-vs-"
                   f"parallel {pw_rel:.4f} < 0.02, max|S c - piecewise| "
                   f"{sc_diff:.1e} <= 1e-12", time.time() - t0, 120.0)


# --- 6: closed-form imaging identities -----------------------------------------

def test_criterion_6_closed_form_identities():
    t0 = time.time()
    params = magnetization.LangevinParams(1.0, 2000.0)
    f_d = 25e3
    acq = forward.AcquisitionConfig(f_d=f_d, sample_rate=4e6, duration=4e-5)
    times = acq.times()
    coil = forward.coil_along("x")
    rho = coil.vector
    base = phantom.empty_grid(0.010, 0.010 / 16)
    scenes = (("point", (((4, 9), 1.0),)),
              ("two-point", (((4, 9), 1.0), ((11, 5), 0.7))))

    def lit(cells):
        vals = np.zeros(base.dims)
        for (ix, iy), v in cells:
            vals[ix, iy, 0] = v
        return base.with_values(vals)

    def point_masses(ph):
        mask = ph.flat() != 0
        return ph.centers()[mask], ph.flat()[mask] * ph.cell_volume

    rel = {}

    # Static line: u = -2 pi d mu0 f_d cos(2 pi f_d t) <rho, e_a>
    #                  * (mbar'(|2g .|) conv Radon c)(d/2g sin(2 pi f_d t)).
    # For one-cell masses the Radon transform is a spike train at s_k =
    # <e_a, r_k>, so the convolution evaluates in closed form.
    g, d, alpha = 1.0, 0.02, 0.4
    ffl = fields.build_topology("static_ffl", g=g, d=d, f_d=f_d, alpha=alpha)
    e_alpha = np.array([math.sin(alpha / 2), -math.cos(alpha / 2), 0.0])
    sweep = d / (2 * g) * np.sin(2 * math.pi * f_d * times)
    pre = (-2 * math.pi * d * MU0 * f_d * np.cos(2 * math.pi * f_d * times)
           * float(rho @ e_alpha))
    for name, cells in scenes:
        ph = lit(cells)
        centers, weights = point_masses(ph)
        s_k = centers @ e_alpha
        conv = weights @ magnetization.mbar_prime(
            params, 2 * g * np.abs(sweep[None, :] - s_k[:, None]))
        [sim] = forward.simulate_parallel(ffl, ph, [coil], acq, params)
        rel[f"line/{name}"] = float(np.linalg.norm(sim.samples - pre * conv)
                                    / np.linalg.norm(sim.samples))

    # Segment drive: u = 2 pi mu0 f_d cos(2 pi f_d t) <rho, G v>
    #                    * (c conv mbar'(|G .|))(r_ffp(t))
    # with G = diag(-g, -g, 2g), v = (dx/g, dy/g, -dz/2g) and the sign fixed
    # by <rho, dB/dt> = -2 pi f_d cos(.) <rho, G v>.
    dvec = np.array([0.02, 0.012, 0.0])
    ffp = fields.build_topology("line_ffp", g=g, d=tuple(dvec), f_d=f_d)
    gmat = np.diag([-g, -g, 2 * g])
    v = np.array([dvec[0] / g, dvec[1] / g, -dvec[2] / (2 * g)])
    r_ffp = v[None, :] * np.sin(2 * math.pi * f_d * times)[:, None]
    pre2 = (2 * math.pi * MU0 * f_d * np.cos(2 * math.pi * f_d * times)
            * float(rho @ (gmat @ v)))
    for name, cells in scenes:
        ph = lit(cells)
        centers, weights = point_masses(ph)
        arg = np.linalg.norm((r_ffp[None, :, :] - centers[:, None, :]) @ gmat,
                             axis=2)
        conv = weights @ magnetization.mbar_prime(params, arg)
        [sim] = forward.simulate_parallel(ffp, ph, [coil], acq, params)
        rel[f"segment/{name}"] = float(np.linalg.norm(sim.samples - pre2 * conv)
                                       / np.linalg.norm(sim.samples))

    ok = all(v < 0.02 for v in rel.values())
    _report(6, ok, "rel L2 " + ", ".join(f"{k} {v:.1e}" for k, v in rel.items())
                   + " (< 0.02)", time.time() - t0, 120.0)


# --- 7: filtered back projection baseline --------------------------------------

def test_criterion_7_fbp_baseline():
    t0 = time.time()
    grid = phantom.build_disc_phantom(0.05, [0.030], 0.05 / 64,
                                      centers=[(0.0, 0.0)])
    disp = np.linspace(-0.025, 0.025, 129)

    def nrmse_at(n_angles):
        angles = (np.arange(n_angles) + 0.5) * math.pi / n_angles
        sino = fbp_mod.radon_transform(grid, angles, disp)
        image = fbp_mod.fbp_reconstruct(sino, grid)
        return recon.nrmse(image, grid)

    full = nrmse_at(180)
    few, many = nrmse_at(25), nrmse_at(250)
    ok = full < 0.15 and few > many
    _report(7, ok, f"NRMSE {full:.4f} < 0.15 at 180 angles; 25 angles "
                   f"{few:.4f} > 250 angles {many:.4f}", time.time() - t0, 60.0)


# --- desk-scale scan shared by criteria 8-10 -----------------------------------

class _DeskScan:
    """Desk-scale rotating-line scan: 64x64 recon grid, 25 projections,
    seeded noise at 1e-3 of the trace RMS, brick-wall high-pass at 1.4 f_d."""

    B = 0.010
    CUTOFF = 35e3  # 1.4 * f_d
    # Frozen by the first oracle run of this scenario; criterion 10 pins the
    # 20-iteration early-stop reconstruction to it within 2%.
    REGRESSION_NRMSE = 0.2908

    def __init__(self):
        discs = (0.020, 0.015, 0.010, 0.007, 0.004)
        self.params = magnetization.LangevinParams(1.0, 1600.0)
        self.acq = forward.AcquisitionConfig(f_d=25e3, sample_rate=4e6,
                                             duration=1e-3, f_rot=1e3)
        self.signal_phantom = phantom.build_disc_phantom(0.100, discs, 0.00125)
        self.reference = phantom.build_disc_phantom(0.100, discs, 0.0015625)
        self.template = phantom.empty_grid(0.100, 0.0015625)
        self.coils = [forward.coil_along("x"), forward.coil_along("y")]
        self.ideal = fields.build_topology("rotating_ffl", g=1.0, d=0.1,
                                           f_d=25e3, f_rot=1e3,
                                           validity_radius=0.1)
        self.perturbed = fields.perturb_field(self.ideal, seed=1, magnitude=0.35)
        self.lsqr_results = []
        self._traces = {}
        self._cache = {}

    def model(self, which: str):
        return self.ideal if which == "ideal" else self.perturbed

    def traces(self, which: str):
        if which not in self._traces:
            clean = forward.simulate_general(self.model(which),
                                             self.signal_phantom, self.coils,
                                             self.acq, self.params, n_workers=4)
            self._traces[which] = [
                forward.apply_highpass(
                    forward.add_noise(tr, 1e-3 * tr.rms, 1 + i), self.CUTOFF)
                for i, tr in enumerate(clean)]
        return self._traces[which]

    def scaled_nrmse(self, image):
        scale = recon.optimal_scale(image, self.reference)
        return recon.nrmse(image.with_values(scale * image.values),
                           self.reference)

    def lsqr_nrmse(self, which="ideal", n=30, b=B, scheme="secant",
                   l1_nodes=False) -> float:
        self.prebuild(which, [(n, b, scheme, l1_nodes)])
        return self._cache[(which, n, b, scheme, l1_nodes)]

    def prebuild(self, which, settings):
        """Reconstruct every (n, b, scheme, l1_nodes) of settings not yet
        cached; their matrices come from one assembly pass."""
        todo = [s for s in dict.fromkeys(settings) if (which, *s) not in self._cache]
        if not todo:
            return
        approxes = []
        for n, b, scheme, l1_nodes in todo:
            if l1_nodes:
                interior = magnetization.nodes_l1_optimal(n - 1, b, self.params,
                                                          scheme=scheme)
            else:
                interior = magnetization.nodes_equidistant(n - 1, b)
            approxes.append(magnetization.build_approx(self.params, interior, b,
                                                       scheme=scheme))
        matrices = sysmat.build_system_matrices(
            self.model(which), approxes, self.coils, self.acq,
            self.template, subsampling=2, n_workers=4)
        rhs = np.concatenate([tr.samples for tr in self.traces(which)])
        for i, setting in enumerate(todo):
            filtered = sysmat.apply_highpass_rows(matrices[i], self.CUTOFF)
            matrices[i] = None
            result = recon.lsqr_solve(filtered.operator(), rhs,
                                      recon.LsqrOptions(max_iterations=20))
            self.lsqr_results.append(result)
            image = self.template.with_values(
                result.x.reshape(self.template.dims, order="F"))
            self._cache[(which, *setting)] = self.scaled_nrmse(image)

    def fbp_nrmse(self, which: str) -> float:
        key = ("fbp", which)
        if key not in self._cache:
            sino = fbp_mod.signal_to_sinogram(self.traces(which), self.coils,
                                              self.ideal, n_bins=128)
            sino = fbp_mod.subtract_edge_baseline(sino)
            image = fbp_mod.fbp_reconstruct(sino, self.template, window="hann")
            self._cache[key] = self.scaled_nrmse(image)
        return self._cache[key]


_desk = None


def desk_scan() -> _DeskScan:
    global _desk
    if _desk is None:
        _desk = _DeskScan()
    return _desk


# --- 8: algebraic reconstruction beats FBP on the realistic field --------------

def test_criterion_8_desk_scale_ordering():
    t0 = time.time()
    desk = desk_scan()
    pert_lsqr = desk.lsqr_nrmse("perturbed")
    pert_fbp = desk.fbp_nrmse("perturbed")
    ideal_lsqr = desk.lsqr_nrmse("ideal")
    ideal_fbp = desk.fbp_nrmse("ideal")
    ratio = max(ideal_lsqr, ideal_fbp) / min(ideal_lsqr, ideal_fbp)
    ok = pert_lsqr < pert_fbp and ratio <= 1.30
    _report(8, ok, f"perturbed field: LSQR {pert_lsqr:.4f} < FBP {pert_fbp:.4f}; "
                   f"ideal field: LSQR {ideal_lsqr:.4f} vs FBP {ideal_fbp:.4f} "
                   f"(ratio {ratio:.3f} <= 1.30)", time.time() - t0, 900.0)


# --- 9: threshold / node-count / scheme sweeps ---------------------------------

def test_criterion_9_sweep_reproductions():
    t0 = time.time()
    desk = desk_scan()
    # the six matrices below, from one assembly pass
    desk.prebuild("ideal", [(30, b, "secant", False) for b in (0.004, 0.007, 0.010)]
                  + [(8, 0.010, "secant", False), (30, 0.010, "tangent", False),
                     (30, 0.010, "tangent", True)])
    bs = [desk.lsqr_nrmse(b=0.004), desk.lsqr_nrmse(b=0.007),
          desk.lsqr_nrmse(b=0.010)]
    spread = (max(bs) - min(bs)) / min(bs)
    n8, n30 = desk.lsqr_nrmse(n=8), desk.lsqr_nrmse(n=30)
    n_gap = abs(n8 - n30) / n30
    schemes = [desk.lsqr_nrmse(scheme="secant"),
               desk.lsqr_nrmse(scheme="tangent"),
               desk.lsqr_nrmse(scheme="tangent", l1_nodes=True)]
    pair = max(schemes) / min(schemes) - 1.0
    ok = spread <= 0.05 and n_gap <= 0.10 and pair <= 0.10
    _report(9, ok, f"b in 4..10 mT: NRMSE {'/'.join(f'{v:.4f}' for v in bs)} "
                   f"spread {spread:.1%} <= 5%; N=8 vs N=30 gap {n_gap:.1%} "
                   f"<= 10%; schemes {'/'.join(f'{v:.4f}' for v in schemes)} "
                   f"max pair {pair:.2%} <= 10%", time.time() - t0, 1800.0)


# --- 10: solver contract --------------------------------------------------------

def test_criterion_10_lsqr_contract():
    t0 = time.time()
    rng = np.random.default_rng(100)
    a = rng.normal(size=(200, 100)) + 3.0 * np.eye(200, 100)
    x_true = rng.normal(size=100)
    b = a @ x_true
    oracle = np.linalg.lstsq(a, b, rcond=None)[0]
    result = recon.lsqr_solve(a, b, recon.LsqrOptions(max_iterations=300,
                                                      atol=1e-14, btol=1e-14))
    rel = float(np.linalg.norm(result.x - oracle) / np.linalg.norm(oracle))

    desk = desk_scan()
    regression = desk.lsqr_nrmse("ideal")
    drift = abs(regression - desk.REGRESSION_NRMSE) / desk.REGRESSION_NRMSE

    runs = desk.lsqr_results + [result]
    slack = [float(np.max(np.diff(r.residuals))) if len(r.residuals) > 1 else 0.0
             for r in runs]
    monotone = all(s <= 1e-12 * r.residuals[0] for s, r in zip(slack, runs))

    ok = rel < 1e-8 and monotone and drift <= 0.02
    _report(10, ok, f"200x100 recovery rel {rel:.1e} < 1e-8; residuals "
                    f"non-increasing on all {len(runs)} runs; 20-iteration "
                    f"NRMSE {regression:.4f} within {drift:.2%} of frozen "
                    f"{desk.REGRESSION_NRMSE}", time.time() - t0, 1800.0)
