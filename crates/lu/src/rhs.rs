//! LU's field storage, setup (`setbv`/`setiv`/`erhs`) and steady-state
//! residual evaluation (`rhs`). Unlike BT/SP, LU differences physical
//! fluxes of the field directly; the same flux operator serves both the
//! forcing generation (applied to the exact solution) and the timed
//! residual (applied to `u`), exactly as `erhs.f`/`rhs.f` share their
//! structure.
//!
//! The operator runs as unit-stride row kernels over component-major
//! grids, the shape of `cfd-common`'s `compute_rhs`, whose dissipation
//! forms, second difference and row (de-)interleaving it shares.

use npb_cfd_common::rhs::{cut, d2, diss_columns, diss_row, join5, split5, tri, Form, Tri};
use npb_cfd_common::{idx, idx5, Consts};
use npb_core::{ld, st};
use npb_runtime::{run_par, SharedMut, Team};

/// LU grids: conserved variables, SSOR residual, forcing.
#[derive(Debug, Clone)]
pub struct LuFields {
    /// Grid extent (cubic).
    pub n: usize,
    /// Conserved variables, `5 n^3`.
    pub u: Vec<f64>,
    /// Residual / SSOR working vector, `5 n^3`.
    pub rsd: Vec<f64>,
    /// Forcing, `5 n^3`.
    pub frct: Vec<f64>,
    /// The flux operator's scratch, `14 n^3`: the component-major copy of
    /// the field it is applied to and the point quantities computed from
    /// it, rewritten by every `rhs`/`erhs` and read by nothing else.
    pub work: Vec<f64>,
    /// The flux operator's accumulator lines, five of `n (n - 2)` per
    /// k-plane (one stride of `n^2` each), owned by whichever rank produces
    /// that plane.
    pub lines: Vec<f64>,
}

impl LuFields {
    /// Zeroed fields.
    pub fn new(n: usize) -> LuFields {
        LuFields {
            n,
            u: vec![0.0; 5 * n * n * n],
            rsd: vec![0.0; 5 * n * n * n],
            frct: vec![0.0; 5 * n * n * n],
            work: vec![0.0; GRIDS * n * n * n],
            lines: vec![0.0; 5 * n * n * n],
        }
    }

    /// Flat index of the 5-component grids.
    #[inline(always)]
    pub fn id5(&self, m: usize, i: usize, j: usize, k: usize) -> usize {
        idx5(self.n, self.n, m, i, j, k)
    }
}

/// `setbv`: exact solution on the six boundary faces.
pub fn setbv(f: &mut LuFields, c: &Consts) {
    let n = f.n;
    let co = |i: usize, nn: usize| i as f64 / (nn as f64 - 1.0);
    for k in 0..n {
        for j in 0..n {
            for &(i, xi) in &[(0usize, 0.0f64), (n - 1, 1.0)] {
                let e = c.exact_solution(xi, co(j, n), co(k, n));
                for m in 0..5 {
                    let id = f.id5(m, i, j, k);
                    f.u[id] = e[m];
                }
            }
        }
        for i in 0..n {
            for &(j, eta) in &[(0usize, 0.0f64), (n - 1, 1.0)] {
                let e = c.exact_solution(co(i, n), eta, co(k, n));
                for m in 0..5 {
                    let id = f.id5(m, i, j, k);
                    f.u[id] = e[m];
                }
            }
        }
    }
    for j in 0..n {
        for i in 0..n {
            for &(k, zeta) in &[(0usize, 0.0f64), (n - 1, 1.0)] {
                let e = c.exact_solution(co(i, n), co(j, n), zeta);
                for m in 0..5 {
                    let id = f.id5(m, i, j, k);
                    f.u[id] = e[m];
                }
            }
        }
    }
}

/// `setiv`: transfinite blend of the face solutions in the interior.
pub fn setiv(f: &mut LuFields, c: &Consts) {
    let n = f.n;
    let nf = n as f64 - 1.0;
    for k in 1..n - 1 {
        let zeta = k as f64 / nf;
        for j in 1..n - 1 {
            let eta = j as f64 / nf;
            for i in 1..n - 1 {
                let xi = i as f64 / nf;
                let ue_1jk = c.exact_solution(0.0, eta, zeta);
                let ue_nx0jk = c.exact_solution(1.0, eta, zeta);
                let ue_i1k = c.exact_solution(xi, 0.0, zeta);
                let ue_iny0k = c.exact_solution(xi, 1.0, zeta);
                let ue_ij1 = c.exact_solution(xi, eta, 0.0);
                let ue_ijnz = c.exact_solution(xi, eta, 1.0);
                for m in 0..5 {
                    let pxi = (1.0 - xi) * ue_1jk[m] + xi * ue_nx0jk[m];
                    let peta = (1.0 - eta) * ue_i1k[m] + eta * ue_iny0k[m];
                    let pzeta = (1.0 - zeta) * ue_ij1[m] + zeta * ue_ijnz[m];
                    let id = f.id5(m, i, j, k);
                    f.u[id] = pxi + peta + pzeta - pxi * peta - peta * pzeta - pzeta * pxi
                        + pxi * peta * pzeta;
                }
            }
        }
    }
}

/// The scalar grids of [`LuFields::work`], `n^3` points each: the five
/// components of the field the flux operator is applied to, then the
/// point quantities its terms read. `VEL + m - 1` is the velocity
/// `1/v0 · v_m` of the viscous terms, `W + m - 1` the convecting velocity
/// `v_m / v0` (the reference divides there, and multiplies by `1/v0` in
/// the viscous terms: the two are different bits), `U51` is `1/v0 · v4`,
/// `SS` the sum of the squared viscous velocities and `Q` the kinetic
/// energy `0.5 (v1² + v2² + v3²) / v0`.
const VEL: usize = 5;
const U51: usize = 8;
const SS: usize = 9;
const Q: usize = 10;
const W: usize = 11;
/// Grids in [`LuFields::work`].
const GRIDS: usize = 14;

/// What tells one direction's terms from another's: `t?1..t?3`, the
/// artificial viscosities, and the products of them the reference forms
/// in each term, in its association.
struct Dir {
    /// Distance in a scalar grid to the next point along the direction.
    step: usize,
    /// The momentum component along it (1, 2 or 3).
    normal: usize,
    /// `t?2`, the convective difference's factor.
    t2: f64,
    /// `t?3 c3 c4`, the viscous difference's factor.
    k: f64,
    /// The viscous flux factor of a momentum component across the
    /// direction (`t?3`) and along it (`4/3 t?3`).
    a: [f64; 2],
    /// `d?m t?1`, the second difference's factor per component.
    d: [f64; 5],
    /// The energy's viscous flux factors: `0.5 (1 - c1 c5) t?3` on the
    /// squared speed, `1/6 t?3` on the squared normal velocity and
    /// `c1 c5 t?3` on `U51`.
    e: [f64; 3],
}

impl Dir {
    fn new(c: &Consts, step: usize, normal: usize) -> Dir {
        let (t1, t2, t3, d) = match normal {
            1 => (c.tx1, c.tx2, c.tx3, c.dx),
            2 => (c.ty1, c.ty2, c.ty3, c.dy),
            _ => (c.tz1, c.tz2, c.tz3, c.dz),
        };
        Dir {
            step,
            normal,
            t2,
            k: t3 * c.c3 * c.c4,
            a: [t3, (4.0 / 3.0) * t3],
            d: [d[0] * t1, d[1] * t1, d[2] * t1, d[3] * t1, d[4] * t1],
            e: [0.5 * (1.0 - c.c1 * c.c5) * t3, (1.0 / 6.0) * t3, c.c1 * c.c5 * t3],
        }
    }
}

/// `out[x] = out[x] + conv(x) + visc(x)`, the two sums rounded one after
/// the other, over the whole of `out`.
#[inline(always)]
fn accumulate2<const SAFE: bool>(
    out: &mut [f64],
    conv: impl Fn(usize) -> f64,
    visc: impl Fn(usize) -> f64,
) {
    for x in 0..out.len() {
        let o = ld::<_, SAFE>(out, x) + conv(x);
        st::<_, SAFE>(out, x, o + visc(x));
    }
}

/// LU's second difference `g(-1) - 2 g(0) + g(+1)`: `cfd-common`'s with
/// the neighbours taken the other way round.
#[inline(always)]
fn d2m<const SAFE: bool>([p, c, m]: Tri, x: usize) -> f64 {
    d2::<SAFE>([m, c, p], x)
}

/// Point quantities of one row for the viscous terms.
#[inline(never)]
fn visc_row<const SAFE: bool>(
    v: &[&mut [f64]; 5],
    us: &mut [f64],
    vs: &mut [f64],
    ws: &mut [f64],
    u51: &mut [f64],
    ss: &mut [f64],
) {
    let n = us.len();
    let [v0, v1, v2, v3, v4] = v;
    let (v0, v1, v2, v3, v4) = (&v0[..n], &v1[..n], &v2[..n], &v3[..n], &v4[..n]);
    let (vs, ws, u51, ss) = (&mut vs[..n], &mut ws[..n], &mut u51[..n], &mut ss[..n]);
    for x in 0..n {
        let l = |r: &[f64]| ld::<_, SAFE>(r, x);
        let tmp = 1.0 / l(v0);
        let (a, b, c) = (tmp * l(v1), tmp * l(v2), tmp * l(v3));
        st::<_, SAFE>(us, x, a);
        st::<_, SAFE>(vs, x, b);
        st::<_, SAFE>(ws, x, c);
        st::<_, SAFE>(u51, x, tmp * l(v4));
        st::<_, SAFE>(ss, x, a * a + b * b + c * c);
    }
}

/// Point quantities of one row for the convective terms.
#[inline(never)]
fn conv_row<const SAFE: bool>(
    v: &[&mut [f64]; 5],
    q: &mut [f64],
    wx: &mut [f64],
    wy: &mut [f64],
    wz: &mut [f64],
) {
    let n = q.len();
    let [v0, v1, v2, v3, _] = v;
    let (v0, v1, v2, v3) = (&v0[..n], &v1[..n], &v2[..n], &v3[..n]);
    let (wx, wy, wz) = (&mut wx[..n], &mut wy[..n], &mut wz[..n]);
    for x in 0..n {
        let l = |r: &[f64]| ld::<_, SAFE>(r, x);
        let (v0, a, b, c) = (l(v0), l(v1), l(v2), l(v3));
        st::<_, SAFE>(q, x, 0.5 * (a * a + b * b + c * c) / v0);
        st::<_, SAFE>(wx, x, a / v0);
        st::<_, SAFE>(wy, x, b / v0);
        st::<_, SAFE>(wz, x, c / v0);
    }
}

/// Continuity: the normal momentum `vn` convected, `v0` diffused.
#[inline(never)]
fn flux_mass<const SAFE: bool>(out: &mut [f64], v0: Tri, vn: Tri, [t2, d]: [f64; 2]) {
    let n = out.len();
    let (v0, [np, _, nm]) = (cut(v0, n), cut(vn, n));
    accumulate2::<SAFE>(
        out,
        |x| -t2 * (ld::<_, SAFE>(np, x) - ld::<_, SAFE>(nm, x)),
        |x| d * d2m::<SAFE>(v0, x),
    );
}

/// Momentum component `vm`, convected by `wn`, its velocity `vel`
/// diffused; along the direction (`NORMAL`) the pressure `c2 (v4 - q)`
/// joins the flux.
#[inline(never)]
fn flux_momentum<const SAFE: bool, const NORMAL: bool>(
    out: &mut [f64],
    [vm, wn, vel, v4, q]: [Tri; 5],
    [t2, k, a, d]: [f64; 4],
    c2: f64,
) {
    let n = out.len();
    let (vm, wn, vel, v4, q) = (cut(vm, n), cut(wn, n), cut(vel, n), cut(v4, n), cut(q, n));
    let flux = |r: usize, x: usize| {
        let l = |g: Tri| ld::<_, SAFE>(g[r], x);
        if NORMAL {
            l(vm) * l(wn) + c2 * (l(v4) - l(q))
        } else {
            l(vm) * l(wn)
        }
    };
    accumulate2::<SAFE>(
        out,
        |x| -t2 * (flux(0, x) - flux(2, x)),
        |x| {
            let [vp, vc, vmi] = vel.map(|g| ld::<_, SAFE>(g, x));
            k * (a * (vp - vc) - a * (vc - vmi)) + d * d2m::<SAFE>(vm, x)
        },
    );
}

/// Energy: `c1 v4 - c2 q` convected by `wn`; the viscous flux of the
/// squared speed `ss`, the squared normal velocity `vn` and `u51`.
#[inline(never)]
fn flux_energy<const SAFE: bool>(
    out: &mut [f64],
    [v4, q, wn, ss, vn, u51]: [Tri; 6],
    dir: &Dir,
    (c1, c2): (f64, f64),
) {
    let n = out.len();
    let (v4, q, wn) = (cut(v4, n), cut(q, n), cut(wn, n));
    let (ss, vn, u51) = (cut(ss, n), cut(vn, n), cut(u51, n));
    let (t2, k, d, [e0, e1, e2]) = (dir.t2, dir.k, dir.d[4], dir.e);
    let flux = |r: usize, x: usize| {
        let l = |g: Tri| ld::<_, SAFE>(g[r], x);
        (c1 * l(v4) - c2 * l(q)) * l(wn)
    };
    // The viscous flux between rows `r + 1` and `r` (0 is `+1`).
    let visc = |r: usize, x: usize| {
        let l = |g: Tri, s: usize| ld::<_, SAFE>(g[s], x);
        let (vi, vo) = (l(vn, r), l(vn, r + 1));
        e0 * (l(ss, r) - l(ss, r + 1)) + e1 * (vi * vi - vo * vo) + e2 * (l(u51, r) - l(u51, r + 1))
    };
    accumulate2::<SAFE>(
        out,
        |x| -t2 * (flux(0, x) - flux(2, x)),
        |x| k * (visc(0, x) - visc(1, x)) + d * d2m::<SAFE>(v4, x),
    );
}

/// Add one direction's convective, viscous and dissipation terms to the
/// accumulator lines of a plane's interior rows, the `n (n - 2)` points
/// from `at`, row after row. `g` are the grids of [`LuFields::work`] and
/// `k` the plane.
///
/// The convective and viscous kernels run over the whole span at once:
/// their terms are the same at every point, so the span's boundary
/// columns only collect values the caller overwrites. The dissipation
/// goes by form: along ζ the plane has one, along η the four edge rows
/// have theirs and the rows between them share the interior form, and
/// along ξ the form goes by column, a row at a time.
#[inline(always)]
fn direction<const SAFE: bool>(
    acc: &mut [&mut [f64]; 5],
    g: &[&[f64]; GRIDS],
    (n, at, k): (usize, usize, usize),
    dir: &Dir,
    c: &Consts,
) {
    let len = acc[0].len();
    let (a, s, w) = (at + 1, dir.step, len - 2);
    let t = |grid: usize| tri(g[grid], a, s, w);
    let nrm = dir.normal;
    let (wn, v4, q) = (t(W + nrm - 1), t(4), t(Q));
    flux_mass::<SAFE>(&mut acc[0][1..len - 1], t(0), t(nrm), [dir.t2, dir.d[0]]);
    for m in 1..4 {
        let out = &mut acc[m][1..len - 1];
        let tris = [t(m), wn, t(VEL + m - 1), v4, q];
        let k = [dir.t2, dir.k, dir.a[usize::from(m == nrm)], dir.d[m]];
        if m == nrm {
            flux_momentum::<SAFE, true>(out, tris, k, c.c2);
        } else {
            flux_momentum::<SAFE, false>(out, tris, k, c.c2);
        }
    }
    let energy = [v4, q, wn, t(SS), t(VEL + nrm - 1), t(U51)];
    flux_energy::<SAFE>(&mut acc[4][1..len - 1], energy, dir, (c.c1, c.c2));

    // Columns `x0 .. x1` of the span, in one form along the direction.
    let diss = |line: &mut [f64], m: usize, form: Form, x0: usize, x1: usize| {
        diss_row::<SAFE>(&mut line[x0..x1], form, g[m], at + x0, s, c.dssp);
    };
    // Row `j`'s first column in the span.
    let row = |j: usize| n * (j - 1);
    for m in 0..5 {
        let line = &mut *acc[m];
        match nrm {
            1 => (1..n - 1).for_each(|j| {
                diss_columns::<SAFE>(&mut line[row(j)..][..n], g[m], at + row(j), c.dssp)
            }),
            2 => {
                for j in [1, 2, n - 3, n - 2] {
                    diss(line, m, Form::at(j, n), row(j) + 1, row(j) + n - 1);
                }
                if n > 6 {
                    diss(line, m, Form::Interior, row(3) + 1, row(n - 4) + n - 1);
                }
            }
            _ => diss(line, m, Form::at(k, n), 1, len - 1),
        }
    }
}

/// The flux operator of the m-fastest field `v`, written to `out`:
/// `out = -base + fluxes(v)` over the interior and `-base` on the
/// boundary (`base = None` stands for zeros). This is the common body of
/// `erhs` (`v` = the exact solution, `out` = `frct`, no base) and `rhs`
/// (`v` = `u`, `out` = `rsd`, `base` = `frct`).
///
/// One region, two phases, one barrier, the k-planes split across the
/// team, as `cfd-common`'s `compute_rhs`: phase 1 de-interleaves each
/// plane of `v` into the component grids of `work` and computes the point
/// quantities beside them; phase 2 builds the interior rows of each output
/// plane in five accumulator lines, one span of `n (n - 2)` points, and
/// stores them once (a kernel call a plane, not a row: at class S a row
/// is ten points, and calls per row cost a fifth of the time).
/// Every element receives the reference's scalar sequence — `-base`, then
/// for ξ, η and ζ in turn the convective, viscous and dissipation terms —
/// so the result is bit-identical under any plane assignment and to the
/// per-point loop nest (the test oracle below).
#[allow(clippy::too_many_arguments)] // the LuFields grids it reads and writes, split
fn fluxes<const SAFE: bool>(
    n: usize,
    c: &Consts,
    v: &[f64],
    base: Option<&[f64]>,
    out: &mut [f64],
    work: &mut [f64],
    lines: &mut [f64],
    team: Option<&Team>,
) {
    // The four special dissipation points of a direction are distinct.
    assert!(n >= 6, "LU's flux operator needs n >= 6: {n}");
    let np = n * n * n;
    assert!(v.len() == 5 * np && out.len() == 5 * np && base.is_none_or(|b| b.len() == 5 * np));
    assert!(work.len() == GRIDS * np && lines.len() == 5 * np);
    // SAFETY: `out` is written in phase 2 only, a plane at a time by the
    // rank the partition gave the plane, and read by nobody.
    let out = unsafe { SharedMut::new(out) };
    // SAFETY: `work` is written in phase 1 only, each rank its own planes;
    // every later read comes after the barrier.
    let work = unsafe { SharedMut::new(work) };
    // SAFETY: plane `k`'s five lines are touched only by the rank producing
    // plane `k` of `out`.
    let lines = unsafe { SharedMut::new(lines) };
    let dirs = [Dir::new(c, 1, 1), Dir::new(c, n, 2), Dir::new(c, n * n, 3)];

    run_par(team, |par| {
        // Phase 1: component grids and point quantities, all planes.
        par.for_chunks(n, |ks| {
            for k in ks {
                let at = idx(n, n, 0, 0, k);
                let g: [&mut [f64]; GRIDS] = std::array::from_fn(|m| {
                    // SAFETY: plane `k` is in this rank's chunk, which no
                    // other rank touches before the barrier; the fourteen
                    // views are of different grids.
                    unsafe { work.row_mut(m * np + at, n * n) }
                });
                let [v0, v1, v2, v3, v4, us, vs, ws, u51, ss, q, wx, wy, wz] = g;
                let mut comps = [v0, v1, v2, v3, v4];
                split5::<SAFE>(&v[5 * at..][..5 * n * n], &mut comps);
                visc_row::<SAFE>(&comps, us, vs, ws, u51, ss);
                conv_row::<SAFE>(&comps, q, wx, wy, wz);
            }
        });
        par.barrier();

        // SAFETY: after the barrier nobody writes `work` until the region
        // ends, so any rank may borrow all of it.
        let all = unsafe { work.row(0, GRIDS * np) };
        let g: [&[f64]; GRIDS] = std::array::from_fn(|m| &all[m * np..][..np]);
        // `o` = `-base` from point `p` on, or zeros.
        let init = |o: &mut [f64], p: usize| match base {
            Some(b) => o.iter_mut().zip(&b[5 * p..]).for_each(|(o, b)| *o = -b),
            None => o.fill(0.0),
        };
        // Phase 2: one pass over the planes of `out`.
        par.for_chunks(n, |ks| {
            for k in ks {
                let plane = idx(n, n, 0, 0, k);
                // SAFETY: plane `k` is in this rank's chunk; the only view of
                // `out` this rank holds, and no `row` of `out` exists.
                let oplane = unsafe { out.row_mut(5 * plane, 5 * n * n) };
                if k == 0 || k == n - 1 {
                    init(oplane, plane);
                    continue;
                }
                // The interior rows `1 ..= n - 2`, as one span.
                let (at, len) = (plane + n, n * (n - 2));
                let (first, rest) = oplane.split_at_mut(5 * n);
                let (span, last) = rest.split_at_mut(5 * len);
                init(first, plane);
                init(last, at + len);
                // SAFETY: plane `k`'s lines are this rank's alone, and this
                // is the only view of them.
                let mut acc =
                    unsafe { [0, 1, 2, 3, 4].map(|m| lines.row_mut((5 * k + m) * n * n, len)) };
                match base {
                    Some(b) => {
                        split5::<SAFE>(&b[5 * at..][..5 * len], &mut acc);
                        acc.iter_mut().for_each(|l| l.iter_mut().for_each(|x| *x = -*x));
                    }
                    None => acc.iter_mut().for_each(|l| l.fill(0.0)),
                }
                for dir in &dirs {
                    direction::<SAFE>(&mut acc, &g, (n, at, k), dir, c);
                }
                // `× 1.0` leaves every value as it is: LU does not scale
                // here.
                join5::<SAFE>(span, &acc, 1.0);
                // The span's boundary columns, which its kernels filled with
                // values of no meaning.
                for j in 0..n - 2 {
                    for i in [0, n - 1] {
                        let x = n * j + i;
                        init(&mut span[5 * x..][..5], at + x);
                    }
                }
            }
        });
    });
}

/// `erhs`: forcing so the exact solution is steady — evaluate the flux
/// operator on the exact-solution field.
pub fn erhs(f: &mut LuFields, c: &Consts, team: Option<&Team>) {
    let n = f.n;
    // Exact solution on the whole grid (the reference stages it in rsd;
    // we use a scratch field with the same values).
    let mut exact = vec![0.0f64; 5 * n * n * n];
    let nf = n as f64 - 1.0;
    for k in 0..n {
        let zeta = k as f64 / nf;
        for j in 0..n {
            let eta = j as f64 / nf;
            for i in 0..n {
                let xi = i as f64 / nf;
                let e = c.exact_solution(xi, eta, zeta);
                for m in 0..5 {
                    exact[idx5(n, n, m, i, j, k)] = e[m];
                }
            }
        }
    }
    fluxes::<false>(n, c, &exact, None, &mut f.frct, &mut f.work, &mut f.lines, team);
}

/// `rhs`: the steady-state residual `rsd = -frct + fluxes(u)`.
pub fn rhs<const SAFE: bool>(f: &mut LuFields, c: &Consts, team: Option<&Team>) {
    let LuFields { n, u, rsd, frct, work, lines } = f;
    fluxes::<SAFE>(*n, c, u, Some(frct), rsd, work, lines, team);
}

/// The per-point loop nests the row kernels replaced — `erhs.f`/`rhs.f`
/// direction by direction, each term a read-modify-write of the output —
/// serial and over `Cell`s, kept as the reference the row kernels must
/// reproduce bit for bit.
#[cfg(test)]
pub(crate) mod oracle {
    use super::LuFields;
    use npb_cfd_common::{idx5, Consts};
    use npb_core::ld;
    use npb_runtime::Par;
    use std::cell::Cell;

    /// Safe stand-in for the shared view the nest was written against: it
    /// runs serially, so `Cell`s do.
    pub(crate) struct Grid<'a>(&'a [Cell<f64>]);

    impl Grid<'_> {
        pub fn new(v: &mut [f64]) -> Grid<'_> {
            Grid(Cell::from_mut(v).as_slice_of_cells())
        }
        pub fn get(&self, i: usize) -> f64 {
            self.0[i].get()
        }
        pub fn set(&self, i: usize, v: f64) {
            self.0[i].set(v);
        }
        pub fn add(&self, i: usize, v: f64) {
            self.0[i].set(self.0[i].get() + v);
        }
    }

    /// Add the flux differences of field `v` into `out` (`+=`), with LU's
    /// convective + viscous + fourth-order-dissipation structure. This is
    /// the common body of `erhs` (v = exact solution, out = frct) and `rhs`
    /// (v = u, out = rsd).
    ///
    /// Each direction pass owns whole k- (or j-) planes and accumulates a
    /// fixed sequence of terms into each cell, so the pass is disjoint-write
    /// and bit-identical under any plane assignment — the three passes are
    /// scheduled loops ([`npb_runtime::Par::for_chunks_in`]).
    pub fn apply_fluxes<const SAFE: bool>(n: usize, c: &Consts, v: &[f64], out: &Grid) {
        let dssp = c.dssp;
        // Serial: every `for_chunks_in` below is the whole range and every
        // barrier a no-op.
        {
            let par = Par::serial();
            let vat = |m, i, j, k| ld::<_, SAFE>(v, idx5(n, n, m, i, j, k));
            let oid = |m, i, j, k| idx5(n, n, m, i, j, k);
            let mut flux = vec![[0.0f64; 5]; n];

            // ---- xi-direction ----
            par.for_chunks_in(1, n - 1, |ks| {
                for k in ks {
                    for j in 1..n - 1 {
                        for i in 0..n {
                            let (v0, v1, v2, v3, v4) = (
                                vat(0, i, j, k),
                                vat(1, i, j, k),
                                vat(2, i, j, k),
                                vat(3, i, j, k),
                                vat(4, i, j, k),
                            );
                            flux[i][0] = v1;
                            let u21 = v1 / v0;
                            let q = 0.5 * (v1 * v1 + v2 * v2 + v3 * v3) / v0;
                            flux[i][1] = v1 * u21 + c.c2 * (v4 - q);
                            flux[i][2] = v2 * u21;
                            flux[i][3] = v3 * u21;
                            flux[i][4] = (c.c1 * v4 - c.c2 * q) * u21;
                        }
                        for i in 1..n - 1 {
                            for m in 0..5 {
                                out.add(
                                    oid(m, i, j, k),
                                    -c.tx2 * (flux[i + 1][m] - flux[i - 1][m]),
                                );
                            }
                        }
                        for i in 1..n {
                            let tmp = 1.0 / vat(0, i, j, k);
                            let u21i = tmp * vat(1, i, j, k);
                            let u31i = tmp * vat(2, i, j, k);
                            let u41i = tmp * vat(3, i, j, k);
                            let u51i = tmp * vat(4, i, j, k);
                            let tmp = 1.0 / vat(0, i - 1, j, k);
                            let u21im1 = tmp * vat(1, i - 1, j, k);
                            let u31im1 = tmp * vat(2, i - 1, j, k);
                            let u41im1 = tmp * vat(3, i - 1, j, k);
                            let u51im1 = tmp * vat(4, i - 1, j, k);
                            flux[i][1] = (4.0 / 3.0) * c.tx3 * (u21i - u21im1);
                            flux[i][2] = c.tx3 * (u31i - u31im1);
                            flux[i][3] = c.tx3 * (u41i - u41im1);
                            flux[i][4] = 0.5
                                * (1.0 - c.c1 * c.c5)
                                * c.tx3
                                * ((u21i * u21i + u31i * u31i + u41i * u41i)
                                    - (u21im1 * u21im1 + u31im1 * u31im1 + u41im1 * u41im1))
                                + (1.0 / 6.0) * c.tx3 * (u21i * u21i - u21im1 * u21im1)
                                + c.c1 * c.c5 * c.tx3 * (u51i - u51im1);
                        }
                        for i in 1..n - 1 {
                            out.add(
                                oid(0, i, j, k),
                                c.dx[0]
                                    * c.tx1
                                    * (vat(0, i - 1, j, k) - 2.0 * vat(0, i, j, k)
                                        + vat(0, i + 1, j, k)),
                            );
                            for m in 1..5 {
                                out.add(
                                    oid(m, i, j, k),
                                    c.tx3 * c.c3 * c.c4 * (flux[i + 1][m] - flux[i][m])
                                        + c.dx[m]
                                            * c.tx1
                                            * (vat(m, i - 1, j, k) - 2.0 * vat(m, i, j, k)
                                                + vat(m, i + 1, j, k)),
                                );
                            }
                        }
                        for m in 0..5 {
                            out.add(
                                oid(m, 1, j, k),
                                -dssp
                                    * (5.0 * vat(m, 1, j, k) - 4.0 * vat(m, 2, j, k)
                                        + vat(m, 3, j, k)),
                            );
                            out.add(
                                oid(m, 2, j, k),
                                -dssp
                                    * (-4.0 * vat(m, 1, j, k) + 6.0 * vat(m, 2, j, k)
                                        - 4.0 * vat(m, 3, j, k)
                                        + vat(m, 4, j, k)),
                            );
                            for i in 3..n - 3 {
                                out.add(
                                    oid(m, i, j, k),
                                    -dssp
                                        * (vat(m, i - 2, j, k) - 4.0 * vat(m, i - 1, j, k)
                                            + 6.0 * vat(m, i, j, k)
                                            - 4.0 * vat(m, i + 1, j, k)
                                            + vat(m, i + 2, j, k)),
                                );
                            }
                            out.add(
                                oid(m, n - 3, j, k),
                                -dssp
                                    * (vat(m, n - 5, j, k) - 4.0 * vat(m, n - 4, j, k)
                                        + 6.0 * vat(m, n - 3, j, k)
                                        - 4.0 * vat(m, n - 2, j, k)),
                            );
                            out.add(
                                oid(m, n - 2, j, k),
                                -dssp
                                    * (vat(m, n - 4, j, k) - 4.0 * vat(m, n - 3, j, k)
                                        + 5.0 * vat(m, n - 2, j, k)),
                            );
                        }
                    }
                }
            });
            par.barrier();

            // ---- eta-direction ----
            par.for_chunks_in(1, n - 1, |ks| {
                for k in ks {
                    for i in 1..n - 1 {
                        for j in 0..n {
                            let (v0, v1, v2, v3, v4) = (
                                vat(0, i, j, k),
                                vat(1, i, j, k),
                                vat(2, i, j, k),
                                vat(3, i, j, k),
                                vat(4, i, j, k),
                            );
                            flux[j][0] = v2;
                            let u31 = v2 / v0;
                            let q = 0.5 * (v1 * v1 + v2 * v2 + v3 * v3) / v0;
                            flux[j][1] = v1 * u31;
                            flux[j][2] = v2 * u31 + c.c2 * (v4 - q);
                            flux[j][3] = v3 * u31;
                            flux[j][4] = (c.c1 * v4 - c.c2 * q) * u31;
                        }
                        for j in 1..n - 1 {
                            for m in 0..5 {
                                out.add(
                                    oid(m, i, j, k),
                                    -c.ty2 * (flux[j + 1][m] - flux[j - 1][m]),
                                );
                            }
                        }
                        for j in 1..n {
                            let tmp = 1.0 / vat(0, i, j, k);
                            let u21j = tmp * vat(1, i, j, k);
                            let u31j = tmp * vat(2, i, j, k);
                            let u41j = tmp * vat(3, i, j, k);
                            let u51j = tmp * vat(4, i, j, k);
                            let tmp = 1.0 / vat(0, i, j - 1, k);
                            let u21jm1 = tmp * vat(1, i, j - 1, k);
                            let u31jm1 = tmp * vat(2, i, j - 1, k);
                            let u41jm1 = tmp * vat(3, i, j - 1, k);
                            let u51jm1 = tmp * vat(4, i, j - 1, k);
                            flux[j][1] = c.ty3 * (u21j - u21jm1);
                            flux[j][2] = (4.0 / 3.0) * c.ty3 * (u31j - u31jm1);
                            flux[j][3] = c.ty3 * (u41j - u41jm1);
                            flux[j][4] = 0.5
                                * (1.0 - c.c1 * c.c5)
                                * c.ty3
                                * ((u21j * u21j + u31j * u31j + u41j * u41j)
                                    - (u21jm1 * u21jm1 + u31jm1 * u31jm1 + u41jm1 * u41jm1))
                                + (1.0 / 6.0) * c.ty3 * (u31j * u31j - u31jm1 * u31jm1)
                                + c.c1 * c.c5 * c.ty3 * (u51j - u51jm1);
                        }
                        for j in 1..n - 1 {
                            out.add(
                                oid(0, i, j, k),
                                c.dy[0]
                                    * c.ty1
                                    * (vat(0, i, j - 1, k) - 2.0 * vat(0, i, j, k)
                                        + vat(0, i, j + 1, k)),
                            );
                            for m in 1..5 {
                                out.add(
                                    oid(m, i, j, k),
                                    c.ty3 * c.c3 * c.c4 * (flux[j + 1][m] - flux[j][m])
                                        + c.dy[m]
                                            * c.ty1
                                            * (vat(m, i, j - 1, k) - 2.0 * vat(m, i, j, k)
                                                + vat(m, i, j + 1, k)),
                                );
                            }
                        }
                        for m in 0..5 {
                            out.add(
                                oid(m, i, 1, k),
                                -dssp
                                    * (5.0 * vat(m, i, 1, k) - 4.0 * vat(m, i, 2, k)
                                        + vat(m, i, 3, k)),
                            );
                            out.add(
                                oid(m, i, 2, k),
                                -dssp
                                    * (-4.0 * vat(m, i, 1, k) + 6.0 * vat(m, i, 2, k)
                                        - 4.0 * vat(m, i, 3, k)
                                        + vat(m, i, 4, k)),
                            );
                            for j in 3..n - 3 {
                                out.add(
                                    oid(m, i, j, k),
                                    -dssp
                                        * (vat(m, i, j - 2, k) - 4.0 * vat(m, i, j - 1, k)
                                            + 6.0 * vat(m, i, j, k)
                                            - 4.0 * vat(m, i, j + 1, k)
                                            + vat(m, i, j + 2, k)),
                                );
                            }
                            out.add(
                                oid(m, i, n - 3, k),
                                -dssp
                                    * (vat(m, i, n - 5, k) - 4.0 * vat(m, i, n - 4, k)
                                        + 6.0 * vat(m, i, n - 3, k)
                                        - 4.0 * vat(m, i, n - 2, k)),
                            );
                            out.add(
                                oid(m, i, n - 2, k),
                                -dssp
                                    * (vat(m, i, n - 4, k) - 4.0 * vat(m, i, n - 3, k)
                                        + 5.0 * vat(m, i, n - 2, k)),
                            );
                        }
                    }
                }
            });
            par.barrier();

            // ---- zeta-direction (lines along k; parallel over j) ----
            par.for_chunks_in(1, n - 1, |js| {
                for j in js {
                    for i in 1..n - 1 {
                        for k in 0..n {
                            let (v0, v1, v2, v3, v4) = (
                                vat(0, i, j, k),
                                vat(1, i, j, k),
                                vat(2, i, j, k),
                                vat(3, i, j, k),
                                vat(4, i, j, k),
                            );
                            flux[k][0] = v3;
                            let u41 = v3 / v0;
                            let q = 0.5 * (v1 * v1 + v2 * v2 + v3 * v3) / v0;
                            flux[k][1] = v1 * u41;
                            flux[k][2] = v2 * u41;
                            flux[k][3] = v3 * u41 + c.c2 * (v4 - q);
                            flux[k][4] = (c.c1 * v4 - c.c2 * q) * u41;
                        }
                        for k in 1..n - 1 {
                            for m in 0..5 {
                                out.add(
                                    oid(m, i, j, k),
                                    -c.tz2 * (flux[k + 1][m] - flux[k - 1][m]),
                                );
                            }
                        }
                        for k in 1..n {
                            let tmp = 1.0 / vat(0, i, j, k);
                            let u21k = tmp * vat(1, i, j, k);
                            let u31k = tmp * vat(2, i, j, k);
                            let u41k = tmp * vat(3, i, j, k);
                            let u51k = tmp * vat(4, i, j, k);
                            let tmp = 1.0 / vat(0, i, j, k - 1);
                            let u21km1 = tmp * vat(1, i, j, k - 1);
                            let u31km1 = tmp * vat(2, i, j, k - 1);
                            let u41km1 = tmp * vat(3, i, j, k - 1);
                            let u51km1 = tmp * vat(4, i, j, k - 1);
                            flux[k][1] = c.tz3 * (u21k - u21km1);
                            flux[k][2] = c.tz3 * (u31k - u31km1);
                            flux[k][3] = (4.0 / 3.0) * c.tz3 * (u41k - u41km1);
                            flux[k][4] = 0.5
                                * (1.0 - c.c1 * c.c5)
                                * c.tz3
                                * ((u21k * u21k + u31k * u31k + u41k * u41k)
                                    - (u21km1 * u21km1 + u31km1 * u31km1 + u41km1 * u41km1))
                                + (1.0 / 6.0) * c.tz3 * (u41k * u41k - u41km1 * u41km1)
                                + c.c1 * c.c5 * c.tz3 * (u51k - u51km1);
                        }
                        for k in 1..n - 1 {
                            out.add(
                                oid(0, i, j, k),
                                c.dz[0]
                                    * c.tz1
                                    * (vat(0, i, j, k - 1) - 2.0 * vat(0, i, j, k)
                                        + vat(0, i, j, k + 1)),
                            );
                            for m in 1..5 {
                                out.add(
                                    oid(m, i, j, k),
                                    c.tz3 * c.c3 * c.c4 * (flux[k + 1][m] - flux[k][m])
                                        + c.dz[m]
                                            * c.tz1
                                            * (vat(m, i, j, k - 1) - 2.0 * vat(m, i, j, k)
                                                + vat(m, i, j, k + 1)),
                                );
                            }
                        }
                        for m in 0..5 {
                            out.add(
                                oid(m, i, j, 1),
                                -dssp
                                    * (5.0 * vat(m, i, j, 1) - 4.0 * vat(m, i, j, 2)
                                        + vat(m, i, j, 3)),
                            );
                            out.add(
                                oid(m, i, j, 2),
                                -dssp
                                    * (-4.0 * vat(m, i, j, 1) + 6.0 * vat(m, i, j, 2)
                                        - 4.0 * vat(m, i, j, 3)
                                        + vat(m, i, j, 4)),
                            );
                            for k in 3..n - 3 {
                                out.add(
                                    oid(m, i, j, k),
                                    -dssp
                                        * (vat(m, i, j, k - 2) - 4.0 * vat(m, i, j, k - 1)
                                            + 6.0 * vat(m, i, j, k)
                                            - 4.0 * vat(m, i, j, k + 1)
                                            + vat(m, i, j, k + 2)),
                                );
                            }
                            out.add(
                                oid(m, i, j, n - 3),
                                -dssp
                                    * (vat(m, i, j, n - 5) - 4.0 * vat(m, i, j, n - 4)
                                        + 6.0 * vat(m, i, j, n - 3)
                                        - 4.0 * vat(m, i, j, n - 2)),
                            );
                            out.add(
                                oid(m, i, j, n - 2),
                                -dssp
                                    * (vat(m, i, j, n - 4) - 4.0 * vat(m, i, j, n - 3)
                                        + 5.0 * vat(m, i, j, n - 2)),
                            );
                        }
                    }
                }
            });
        }
    }

    /// `erhs` as it was: `frct = 0 + fluxes(exact)`.
    pub fn erhs(f: &mut LuFields, c: &Consts) {
        let n = f.n;
        f.frct.fill(0.0);
        let mut exact = vec![0.0f64; 5 * n * n * n];
        let nf = n as f64 - 1.0;
        for k in 0..n {
            for j in 0..n {
                for i in 0..n {
                    let e = c.exact_solution(i as f64 / nf, j as f64 / nf, k as f64 / nf);
                    for m in 0..5 {
                        exact[idx5(n, n, m, i, j, k)] = e[m];
                    }
                }
            }
        }
        apply_fluxes::<false>(n, c, &exact, &Grid::new(&mut f.frct));
    }

    /// `rhs` as it was: `rsd = -frct + fluxes(u)`.
    pub fn rhs(f: &mut LuFields, c: &Consts) {
        for (r, x) in f.rsd.iter_mut().zip(&f.frct) {
            *r = -x;
        }
        apply_fluxes::<true>(f.n, c, &f.u, &Grid::new(&mut f.rsd));
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use npb_runtime::{Sched, Team};

    #[test]
    fn residual_of_exact_field_is_zero() {
        // With u set to the exact solution everywhere, rhs = -frct +
        // fluxes(exact) = 0 identically (same code path on same data).
        let n = 10;
        let c = Consts::new(n, n, n, 0.5);
        let mut f = LuFields::new(n);
        let nf = n as f64 - 1.0;
        for k in 0..n {
            for j in 0..n {
                for i in 0..n {
                    let e = c.exact_solution(i as f64 / nf, j as f64 / nf, k as f64 / nf);
                    for m in 0..5 {
                        let id = f.id5(m, i, j, k);
                        f.u[id] = e[m];
                    }
                }
            }
        }
        erhs(&mut f, &c, None);
        rhs::<false>(&mut f, &c, None);
        // rsd = -(x+y+z accumulated) + x + y + z: zero up to the
        // re-association rounding of the three directional sums.
        let max = f.rsd.iter().fold(0.0f64, |a, &b| a.max(b.abs()));
        assert!(max < 1e-9, "max |rsd| = {max}");
    }

    #[test]
    fn initial_state_has_nonzero_residual() {
        let n = 10;
        let c = Consts::new(n, n, n, 0.5);
        let mut f = LuFields::new(n);
        setbv(&mut f, &c);
        setiv(&mut f, &c);
        erhs(&mut f, &c, None);
        rhs::<false>(&mut f, &c, None);
        let max = f.rsd.iter().fold(0.0f64, |a, &b| a.max(b.abs()));
        assert!(max > 1e-6, "max |rsd| = {max}");
    }

    #[test]
    fn rhs_parallel_matches_serial() {
        let n = 12;
        let c = Consts::new(n, n, n, 0.5);
        let mut fs = LuFields::new(n);
        setbv(&mut fs, &c);
        setiv(&mut fs, &c);
        erhs(&mut fs, &c, None);
        let mut fp = fs.clone();
        rhs::<false>(&mut fs, &c, None);
        let team = Team::new(3);
        rhs::<false>(&mut fp, &c, Some(&team));
        assert_eq!(fs.rsd, fp.rsd);
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// A Team of 3 and a feedback-split Team of 4: the partitions the
    /// row kernels must not be able to tell apart.
    pub(crate) fn teams() -> [Team; 2] {
        let feedback = Team::new(4);
        feedback.set_sched(Sched::Feedback);
        [Team::new(3), feedback]
    }

    #[test]
    fn row_kernels_equal_the_per_point_reference_bit_for_bit() {
        // 7: no full-stencil dissipation point between the edge forms; 13
        // and 33: a vector body plus a tail; 12 and 33: classes S and W.
        let teams = teams();
        for n in [7, 12, 13, 33] {
            let c = Consts::new(n, n, n, 0.5);
            let mut want = LuFields::new(n);
            setbv(&mut want, &c);
            setiv(&mut want, &c);
            let start = want.clone();
            oracle::erhs(&mut want, &c);
            let frct = bits(&want.frct);
            oracle::rhs(&mut want, &c);
            let rsd = bits(&want.rsd);
            // Twice on each team, so the feedback split has a history.
            for team in [None, Some(&teams[0]), Some(&teams[1]), Some(&teams[1])] {
                let what = format!("n={n} threads={}", team.map_or(0, Team::size));
                let mut got = start.clone();
                erhs(&mut got, &c, team);
                assert_eq!(bits(&got.frct), frct, "frct, {what}");
                rhs::<false>(&mut got, &c, team);
                assert_eq!(bits(&got.rsd), rsd, "rsd (opt), {what}");
                got.rsd.fill(f64::NAN);
                rhs::<true>(&mut got, &c, team);
                assert_eq!(bits(&got.rsd), rsd, "rsd (safe), {what}");
            }
        }
    }

    #[test]
    fn setbv_and_setiv_are_consistent_at_faces() {
        let n = 8;
        let c = Consts::new(n, n, n, 0.5);
        let mut f = LuFields::new(n);
        setbv(&mut f, &c);
        setiv(&mut f, &c);
        // Face values are exact.
        let e = c.exact_solution(0.0, 3.0 / 7.0, 4.0 / 7.0);
        for m in 0..5 {
            assert_eq!(f.u[f.id5(m, 0, 3, 4)], e[m]);
        }
    }
}
