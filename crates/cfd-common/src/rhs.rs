//! `compute_rhs` — the explicit right-hand side of BT and SP — and the
//! final `add` update: the dominant timed code of both pseudo-applications.
//!
//! The expressions are `rhs.f`'s, in its association, stated as whole-row
//! operations along the contiguous `i` axis (the shape of MG's operators):
//! one region, two phases, one barrier, the k-planes split across the team.
//!
//! *Phase 1*, per `(j, k)` row of every plane: de-interleave the m-fastest
//! `u` row into five component-major lines of [`Fields::uc`] and compute the
//! point quantities (`rho_i`, `us`, `vs`, `ws`, `qs`, `square`, and `speed`
//! for SP) from those lines. The barrier then makes the `k±1`/`k±2` rows of
//! other ranks' planes visible.
//!
//! *Phase 2*, per output row: a boundary row copies `forcing`; an interior
//! row gathers `forcing` into five accumulator lines ([`Fields::lines`]),
//! adds the flux and the fourth-order dissipation of the ξ, η and ζ
//! directions, scales the interior columns by `dt` and interleaves the lines
//! into the m-fastest `rhs` row — one store where the reference made seven
//! read-modify-write passes. The three directions are one kernel family:
//! `(plus, centre, minus)` is the row shifted by one column (ξ), by one row
//! (η) or by one plane (ζ), and the convecting velocity is `us`, `vs` or `ws`.
//!
//! Every element still receives the reference's scalar sequence
//! `forcing + ξ-flux + ξ-diss + η-flux + η-diss + ζ-flux + ζ-diss, × dt`:
//! the terms of one element never depended on another element's `rhs`, the
//! kernels are elementwise loops the vectorizer lowers lane by lane without
//! reassociating, and Rust never contracts `a*b + c`. So results are
//! bit-identical to the per-point loop nest, which survives as the test
//! oracle below. A kernel is `#[inline(never)]`, its output lines are
//! `&mut` (`noalias`) parameters of its own and its inputs are re-sliced
//! to their length, so both styles' bounds checks fold and the loop
//! vectorizes the same way whatever the call site looks like.

use crate::consts::Consts;
use crate::fields::{idx, idx5, Fields};
use npb_core::{ld, st};
use npb_runtime::{run_par, SharedMut, Team};

/// The `[plus, centre, minus]` rows of one grid along a direction, cut to
/// the columns of the output line.
pub type Tri<'a> = [&'a [f64]; 3];

/// What tells one direction's terms from another's.
struct Dir {
    /// Distance in a scalar grid to the next point along the direction.
    step: usize,
    /// The momentum component along it (1, 2 or 3).
    normal: usize,
    /// `dx1tx1..dx5tx1` (or `dy…`, `dz…`), `tx2`, `xxcon2..xxcon5`.
    d: [f64; 5],
    t2: f64,
    con: [f64; 4],
}

/// The reference's five forms of the dissipation stencil: the first two
/// and last two interior points along a direction drop the neighbours
/// they do not have.
#[derive(Clone, Copy)]
pub enum Form {
    /// Position 1: no neighbour behind.
    First,
    /// Position 2: one neighbour behind.
    Second,
    /// Two neighbours each side.
    Interior,
    /// Position `n - 3`: one neighbour ahead.
    SecondLast,
    /// Position `n - 2`: no neighbour ahead.
    Last,
}

impl Form {
    /// The form at position `p` of an extent-`n` direction (`n >= 6`).
    pub fn at(p: usize, n: usize) -> Form {
        match p {
            1 => Form::First,
            2 => Form::Second,
            _ if p == n - 3 => Form::SecondLast,
            _ if p == n - 2 => Form::Last,
            _ => Form::Interior,
        }
    }
}

/// `out[x] += term(x)` over the whole of `out`.
#[inline(always)]
fn accumulate<const SAFE: bool>(out: &mut [f64], term: impl Fn(usize) -> f64) {
    for x in 0..out.len() {
        st::<_, SAFE>(out, x, ld::<_, SAFE>(out, x) + term(x));
    }
}

/// The second difference `g(+1) - 2 g(0) + g(-1)` at column `x`.
#[inline(always)]
pub fn d2<const SAFE: bool>([p, c, m]: Tri, x: usize) -> f64 {
    ld::<_, SAFE>(p, x) - 2.0 * ld::<_, SAFE>(c, x) + ld::<_, SAFE>(m, x)
}

/// `t` cut to the `n` columns of the output line, which is what lets the
/// bounds checks of a loop over `0..n` fold.
#[inline(always)]
pub fn cut(t: Tri, n: usize) -> Tri {
    t.map(|r| &r[..n])
}

/// Continuity: `u0` diffused, the normal momentum `un` differenced.
#[inline(never)]
fn flux_mass<const SAFE: bool>(out: &mut [f64], u0: Tri, un: Tri, d: f64, t2: f64) {
    let n = out.len();
    let (u0, [np, _, nm]) = (cut(u0, n), cut(un, n));
    accumulate::<SAFE>(out, |x| {
        d * d2::<SAFE>(u0, x) - t2 * (ld::<_, SAFE>(np, x) - ld::<_, SAFE>(nm, x))
    });
}

/// A momentum component `um` across the direction: its velocity `vel`
/// diffused, `um` convected by the normal velocity `vn`.
#[inline(never)]
fn flux_tangential<const SAFE: bool>(
    out: &mut [f64],
    um: Tri,
    vel: Tri,
    vn: Tri,
    [d, con2, t2]: [f64; 3],
) {
    let n = out.len();
    let (um, vel, [vp, _, vm]) = (cut(um, n), cut(vel, n), cut(vn, n));
    accumulate::<SAFE>(out, |x| {
        let l = |r: &[f64]| ld::<_, SAFE>(r, x);
        d * d2::<SAFE>(um, x) + con2 * d2::<SAFE>(vel, x)
            - t2 * (l(um[0]) * l(vp) - l(um[2]) * l(vm))
    });
}

/// The momentum component along the direction: `con2` carries the
/// reference's `con43`, and the pressure difference (from the energy
/// `u4` and `square`) joins the convective term.
#[inline(never)]
fn flux_normal<const SAFE: bool>(
    out: &mut [f64],
    um: Tri,
    vn: Tri,
    u4: Tri,
    sq: Tri,
    [d, con2, t2, c2]: [f64; 4],
) {
    let n = out.len();
    let (um, vn, [ep, _, em], [sp, _, sm]) = (cut(um, n), cut(vn, n), cut(u4, n), cut(sq, n));
    accumulate::<SAFE>(out, |x| {
        let l = |r: &[f64]| ld::<_, SAFE>(r, x);
        d * d2::<SAFE>(um, x) + con2 * d2::<SAFE>(vn, x)
            - t2 * (l(um[0]) * l(vn[0]) - l(um[2]) * l(vn[2])
                + (l(ep) - l(sp) - l(em) + l(sm)) * c2)
    });
}

/// Energy.
#[inline(never)]
fn flux_energy<const SAFE: bool>(
    out: &mut [f64],
    [u4, qs, vn, rho, sq]: [Tri; 5],
    dir: &Dir,
    (c1, c2): (f64, f64),
) {
    let n = out.len();
    let (u4, qs, vn, rho, sq) = (cut(u4, n), cut(qs, n), cut(vn, n), cut(rho, n), cut(sq, n));
    let (d, t2, [_, con3, con4, con5]) = (dir.d[4], dir.t2, dir.con);
    accumulate::<SAFE>(out, |x| {
        let l = |r: &[f64]| ld::<_, SAFE>(r, x);
        let ([ep, ec, em], [vp, vc, vm]) = (u4.map(l), vn.map(l));
        d * d2::<SAFE>(u4, x)
            + con3 * d2::<SAFE>(qs, x)
            + con4 * (vp * vp - 2.0 * vc * vc + vm * vm)
            + con5 * (ep * l(rho[0]) - 2.0 * ec * l(rho[1]) + em * l(rho[2]))
            - t2 * ((c1 * ep - c2 * l(sq[0])) * vp - (c1 * em - c2 * l(sq[2])) * vm)
    });
}

/// The fourth-order dissipation term of one point, `g(s)` being the value
/// `s` points along the direction: the one statement of the reference's
/// five forms.
#[inline(always)]
fn diss_term(form: Form, dssp: f64, g: impl Fn(isize) -> f64) -> f64 {
    match form {
        Form::First => -dssp * (5.0 * g(0) - 4.0 * g(1) + g(2)),
        Form::Second => -dssp * (-4.0 * g(-1) + 6.0 * g(0) - 4.0 * g(1) + g(2)),
        Form::Interior => -dssp * (g(-2) - 4.0 * g(-1) + 6.0 * g(0) - 4.0 * g(1) + g(2)),
        Form::SecondLast => -dssp * (g(-2) - 4.0 * g(-1) + 6.0 * g(0) - 4.0 * g(1)),
        Form::Last => -dssp * (g(-2) - 4.0 * g(-1) + 5.0 * g(0)),
    }
}

/// Dissipation of the points `u[at + x]` along a direction of stride
/// `step`, all in one form (a whole row along η or ζ). A neighbour row the
/// form does not read (and that may not exist) is stood in for by the
/// nearest one it does. Matching outside the loop hands each loop a
/// constant form.
#[inline(never)]
pub fn diss_row<const SAFE: bool>(
    out: &mut [f64],
    form: Form,
    u: &[f64],
    at: usize,
    step: usize,
    dssp: f64,
) {
    let n = out.len();
    let (lo, hi) = match form {
        Form::First => (0, 2),
        Form::Second => (-1, 2),
        Form::Interior => (-2, 2),
        Form::SecondLast => (-2, 1),
        Form::Last => (-2, 0),
    };
    let row = |s: isize| &u[at.wrapping_add_signed(s.clamp(lo, hi) * step as isize)..][..n];
    let rows = [row(-2), row(-1), row(0), row(1), row(2)];
    let term = |f, x| diss_term(f, dssp, |s| ld::<_, SAFE>(rows[(s + 2) as usize], x));
    match form {
        Form::First => accumulate::<SAFE>(out, |x| term(Form::First, x)),
        Form::Second => accumulate::<SAFE>(out, |x| term(Form::Second, x)),
        Form::Interior => accumulate::<SAFE>(out, |x| term(Form::Interior, x)),
        Form::SecondLast => accumulate::<SAFE>(out, |x| term(Form::SecondLast, x)),
        Form::Last => accumulate::<SAFE>(out, |x| term(Form::Last, x)),
    }
}

/// Dissipation along ξ, where the form goes by column: `out` is a whole
/// line and `u[at..]` the row under it.
#[inline(never)]
pub fn diss_columns<const SAFE: bool>(out: &mut [f64], u: &[f64], at: usize, dssp: f64) {
    let nx = out.len();
    let row = &u[at..][..nx];
    let ends =
        [(Form::First, 1), (Form::Second, 2), (Form::SecondLast, nx - 3), (Form::Last, nx - 2)];
    for (form, i) in ends {
        let term = diss_term(form, dssp, |s| ld::<_, SAFE>(row, i.wrapping_add_signed(s)));
        st::<_, SAFE>(out, i, ld::<_, SAFE>(out, i) + term);
    }
    diss_row::<SAFE>(&mut out[3..nx - 3], Form::Interior, u, at + 3, 1, dssp);
}

/// De-interleave an m-fastest row: `lines[m][i] = row[5 i + m]`.
#[inline(never)]
pub fn split5<const SAFE: bool>(row: &[f64], lines: &mut [&mut [f64]; 5]) {
    let [l0, l1, l2, l3, l4] = lines;
    let n = l0.len();
    let row = &row[..5 * n];
    let lines = [&mut l0[..n], &mut l1[..n], &mut l2[..n], &mut l3[..n], &mut l4[..n]];
    for i in 0..n {
        for m in 0..5 {
            st::<_, SAFE>(lines[m], i, ld::<_, SAFE>(row, 5 * i + m));
        }
    }
}

/// Interleave the accumulator lines into the m-fastest `rhs` row: the
/// interior columns scaled by `dt`, the two end columns (still the
/// forcing they were gathered as) as they are.
#[inline(never)]
pub fn join5<const SAFE: bool>(row: &mut [f64], lines: &[&mut [f64]; 5], dt: f64) {
    let [l0, l1, l2, l3, l4] = lines;
    let n = l0.len();
    let (row, lines) = (&mut row[..5 * n], [&l0[..n], &l1[..n], &l2[..n], &l3[..n], &l4[..n]]);
    for i in 0..n {
        let scale = if i == 0 || i == n - 1 { 1.0 } else { dt };
        for m in 0..5 {
            st::<_, SAFE>(row, 5 * i + m, ld::<_, SAFE>(lines[m], i) * scale);
        }
    }
}

/// Phase 1's point quantities of one row, from its component lines.
#[inline(never)]
#[allow(clippy::too_many_arguments)] // seven `noalias` output lines
fn point_row<const SAFE: bool, const SPEED: bool>(
    u: &[&mut [f64]; 5],
    rho_i: &mut [f64],
    us: &mut [f64],
    vs: &mut [f64],
    ws: &mut [f64],
    qs: &mut [f64],
    square: &mut [f64],
    speed: &mut [f64],
    c1c2: f64,
) {
    let n = rho_i.len();
    let [u0, u1, u2, u3, u4] = u;
    let (u0, u1, u2, u3, u4) = (&u0[..n], &u1[..n], &u2[..n], &u3[..n], &u4[..n]);
    let (us, vs, ws, qs) = (&mut us[..n], &mut vs[..n], &mut ws[..n], &mut qs[..n]);
    let (square, speed) = (&mut square[..n], &mut speed[..n]);
    for x in 0..n {
        let l = |r: &[f64]| ld::<_, SAFE>(r, x);
        let rho_inv = 1.0 / l(u0);
        st::<_, SAFE>(rho_i, x, rho_inv);
        st::<_, SAFE>(us, x, rho_inv * l(u1));
        st::<_, SAFE>(vs, x, rho_inv * l(u2));
        st::<_, SAFE>(ws, x, rho_inv * l(u3));
        let sq = 0.5 * (l(u1) * l(u1) + l(u2) * l(u2) + l(u3) * l(u3)) * rho_inv;
        st::<_, SAFE>(square, x, sq);
        st::<_, SAFE>(qs, x, sq * rho_inv);
        if SPEED {
            st::<_, SAFE>(speed, x, (c1c2 * rho_inv * (l(u4) - sq)).sqrt());
        }
    }
}

/// The rows of `g` one `step` either side of the `w` points from `a`.
#[inline(always)]
pub fn tri(g: &[f64], a: usize, step: usize, w: usize) -> Tri<'_> {
    [&g[a + step..][..w], &g[a..][..w], &g[a - step..][..w]]
}

/// Add one direction's flux and dissipation to the accumulator lines of
/// the row whose first point is `at`. `u` are the component grids of
/// [`Fields::uc`]; `form` is the row's dissipation form along η or ζ, and
/// `None` along ξ, where it goes by column.
#[inline(always)]
fn direction<'a, const SAFE: bool>(
    acc: &mut [&mut [f64]; 5],
    u: [&'a [f64]; 5],
    [rho_i, us, vs, ws, qs, square]: [&'a [f64]; 6],
    at: usize,
    dir: &Dir,
    form: Option<Form>,
    c: &Consts,
) {
    let nx = acc[0].len();
    let (a, s, w) = (at + 1, dir.step, nx - 2);
    let t = |g: &'a [f64]| tri(g, a, s, w);
    let vel = [us, vs, ws];
    let (vn, u4, sq) = (t(vel[dir.normal - 1]), t(u[4]), t(square));
    flux_mass::<SAFE>(&mut acc[0][1..nx - 1], t(u[0]), t(u[dir.normal]), dir.d[0], dir.t2);
    for m in 1..4 {
        let (out, k) = (&mut acc[m][1..nx - 1], [dir.d[m], dir.con[0], dir.t2]);
        if m == dir.normal {
            flux_normal::<SAFE>(out, t(u[m]), vn, u4, sq, [k[0], k[1] * c.con43, k[2], c.c2]);
        } else {
            flux_tangential::<SAFE>(out, t(u[m]), t(vel[m - 1]), vn, k);
        }
    }
    flux_energy::<SAFE>(&mut acc[4][1..nx - 1], [u4, t(qs), vn, t(rho_i), sq], dir, (c.c1, c.c2));
    for m in 0..5 {
        match form {
            None => diss_columns::<SAFE>(acc[m], u[m], at, c.dssp),
            Some(f) => diss_row::<SAFE>(&mut acc[m][1..nx - 1], f, u[m], a, dir.step, c.dssp),
        }
    }
}

/// Evaluate the right-hand side into `f.rhs`.
///
/// `SPEED` additionally fills the speed-of-sound grid (needed by SP's
/// diagonalized solvers; BT instantiates with `false`).
pub fn compute_rhs<const SAFE: bool, const SPEED: bool>(
    f: &mut Fields,
    c: &Consts,
    team: Option<&Team>,
) {
    let (nx, ny, nz) = (f.nx, f.ny, f.nz);
    // The four special dissipation points of a direction are distinct.
    assert!(nx >= 6 && ny >= 6 && nz >= 6, "compute_rhs needs extents >= 6: {nx} {ny} {nz}");
    let n = nx * ny * nz;
    let (u, forcing): (&[f64], &[f64]) = (&f.u, &f.forcing);
    // SAFETY: `rhs` is written in phase 2 only, a row at a time by the rank
    // the partition gave the row's plane, and read by nobody.
    let rhs = unsafe { SharedMut::new(&mut f.rhs) };
    // SAFETY: `uc` is written in phase 1 only, each rank the rows of its own
    // planes; every later read comes after the barrier.
    let uc = unsafe { SharedMut::new(&mut f.uc) };
    // SAFETY: plane `k`'s five lines are touched only by the rank producing
    // plane `k` of `rhs`.
    let lines = unsafe { SharedMut::new(&mut f.lines) };
    let [rho_i, us, vs, ws, qs, square, speed] =
        [&mut f.rho_i, &mut f.us, &mut f.vs, &mut f.ws, &mut f.qs, &mut f.square, &mut f.speed]
            // SAFETY: the point grids are written like `uc` — phase 1, own
            // planes, read after the barrier (`speed` not at all in here).
            .map(|g| unsafe { SharedMut::new(g) });
    let dirs = [
        Dir {
            step: 1,
            normal: 1,
            d: [c.dx1tx1, c.dx2tx1, c.dx3tx1, c.dx4tx1, c.dx5tx1],
            t2: c.tx2,
            con: [c.xxcon2, c.xxcon3, c.xxcon4, c.xxcon5],
        },
        Dir {
            step: nx,
            normal: 2,
            d: [c.dy1ty1, c.dy2ty1, c.dy3ty1, c.dy4ty1, c.dy5ty1],
            t2: c.ty2,
            con: [c.yycon2, c.yycon3, c.yycon4, c.yycon5],
        },
        Dir {
            step: nx * ny,
            normal: 3,
            d: [c.dz1tz1, c.dz2tz1, c.dz3tz1, c.dz4tz1, c.dz5tz1],
            t2: c.tz2,
            con: [c.zzcon2, c.zzcon3, c.zzcon4, c.zzcon5],
        },
    ];

    run_par(team, |par| {
        // Phase 1: component lines and point quantities, all planes.
        par.for_chunks(nz, |ks| {
            for at in (ks.start * ny..ks.end * ny).map(|row| row * nx) {
                // SAFETY: row `at` lies in a plane of this rank's chunk, which
                // no other rank touches before the barrier; the twelve views
                // are of different grids or different components of `uc`.
                let (mut comps, [rho_i, us, vs, ws, qs, square, speed]) = unsafe {
                    (
                        [0, 1, 2, 3, 4].map(|m| uc.row_mut(m * n + at, nx)),
                        [&rho_i, &us, &vs, &ws, &qs, &square, &speed].map(|g| g.row_mut(at, nx)),
                    )
                };
                split5::<SAFE>(&u[5 * at..][..5 * nx], &mut comps);
                point_row::<SAFE, SPEED>(&comps, rho_i, us, vs, ws, qs, square, speed, c.c1c2);
            }
        });
        par.barrier();

        // SAFETY: after the barrier nobody writes `uc` or a point grid until
        // the region ends, so any rank may borrow all of them.
        let (uc, pts) = unsafe {
            (uc.row(0, 5 * n), [&rho_i, &us, &vs, &ws, &qs, &square].map(|g| g.row(0, n)))
        };
        let comps = [0, 1, 2, 3, 4].map(|m| &uc[m * n..][..n]);
        // Phase 2: one pass over the rows of `rhs`.
        par.for_chunks(nz, |ks| {
            for k in ks {
                // SAFETY: plane `k` is in this rank's chunk, so its lines are
                // this rank's alone, and this is the only view of them.
                let mut acc =
                    unsafe { [0, 1, 2, 3, 4].map(|m| lines.row_mut((5 * k + m) * nx, nx)) };
                for j in 0..ny {
                    let at = idx(nx, ny, 0, j, k);
                    let frow = &forcing[5 * at..][..5 * nx];
                    // SAFETY: the row being produced, in an owned plane; the
                    // only view of `rhs` this rank holds, and no `row` of
                    // `rhs` exists anywhere.
                    let out = unsafe { rhs.row_mut(5 * at, 5 * nx) };
                    if j == 0 || j == ny - 1 || k == 0 || k == nz - 1 {
                        out.copy_from_slice(frow);
                        continue;
                    }
                    split5::<SAFE>(frow, &mut acc);
                    let forms = [None, Some(Form::at(j, ny)), Some(Form::at(k, nz))];
                    for (dir, form) in dirs.iter().zip(forms) {
                        direction::<SAFE>(&mut acc, comps, pts, at, dir, form, c);
                    }
                    join5::<SAFE>(out, &acc, c.dt);
                }
            }
        });
    });
}

/// `u[x] += rhs[x]` over the whole of `u`.
#[inline(never)]
fn add_row<const SAFE: bool>(u: &mut [f64], rhs: &[f64]) {
    let rhs = &rhs[..u.len()];
    accumulate::<SAFE>(u, |x| ld::<_, SAFE>(rhs, x));
}

/// `add`: `u += rhs` over the interior. Both arrays are m-fastest, so the
/// interior of a row is one flat unit-stride span of each.
pub fn add<const SAFE: bool>(f: &mut Fields, team: Option<&Team>) {
    let (nx, ny, nz) = (f.nx, f.ny, f.nz);
    let rhs: &[f64] = &f.rhs;
    // SAFETY: each rank writes only rows of the planes of its own chunk.
    let u = unsafe { SharedMut::new(&mut f.u) };
    run_par(team, |par| {
        par.for_chunks_in(1, nz - 1, |ks| {
            for k in ks {
                for j in 1..ny - 1 {
                    let (at, len) = (idx5(nx, ny, 0, 1, j, k), 5 * (nx - 2));
                    // SAFETY: the only view of a row in a plane of this
                    // rank's chunk, which no other rank touches.
                    add_row::<SAFE>(unsafe { u.row_mut(at, len) }, &rhs[at..][..len]);
                }
            }
        });
    });
}

/// The per-point loop nest the row kernels replaced — `rhs.f` phase for
/// phase (point quantities; `rhs = forcing`; ξ, η, ζ fluxes each followed
/// by its dissipation; the `dt` scale), serial and bounds-checked — kept as
/// the reference the row kernels must reproduce bit for bit.
#[cfg(test)]
mod oracle {
    use crate::consts::Consts;
    use crate::fields::{idx, idx5, Fields};
    use npb_core::ld;
    use npb_runtime::Par;
    use std::cell::Cell;

    /// Safe stand-in for the `SharedMut` views the nest was written
    /// against: it runs serially, so `Cell`s do.
    struct Grid<'a>(&'a [Cell<f64>]);

    impl Grid<'_> {
        fn new(v: &mut [f64]) -> Grid<'_> {
            Grid(Cell::from_mut(v).as_slice_of_cells())
        }
        fn get<const SAFE: bool>(&self, i: usize) -> f64 {
            self.0[i].get()
        }
        fn set<const SAFE: bool>(&self, i: usize, v: f64) {
            self.0[i].set(v);
        }
        fn add<const SAFE: bool>(&self, i: usize, v: f64) {
            self.0[i].set(self.0[i].get() + v);
        }
    }

    pub fn compute_rhs<const SPEED: bool>(f: &mut Fields, c: &Consts) {
        const SAFE: bool = true;
        let (nx, ny, nz) = (f.nx, f.ny, f.nz);
        let u: &[f64] = &f.u;
        let forcing: &[f64] = &f.forcing;
        let rhs = Grid::new(&mut f.rhs);
        let rho_i = Grid::new(&mut f.rho_i);
        let us = Grid::new(&mut f.us);
        let vs = Grid::new(&mut f.vs);
        let ws = Grid::new(&mut f.ws);
        let qs = Grid::new(&mut f.qs);
        let square = Grid::new(&mut f.square);
        let speed = Grid::new(&mut f.speed);

        // Serial: every `for_chunks` below is the whole range and every
        // barrier a no-op.
        let par = Par::serial();
        let u5 = |m, i, j, k| ld::<_, SAFE>(u, idx5(nx, ny, m, i, j, k));
        let f5 = |m, i, j, k| ld::<_, SAFE>(forcing, idx5(nx, ny, m, i, j, k));
        let s_id = |i, j, k| idx(nx, ny, i, j, k);

        // Phase 1: point quantities, all planes.
        par.for_chunks(nz, |ks| {
            for k in ks {
                for j in 0..ny {
                    for i in 0..nx {
                        let id = s_id(i, j, k);
                        let rho_inv = 1.0 / u5(0, i, j, k);
                        rho_i.set::<SAFE>(id, rho_inv);
                        us.set::<SAFE>(id, rho_inv * u5(1, i, j, k));
                        vs.set::<SAFE>(id, rho_inv * u5(2, i, j, k));
                        ws.set::<SAFE>(id, rho_inv * u5(3, i, j, k));
                        let sq = 0.5
                            * (u5(1, i, j, k) * u5(1, i, j, k)
                                + u5(2, i, j, k) * u5(2, i, j, k)
                                + u5(3, i, j, k) * u5(3, i, j, k))
                            * rho_inv;
                        square.set::<SAFE>(id, sq);
                        qs.set::<SAFE>(id, sq * rho_inv);
                        if SPEED {
                            let aux = c.c1c2 * rho_inv * (u5(4, i, j, k) - sq);
                            speed.set::<SAFE>(id, aux.sqrt());
                        }
                    }
                }
            }
        });
        par.barrier();

        // Phase 2: rhs = forcing, all points.
        par.for_chunks(nz, |ks| {
            for k in ks {
                for j in 0..ny {
                    for i in 0..nx {
                        for m in 0..5 {
                            rhs.set::<SAFE>(idx5(nx, ny, m, i, j, k), f5(m, i, j, k));
                        }
                    }
                }
            }
        });
        par.barrier();

        // Phase 3: xi-direction fluxes + dissipation (interior planes).
        par.for_chunks_in(1, nz - 1, |ks| {
            for k in ks {
                for j in 1..ny - 1 {
                    for i in 1..nx - 1 {
                        let uijk = us.get::<SAFE>(s_id(i, j, k));
                        let up1 = us.get::<SAFE>(s_id(i + 1, j, k));
                        let um1 = us.get::<SAFE>(s_id(i - 1, j, k));
                        let r = |m| idx5(nx, ny, m, i, j, k);

                        rhs.add::<SAFE>(
                            r(0),
                            c.dx1tx1
                                * (u5(0, i + 1, j, k) - 2.0 * u5(0, i, j, k) + u5(0, i - 1, j, k))
                                - c.tx2 * (u5(1, i + 1, j, k) - u5(1, i - 1, j, k)),
                        );
                        rhs.add::<SAFE>(
                            r(1),
                            c.dx2tx1
                                * (u5(1, i + 1, j, k) - 2.0 * u5(1, i, j, k) + u5(1, i - 1, j, k))
                                + c.xxcon2 * c.con43 * (up1 - 2.0 * uijk + um1)
                                - c.tx2
                                    * (u5(1, i + 1, j, k) * up1 - u5(1, i - 1, j, k) * um1
                                        + (u5(4, i + 1, j, k)
                                            - square.get::<SAFE>(s_id(i + 1, j, k))
                                            - u5(4, i - 1, j, k)
                                            + square.get::<SAFE>(s_id(i - 1, j, k)))
                                            * c.c2),
                        );
                        rhs.add::<SAFE>(
                            r(2),
                            c.dx3tx1
                                * (u5(2, i + 1, j, k) - 2.0 * u5(2, i, j, k) + u5(2, i - 1, j, k))
                                + c.xxcon2
                                    * (vs.get::<SAFE>(s_id(i + 1, j, k))
                                        - 2.0 * vs.get::<SAFE>(s_id(i, j, k))
                                        + vs.get::<SAFE>(s_id(i - 1, j, k)))
                                - c.tx2 * (u5(2, i + 1, j, k) * up1 - u5(2, i - 1, j, k) * um1),
                        );
                        rhs.add::<SAFE>(
                            r(3),
                            c.dx4tx1
                                * (u5(3, i + 1, j, k) - 2.0 * u5(3, i, j, k) + u5(3, i - 1, j, k))
                                + c.xxcon2
                                    * (ws.get::<SAFE>(s_id(i + 1, j, k))
                                        - 2.0 * ws.get::<SAFE>(s_id(i, j, k))
                                        + ws.get::<SAFE>(s_id(i - 1, j, k)))
                                - c.tx2 * (u5(3, i + 1, j, k) * up1 - u5(3, i - 1, j, k) * um1),
                        );
                        rhs.add::<SAFE>(
                            r(4),
                            c.dx5tx1
                                * (u5(4, i + 1, j, k) - 2.0 * u5(4, i, j, k) + u5(4, i - 1, j, k))
                                + c.xxcon3
                                    * (qs.get::<SAFE>(s_id(i + 1, j, k))
                                        - 2.0 * qs.get::<SAFE>(s_id(i, j, k))
                                        + qs.get::<SAFE>(s_id(i - 1, j, k)))
                                + c.xxcon4 * (up1 * up1 - 2.0 * uijk * uijk + um1 * um1)
                                + c.xxcon5
                                    * (u5(4, i + 1, j, k) * rho_i.get::<SAFE>(s_id(i + 1, j, k))
                                        - 2.0 * u5(4, i, j, k) * rho_i.get::<SAFE>(s_id(i, j, k))
                                        + u5(4, i - 1, j, k)
                                            * rho_i.get::<SAFE>(s_id(i - 1, j, k)))
                                - c.tx2
                                    * ((c.c1 * u5(4, i + 1, j, k)
                                        - c.c2 * square.get::<SAFE>(s_id(i + 1, j, k)))
                                        * up1
                                        - (c.c1 * u5(4, i - 1, j, k)
                                            - c.c2 * square.get::<SAFE>(s_id(i - 1, j, k)))
                                            * um1),
                        );
                    }
                    // xi dissipation.
                    for m in 0..5 {
                        let mut i = 1;
                        rhs.add::<SAFE>(
                            idx5(nx, ny, m, i, j, k),
                            -c.dssp
                                * (5.0 * u5(m, i, j, k) - 4.0 * u5(m, i + 1, j, k)
                                    + u5(m, i + 2, j, k)),
                        );
                        i = 2;
                        rhs.add::<SAFE>(
                            idx5(nx, ny, m, i, j, k),
                            -c.dssp
                                * (-4.0 * u5(m, i - 1, j, k) + 6.0 * u5(m, i, j, k)
                                    - 4.0 * u5(m, i + 1, j, k)
                                    + u5(m, i + 2, j, k)),
                        );
                        for i in 3..nx - 3 {
                            rhs.add::<SAFE>(
                                idx5(nx, ny, m, i, j, k),
                                -c.dssp
                                    * (u5(m, i - 2, j, k) - 4.0 * u5(m, i - 1, j, k)
                                        + 6.0 * u5(m, i, j, k)
                                        - 4.0 * u5(m, i + 1, j, k)
                                        + u5(m, i + 2, j, k)),
                            );
                        }
                        i = nx - 3;
                        rhs.add::<SAFE>(
                            idx5(nx, ny, m, i, j, k),
                            -c.dssp
                                * (u5(m, i - 2, j, k) - 4.0 * u5(m, i - 1, j, k)
                                    + 6.0 * u5(m, i, j, k)
                                    - 4.0 * u5(m, i + 1, j, k)),
                        );
                        i = nx - 2;
                        rhs.add::<SAFE>(
                            idx5(nx, ny, m, i, j, k),
                            -c.dssp
                                * (u5(m, i - 2, j, k) - 4.0 * u5(m, i - 1, j, k)
                                    + 5.0 * u5(m, i, j, k)),
                        );
                    }
                }
            }
        });

        // Phase 4: eta-direction fluxes + dissipation.
        par.for_chunks_in(1, nz - 1, |ks| {
            for k in ks {
                for j in 1..ny - 1 {
                    for i in 1..nx - 1 {
                        let vijk = vs.get::<SAFE>(s_id(i, j, k));
                        let vp1 = vs.get::<SAFE>(s_id(i, j + 1, k));
                        let vm1 = vs.get::<SAFE>(s_id(i, j - 1, k));
                        let r = |m| idx5(nx, ny, m, i, j, k);

                        rhs.add::<SAFE>(
                            r(0),
                            c.dy1ty1
                                * (u5(0, i, j + 1, k) - 2.0 * u5(0, i, j, k) + u5(0, i, j - 1, k))
                                - c.ty2 * (u5(2, i, j + 1, k) - u5(2, i, j - 1, k)),
                        );
                        rhs.add::<SAFE>(
                            r(1),
                            c.dy2ty1
                                * (u5(1, i, j + 1, k) - 2.0 * u5(1, i, j, k) + u5(1, i, j - 1, k))
                                + c.yycon2
                                    * (us.get::<SAFE>(s_id(i, j + 1, k))
                                        - 2.0 * us.get::<SAFE>(s_id(i, j, k))
                                        + us.get::<SAFE>(s_id(i, j - 1, k)))
                                - c.ty2 * (u5(1, i, j + 1, k) * vp1 - u5(1, i, j - 1, k) * vm1),
                        );
                        rhs.add::<SAFE>(
                            r(2),
                            c.dy3ty1
                                * (u5(2, i, j + 1, k) - 2.0 * u5(2, i, j, k) + u5(2, i, j - 1, k))
                                + c.yycon2 * c.con43 * (vp1 - 2.0 * vijk + vm1)
                                - c.ty2
                                    * (u5(2, i, j + 1, k) * vp1 - u5(2, i, j - 1, k) * vm1
                                        + (u5(4, i, j + 1, k)
                                            - square.get::<SAFE>(s_id(i, j + 1, k))
                                            - u5(4, i, j - 1, k)
                                            + square.get::<SAFE>(s_id(i, j - 1, k)))
                                            * c.c2),
                        );
                        rhs.add::<SAFE>(
                            r(3),
                            c.dy4ty1
                                * (u5(3, i, j + 1, k) - 2.0 * u5(3, i, j, k) + u5(3, i, j - 1, k))
                                + c.yycon2
                                    * (ws.get::<SAFE>(s_id(i, j + 1, k))
                                        - 2.0 * ws.get::<SAFE>(s_id(i, j, k))
                                        + ws.get::<SAFE>(s_id(i, j - 1, k)))
                                - c.ty2 * (u5(3, i, j + 1, k) * vp1 - u5(3, i, j - 1, k) * vm1),
                        );
                        rhs.add::<SAFE>(
                            r(4),
                            c.dy5ty1
                                * (u5(4, i, j + 1, k) - 2.0 * u5(4, i, j, k) + u5(4, i, j - 1, k))
                                + c.yycon3
                                    * (qs.get::<SAFE>(s_id(i, j + 1, k))
                                        - 2.0 * qs.get::<SAFE>(s_id(i, j, k))
                                        + qs.get::<SAFE>(s_id(i, j - 1, k)))
                                + c.yycon4 * (vp1 * vp1 - 2.0 * vijk * vijk + vm1 * vm1)
                                + c.yycon5
                                    * (u5(4, i, j + 1, k) * rho_i.get::<SAFE>(s_id(i, j + 1, k))
                                        - 2.0 * u5(4, i, j, k) * rho_i.get::<SAFE>(s_id(i, j, k))
                                        + u5(4, i, j - 1, k)
                                            * rho_i.get::<SAFE>(s_id(i, j - 1, k)))
                                - c.ty2
                                    * ((c.c1 * u5(4, i, j + 1, k)
                                        - c.c2 * square.get::<SAFE>(s_id(i, j + 1, k)))
                                        * vp1
                                        - (c.c1 * u5(4, i, j - 1, k)
                                            - c.c2 * square.get::<SAFE>(s_id(i, j - 1, k)))
                                            * vm1),
                        );
                    }
                }
                // eta dissipation.
                for m in 0..5 {
                    for i in 1..nx - 1 {
                        let mut j = 1;
                        rhs.add::<SAFE>(
                            idx5(nx, ny, m, i, j, k),
                            -c.dssp
                                * (5.0 * u5(m, i, j, k) - 4.0 * u5(m, i, j + 1, k)
                                    + u5(m, i, j + 2, k)),
                        );
                        j = 2;
                        rhs.add::<SAFE>(
                            idx5(nx, ny, m, i, j, k),
                            -c.dssp
                                * (-4.0 * u5(m, i, j - 1, k) + 6.0 * u5(m, i, j, k)
                                    - 4.0 * u5(m, i, j + 1, k)
                                    + u5(m, i, j + 2, k)),
                        );
                        for j in 3..ny - 3 {
                            rhs.add::<SAFE>(
                                idx5(nx, ny, m, i, j, k),
                                -c.dssp
                                    * (u5(m, i, j - 2, k) - 4.0 * u5(m, i, j - 1, k)
                                        + 6.0 * u5(m, i, j, k)
                                        - 4.0 * u5(m, i, j + 1, k)
                                        + u5(m, i, j + 2, k)),
                            );
                        }
                        j = ny - 3;
                        rhs.add::<SAFE>(
                            idx5(nx, ny, m, i, j, k),
                            -c.dssp
                                * (u5(m, i, j - 2, k) - 4.0 * u5(m, i, j - 1, k)
                                    + 6.0 * u5(m, i, j, k)
                                    - 4.0 * u5(m, i, j + 1, k)),
                        );
                        j = ny - 2;
                        rhs.add::<SAFE>(
                            idx5(nx, ny, m, i, j, k),
                            -c.dssp
                                * (u5(m, i, j - 2, k) - 4.0 * u5(m, i, j - 1, k)
                                    + 5.0 * u5(m, i, j, k)),
                        );
                    }
                }
            }
        });

        // Phase 5: zeta-direction fluxes + dissipation. Reads the point
        // quantities at k±1, which phase 1's barrier made visible.
        par.for_chunks_in(1, nz - 1, |ks| {
            for k in ks {
                for j in 1..ny - 1 {
                    for i in 1..nx - 1 {
                        let wijk = ws.get::<SAFE>(s_id(i, j, k));
                        let wp1 = ws.get::<SAFE>(s_id(i, j, k + 1));
                        let wm1 = ws.get::<SAFE>(s_id(i, j, k - 1));
                        let r = |m| idx5(nx, ny, m, i, j, k);

                        rhs.add::<SAFE>(
                            r(0),
                            c.dz1tz1
                                * (u5(0, i, j, k + 1) - 2.0 * u5(0, i, j, k) + u5(0, i, j, k - 1))
                                - c.tz2 * (u5(3, i, j, k + 1) - u5(3, i, j, k - 1)),
                        );
                        rhs.add::<SAFE>(
                            r(1),
                            c.dz2tz1
                                * (u5(1, i, j, k + 1) - 2.0 * u5(1, i, j, k) + u5(1, i, j, k - 1))
                                + c.zzcon2
                                    * (us.get::<SAFE>(s_id(i, j, k + 1))
                                        - 2.0 * us.get::<SAFE>(s_id(i, j, k))
                                        + us.get::<SAFE>(s_id(i, j, k - 1)))
                                - c.tz2 * (u5(1, i, j, k + 1) * wp1 - u5(1, i, j, k - 1) * wm1),
                        );
                        rhs.add::<SAFE>(
                            r(2),
                            c.dz3tz1
                                * (u5(2, i, j, k + 1) - 2.0 * u5(2, i, j, k) + u5(2, i, j, k - 1))
                                + c.zzcon2
                                    * (vs.get::<SAFE>(s_id(i, j, k + 1))
                                        - 2.0 * vs.get::<SAFE>(s_id(i, j, k))
                                        + vs.get::<SAFE>(s_id(i, j, k - 1)))
                                - c.tz2 * (u5(2, i, j, k + 1) * wp1 - u5(2, i, j, k - 1) * wm1),
                        );
                        rhs.add::<SAFE>(
                            r(3),
                            c.dz4tz1
                                * (u5(3, i, j, k + 1) - 2.0 * u5(3, i, j, k) + u5(3, i, j, k - 1))
                                + c.zzcon2 * c.con43 * (wp1 - 2.0 * wijk + wm1)
                                - c.tz2
                                    * (u5(3, i, j, k + 1) * wp1 - u5(3, i, j, k - 1) * wm1
                                        + (u5(4, i, j, k + 1)
                                            - square.get::<SAFE>(s_id(i, j, k + 1))
                                            - u5(4, i, j, k - 1)
                                            + square.get::<SAFE>(s_id(i, j, k - 1)))
                                            * c.c2),
                        );
                        rhs.add::<SAFE>(
                            r(4),
                            c.dz5tz1
                                * (u5(4, i, j, k + 1) - 2.0 * u5(4, i, j, k) + u5(4, i, j, k - 1))
                                + c.zzcon3
                                    * (qs.get::<SAFE>(s_id(i, j, k + 1))
                                        - 2.0 * qs.get::<SAFE>(s_id(i, j, k))
                                        + qs.get::<SAFE>(s_id(i, j, k - 1)))
                                + c.zzcon4 * (wp1 * wp1 - 2.0 * wijk * wijk + wm1 * wm1)
                                + c.zzcon5
                                    * (u5(4, i, j, k + 1) * rho_i.get::<SAFE>(s_id(i, j, k + 1))
                                        - 2.0 * u5(4, i, j, k) * rho_i.get::<SAFE>(s_id(i, j, k))
                                        + u5(4, i, j, k - 1)
                                            * rho_i.get::<SAFE>(s_id(i, j, k - 1)))
                                - c.tz2
                                    * ((c.c1 * u5(4, i, j, k + 1)
                                        - c.c2 * square.get::<SAFE>(s_id(i, j, k + 1)))
                                        * wp1
                                        - (c.c1 * u5(4, i, j, k - 1)
                                            - c.c2 * square.get::<SAFE>(s_id(i, j, k - 1)))
                                            * wm1),
                        );
                    }
                }
            }
        });
        // zeta dissipation: the special-k rows are written by whichever
        // thread owns them in the interior partition.
        par.for_chunks_in(1, nz - 1, |ks| {
            for k in ks {
                for j in 1..ny - 1 {
                    for i in 1..nx - 1 {
                        for m in 0..5 {
                            let id = idx5(nx, ny, m, i, j, k);
                            let d = if k == 1 {
                                5.0 * u5(m, i, j, k) - 4.0 * u5(m, i, j, k + 1) + u5(m, i, j, k + 2)
                            } else if k == 2 {
                                -4.0 * u5(m, i, j, k - 1) + 6.0 * u5(m, i, j, k)
                                    - 4.0 * u5(m, i, j, k + 1)
                                    + u5(m, i, j, k + 2)
                            } else if k == nz - 3 {
                                u5(m, i, j, k - 2) - 4.0 * u5(m, i, j, k - 1) + 6.0 * u5(m, i, j, k)
                                    - 4.0 * u5(m, i, j, k + 1)
                            } else if k == nz - 2 {
                                u5(m, i, j, k - 2) - 4.0 * u5(m, i, j, k - 1) + 5.0 * u5(m, i, j, k)
                            } else {
                                u5(m, i, j, k - 2) - 4.0 * u5(m, i, j, k - 1) + 6.0 * u5(m, i, j, k)
                                    - 4.0 * u5(m, i, j, k + 1)
                                    + u5(m, i, j, k + 2)
                            };
                            rhs.add::<SAFE>(id, -c.dssp * d);
                        }
                    }
                }
            }
        });

        // Phase 6: scale by dt.
        par.for_chunks_in(1, nz - 1, |ks| {
            for k in ks {
                for j in 1..ny - 1 {
                    for i in 1..nx - 1 {
                        for m in 0..5 {
                            let id = idx5(nx, ny, m, i, j, k);
                            rhs.set::<SAFE>(id, rhs.get::<SAFE>(id) * c.dt);
                        }
                    }
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::{exact_rhs, initialize};
    use npb_runtime::Team;

    fn setup(n: usize) -> (Fields, Consts) {
        setup3(n, n, n)
    }

    #[test]
    fn rhs_on_exact_solution_is_small() {
        // The forcing was built so the exact solution is steady: starting
        // from the exact field everywhere, rhs must be ~zero (up to the
        // interpolation-vs-exact mismatch of the initial field, which is
        // zero here because initialize puts the exact solution only on
        // the boundary — so instead load the exact solution everywhere).
        let (mut f, c) = setup(10);
        for k in 0..10 {
            for j in 0..10 {
                for i in 0..10 {
                    let e = c.exact_solution(
                        i as f64 * c.dnxm1,
                        j as f64 * c.dnym1,
                        k as f64 * c.dnzm1,
                    );
                    for m in 0..5 {
                        let id = f.idx5(m, i, j, k);
                        f.u[id] = e[m];
                    }
                }
            }
        }
        compute_rhs::<false, true>(&mut f, &c, None);
        let max = f.rhs.iter().fold(0.0f64, |a, &b| a.max(b.abs()));
        assert!(max < 1e-10, "max |rhs| = {max}");
    }

    #[test]
    fn parallel_rhs_matches_serial_bitwise() {
        let (mut fs, c) = setup(12);
        compute_rhs::<false, true>(&mut fs, &c, None);
        for n in [2usize, 3] {
            let team = Team::new(n);
            let (mut fp, _) = setup(12);
            compute_rhs::<false, true>(&mut fp, &c, Some(&team));
            assert_eq!(fs.rhs, fp.rhs, "{n} threads");
            assert_eq!(fs.speed, fp.speed);
        }
    }

    #[test]
    fn safe_and_opt_styles_agree_bitwise() {
        let (mut fa, c) = setup(10);
        let (mut fb, _) = setup(10);
        compute_rhs::<false, true>(&mut fa, &c, None);
        compute_rhs::<true, true>(&mut fb, &c, None);
        assert_eq!(fa.rhs, fb.rhs);
    }

    /// A field with every grid distinct, on a possibly non-cubic grid.
    fn setup3(nx: usize, ny: usize, nz: usize) -> (Fields, Consts) {
        let c = Consts::new(nx, ny, nz, 0.015);
        let mut f = Fields::new(nx, ny, nz);
        initialize(&mut f, &c);
        exact_rhs(&mut f, &c);
        (f, c)
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn run_rows(f: &mut Fields, c: &Consts, safe: bool, speed: bool, team: Option<&Team>) {
        match (safe, speed) {
            (false, false) => compute_rhs::<false, false>(f, c, team),
            (false, true) => compute_rhs::<false, true>(f, c, team),
            (true, false) => compute_rhs::<true, false>(f, c, team),
            (true, true) => compute_rhs::<true, true>(f, c, team),
        }
    }

    #[test]
    fn row_kernels_equal_the_per_point_reference_bit_for_bit() {
        // 6: the four special dissipation columns/rows with no full-stencil
        // point between them; 17: a vector body plus a tail; the last grid
        // catches a swapped stride.
        let teams = [Team::new(2), Team::new(3)];
        for (nx, ny, nz) in [(6, 6, 6), (8, 8, 8), (12, 12, 12), (17, 17, 17), (9, 7, 11)] {
            for speed in [false, true] {
                let (mut want, c) = setup3(nx, ny, nz);
                if speed {
                    oracle::compute_rhs::<true>(&mut want, &c);
                } else {
                    oracle::compute_rhs::<false>(&mut want, &c);
                }
                for safe in [false, true] {
                    for team in [None, Some(&teams[0]), Some(&teams[1])] {
                        let (mut got, _) = setup3(nx, ny, nz);
                        run_rows(&mut got, &c, safe, speed, team);
                        let what = format!(
                            "{nx}x{ny}x{nz} safe={safe} speed={speed} threads={}",
                            team.map_or(0, Team::size)
                        );
                        assert_eq!(bits(&got.rhs), bits(&want.rhs), "rhs, {what}");
                        for (name, g, w) in [
                            ("rho_i", &got.rho_i, &want.rho_i),
                            ("us", &got.us, &want.us),
                            ("vs", &got.vs, &want.vs),
                            ("ws", &got.ws, &want.ws),
                            ("qs", &got.qs, &want.qs),
                            ("square", &got.square, &want.square),
                            ("speed", &got.speed, &want.speed),
                        ] {
                            assert_eq!(bits(g), bits(w), "{name}, {what}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn uc_is_the_component_major_copy_of_u() {
        let (mut f, c) = setup3(9, 7, 11);
        compute_rhs::<false, false>(&mut f, &c, None);
        let n = f.npoints();
        for k in 0..11 {
            for j in 0..7 {
                for i in 0..9 {
                    for m in 0..5 {
                        assert_eq!(f.uc[m * n + f.idx(i, j, k)], f.u[f.idx5(m, i, j, k)]);
                    }
                }
            }
        }
    }

    // The range of every row view is `assert!`ed whatever the style, so a
    // malformed `Fields` panics instead of being written past its end — in
    // release builds too.
    #[test]
    #[should_panic(expected = "out of bounds")]
    fn opt_style_panics_on_an_rhs_one_row_short() {
        let (mut f, c) = setup(8);
        f.rhs.truncate(5 * 8 * 8 * 8 - 5 * 8);
        compute_rhs::<false, false>(&mut f, &c, None);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn safe_style_panics_on_an_rhs_one_row_short() {
        let (mut f, c) = setup(8);
        f.rhs.truncate(5 * 8 * 8 * 8 - 5 * 8);
        compute_rhs::<true, true>(&mut f, &c, None);
    }

    #[test]
    fn add_updates_interior_only() {
        let (mut f, c) = setup(8);
        compute_rhs::<false, false>(&mut f, &c, None);
        let before = f.u.clone();
        add::<false>(&mut f, None);
        // Boundary unchanged.
        for m in 0..5 {
            assert_eq!(f.u[f.idx5(m, 0, 3, 3)], before[f.idx5(m, 0, 3, 3)]);
        }
        // Interior moved by rhs.
        let id = f.idx5(0, 3, 3, 3);
        assert_eq!(f.u[id], before[id] + f.rhs[id]);
    }
}
