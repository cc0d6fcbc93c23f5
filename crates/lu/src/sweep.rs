//! The SSOR triangular sweeps: `jacld`+`blts` (block lower) and
//! `jacu`+`buts` (block upper), with the pipelined wavefront
//! parallelization of the OpenMP reference — the structure the paper
//! singles out: "LU … performs the thread synchronization inside a loop
//! over one grid dimension, thus introducing higher overhead."
//!
//! Within a plane `k`, point `(i, j)` depends on `(i-1, j)` and
//! `(i, j-1)` (lower sweep; the mirror for the upper sweep), so the j
//! range is partitioned across threads and thread `t` may start its
//! chunk of plane `k` only after thread `t-1` has finished that plane —
//! a point-to-point flag synchronization per plane, not a full barrier.
//!
//! Inside a thread's chunk the same dependence leaves the points of a
//! diagonal `i + j = const` independent of each other — the hyperplane
//! order of NPB's LU-HP. The chunk is swept diagonal by diagonal, four
//! points of a diagonal to an AVX2 vector (`npb_core::lane`), each lane
//! running its point's scalar operation sequence, so the result is the
//! per-point sweep's bit for bit (the test oracle below).

use crate::params::OMEGA;
use crate::rhs::LuFields;
use npb_cfd_common::jacobians::{jac_x, jac_y, jac_z, Block};
use npb_cfd_common::{idx5, Consts};
use npb_core::lane::{self, Kernel, Lane};
use npb_core::ld;
use npb_runtime::{run_par, SharedMut, Team};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The diagonal block `d` of `jacld`/`jacu` (identical in both) at one
/// point per lane with conserved variables `u`.
#[inline(always)]
fn d_block<L: Lane>(c: &Consts, dt: f64, u: &[L; 5]) -> Block<L> {
    let s = L::splat;
    let (one, two, dt) = (s(1.0), s(2.0), s(dt));
    let tmp1 = one / u[0];
    let tmp2 = tmp1 * tmp1;
    let tmp3 = tmp1 * tmp2;
    let r43 = s(c.con43);
    let c34 = s(c.c3c4);
    let c1345 = s(c.c1345);
    let (tx1, ty1, tz1) = (s(c.tx1), s(c.ty1), s(c.tz1));
    let (dx, dy, dz) = (&c.dx, &c.dy, &c.dz);

    let mut d = [[s(0.0); 5]; 5];
    d[0][0] = one + dt * two * (tx1 * s(dx[0]) + ty1 * s(dy[0]) + tz1 * s(dz[0]));

    d[1][0] = -dt * two * (tx1 * r43 + ty1 + tz1) * c34 * tmp2 * u[1];
    d[1][1] = one
        + dt * two * c34 * tmp1 * (tx1 * r43 + ty1 + tz1)
        + dt * two * (tx1 * s(dx[1]) + ty1 * s(dy[1]) + tz1 * s(dz[1]));

    d[2][0] = -dt * two * (tx1 + ty1 * r43 + tz1) * c34 * tmp2 * u[2];
    d[2][2] = one
        + dt * two * c34 * tmp1 * (tx1 + ty1 * r43 + tz1)
        + dt * two * (tx1 * s(dx[2]) + ty1 * s(dy[2]) + tz1 * s(dz[2]));

    d[3][0] = -dt * two * (tx1 + ty1 + tz1 * r43) * c34 * tmp2 * u[3];
    d[3][3] = one
        + dt * two * c34 * tmp1 * (tx1 + ty1 + tz1 * r43)
        + dt * two * (tx1 * s(dx[3]) + ty1 * s(dy[3]) + tz1 * s(dz[3]));

    d[4][0] = -dt
        * two
        * (((tx1 * (r43 * c34 - c1345) + ty1 * (c34 - c1345) + tz1 * (c34 - c1345))
            * (u[1] * u[1])
            + (tx1 * (c34 - c1345) + ty1 * (r43 * c34 - c1345) + tz1 * (c34 - c1345))
                * (u[2] * u[2])
            + (tx1 * (c34 - c1345) + ty1 * (c34 - c1345) + tz1 * (r43 * c34 - c1345))
                * (u[3] * u[3]))
            * tmp3
            + (tx1 + ty1 + tz1) * c1345 * tmp2 * u[4]);
    d[4][1] = dt
        * two
        * tmp2
        * u[1]
        * (tx1 * (r43 * c34 - c1345) + ty1 * (c34 - c1345) + tz1 * (c34 - c1345));
    d[4][2] = dt
        * two
        * tmp2
        * u[2]
        * (tx1 * (c34 - c1345) + ty1 * (r43 * c34 - c1345) + tz1 * (c34 - c1345));
    d[4][3] = dt
        * two
        * tmp2
        * u[3]
        * (tx1 * (c34 - c1345) + ty1 * (c34 - c1345) + tz1 * (r43 * c34 - c1345));
    d[4][4] = one
        + dt * two * (tx1 + ty1 + tz1) * c1345 * tmp1
        + dt * two * (tx1 * s(dx[4]) + ty1 * s(dy[4]) + tz1 * s(dz[4]));
    d
}

/// Off-diagonal Newton block for direction `dir` (0 = x, 1 = y, 2 = z)
/// built from the neighbor's state `u`, one point per lane:
/// lower (`UPPER = false`): `-dt·t2·F - dt·t1·N - dt·t1·d_diag`;
/// upper (`UPPER = true`):  `+dt·t2·F - dt·t1·N - dt·t1·d_diag`.
#[inline(always)]
fn neighbor_block<L: Lane, const UPPER: bool>(
    c: &Consts,
    dt: f64,
    dir: usize,
    u: &[L; 5],
) -> Block<L> {
    let tmp1 = L::splat(1.0) / u[0];
    let square = L::splat(0.5) * (u[1] * u[1] + u[2] * u[2] + u[3] * u[3]) * tmp1;
    let qs = square * tmp1;
    let mut fj = [[L::splat(0.0); 5]; 5];
    let mut nj = fj;
    let (t1, t2, d) = match dir {
        0 => {
            jac_x(c, u, qs, square, &mut fj, &mut nj);
            (dt * c.tx1, dt * c.tx2, &c.dx)
        }
        1 => {
            jac_y(c, u, qs, square, &mut fj, &mut nj);
            (dt * c.ty1, dt * c.ty2, &c.dy)
        }
        _ => {
            jac_z(c, u, qs, square, &mut fj, &mut nj);
            (dt * c.tz1, dt * c.tz2, &c.dz)
        }
    };
    let s = L::splat(if UPPER { t2 } else { -t2 });
    let mut b = fj;
    for m in 0..5 {
        for n in 0..5 {
            let dm = L::splat(if m == n { t1 * d[m] } else { 0.0 });
            b[m][n] = s * fj[m][n] - L::splat(t1) * nj[m][n] - dm;
        }
    }
    b
}

/// Dense 5×5 solve (no pivoting) exactly as the unrolled elimination in
/// `blts.f`/`buts.f`, one system per lane: forward elimination on `tmat`
/// + `tv`, then back substitution into `tv`.
#[inline(always)]
fn diag_solve<L: Lane>(tmat: &mut Block<L>, tv: &mut [L; 5]) {
    for p in 0..4 {
        let tmp1 = L::splat(1.0) / tmat[p][p];
        for row in p + 1..5 {
            let tmp = tmp1 * tmat[row][p];
            for col in p + 1..5 {
                tmat[row][col] = tmat[row][col] - tmp * tmat[p][col];
            }
            tv[row] = tv[row] - tv[p] * tmp;
        }
    }
    tv[4] = tv[4] / tmat[4][4];
    tv[3] = (tv[3] - tmat[3][4] * tv[4]) / tmat[3][3];
    tv[2] = (tv[2] - tmat[2][3] * tv[3] - tmat[2][4] * tv[4]) / tmat[2][2];
    tv[1] = (tv[1] - tmat[1][2] * tv[2] - tmat[1][3] * tv[3] - tmat[1][4] * tv[4]) / tmat[1][1];
    tv[0] =
        (tv[0] - tmat[0][1] * tv[1] - tmat[0][2] * tv[2] - tmat[0][3] * tv[3] - tmat[0][4] * tv[4])
            / tmat[0][0];
}

/// `OMEGA · (b · r)`, the five products summed in order.
#[inline(always)]
fn omega_mul<L: Lane>(b: &Block<L>, r: &[L; 5], m: usize) -> L {
    L::splat(OMEGA)
        * (b[m][0] * r[0] + b[m][1] * r[1] + b[m][2] * r[2] + b[m][3] * r[3] + b[m][4] * r[4])
}

/// `OMEGA · (b · rb + a · ra)`, the ten products interleaved as the
/// reference sums them.
#[inline(always)]
fn omega_mul2<L: Lane>(b: &Block<L>, rb: &[L; 5], a: &Block<L>, ra: &[L; 5], m: usize) -> L {
    L::splat(OMEGA)
        * (b[m][0] * rb[0]
            + a[m][0] * ra[0]
            + b[m][1] * rb[1]
            + a[m][1] * ra[1]
            + b[m][2] * rb[2]
            + a[m][2] * ra[2]
            + b[m][3] * rb[3]
            + a[m][3] * ra[3]
            + b[m][4] * rb[4]
            + a[m][4] * ra[4])
}

/// The five components of each lane's point, `v(l, m)` being component
/// `m` of lane `l`'s.
#[inline(always)]
fn gather<L: Lane>(v: impl Fn(usize, usize) -> f64) -> [L; 5] {
    let comp = |m: usize| L::from_fn(|l| v(l, m));
    [comp(0), comp(1), comp(2), comp(3), comp(4)]
}

/// One rank's rows `js` of plane `k` of the lower (`jacld` + `blts`) or
/// upper (`jacu` + `buts`) sweep.
///
/// Point `(i, j)` of the plane needs `(i ∓ 1, j)` and `(i, j ∓ 1)` solved
/// first, so the points of one diagonal `i + j = d` are independent: the
/// body walks the rank's diagonals (ascending for the lower sweep,
/// descending for the upper), takes `L::N` points of a diagonal at a
/// time, one to a lane, and runs each point's scalar operation sequence
/// lane-wise. A short last group repeats its last live point in the
/// spare lanes, which compute on real data and are not stored.
struct Plane<'a, const SAFE: bool, const UPPER: bool> {
    n: usize,
    c: &'a Consts,
    dt: f64,
    u: &'a [f64],
    rsd: &'a SharedMut<'a, f64>,
    k: usize,
    js: Range<usize>,
}

impl<const SAFE: bool, const UPPER: bool> Kernel for Plane<'_, SAFE, UPPER> {
    #[inline(always)]
    fn run<L: Lane>(self) {
        let Plane { n, c, dt, u, rsd, k, js } = self;
        if js.is_empty() {
            return;
        }
        // Point-index offsets to the neighbours in i, j and k that the sweep
        // reads (behind for the lower sweep, ahead for the upper), and the
        // step along a diagonal (one row up, one column back).
        let sign: isize = if UPPER { 1 } else { -1 };
        let (oi, oj, ok) = (5 * sign, (5 * n) as isize * sign, (5 * n * n) as isize * sign);
        let diag = 5 * n - 5;
        let ds = js.start + 1..js.end + n - 2;
        for t in 0..ds.len() {
            let d = if UPPER { ds.end - 1 - t } else { ds.start + t };
            // Diagonal `d` of the rank's rows: `1 <= d - j <= n - 2`.
            let jd = js.start.max((d + 2).saturating_sub(n))..js.end.min(d);
            for j0 in jd.clone().step_by(L::N) {
                let live = L::N.min(jd.end - j0);
                let at = |l: usize| idx5(n, n, 0, d - j0, j0, k) + l.min(live - 1) * diag;
                let u_at = |off: isize| {
                    gather::<L>(|l, m| ld::<_, SAFE>(u, at(l).wrapping_add_signed(off) + m))
                };
                let rsd_at = |off: isize| {
                    gather::<L>(|l, m| {
                        // SAFETY: written before by this rank, a boundary, or
                        // in the neighbour rank's rows, published by `done`
                        // and not written again; no view of it is live here.
                        let r = unsafe { rsd.row(at(l).wrapping_add_signed(off), 5) };
                        r[m]
                    })
                };
                // Each neighbour block is folded into `tv` as soon as it is
                // built, and the diagonal block is built last, so that few
                // blocks are live at once.
                let (bz, rk) = (neighbor_block::<L, UPPER>(c, dt, 2, &u_at(ok)), rsd_at(ok));
                let mut tv = if UPPER { [L::splat(0.0); 5] } else { rsd_at(0) };
                for m in 0..5 {
                    let s = omega_mul(&bz, &rk, m);
                    tv[m] = if UPPER { s } else { tv[m] - s };
                }
                let by = neighbor_block::<L, UPPER>(c, dt, 1, &u_at(oj));
                let bx = neighbor_block::<L, UPPER>(c, dt, 0, &u_at(oi));
                let (rj, ri) = (rsd_at(oj), rsd_at(oi));
                for m in 0..5 {
                    let s = omega_mul2(&by, &rj, &bx, &ri, m);
                    tv[m] = if UPPER { tv[m] + s } else { tv[m] - s };
                }
                let mut dblk = d_block(c, dt, &u_at(0));
                diag_solve(&mut dblk, &mut tv);
                for l in 0..live {
                    // SAFETY: point `at(l)` is in this rank's rows of plane
                    // `k`, which no other rank reads before `done` says so,
                    // and no other view of it is live in this thread.
                    let r = unsafe { rsd.row_mut(at(l), 5) };
                    for m in 0..5 {
                        r[m] = if UPPER { r[m] - tv[m].lane(l) } else { tv[m].lane(l) };
                    }
                }
            }
        }
    }
}

/// `jacld` + `blts` (`UPPER = false`) or `jacu` + `buts` of plane `k`
/// over the rank's rows `js`, at the widest lane width.
fn plane<const SAFE: bool, const UPPER: bool>(
    n: usize,
    c: &Consts,
    dt: f64,
    u: &[f64],
    rsd: &SharedMut<f64>,
    k: usize,
    js: Range<usize>,
) {
    lane::dispatch(Plane::<SAFE, UPPER> { n, c, dt, u, rsd, k, js });
}

/// Spin briefly, then yield: on machines with fewer free CPUs than
/// workers (including this reproduction's single-core host), a pure spin
/// would burn the quantum the predecessor thread needs to make progress.
#[inline]
fn wait_until(cond: impl Fn() -> bool) {
    let mut spins = 0u32;
    while !cond() {
        spins += 1;
        if spins < 64 {
            std::hint::spin_loop();
        } else {
            std::thread::yield_now();
        }
    }
}

/// Lower triangular sweep over all interior planes, pipelined across the
/// team (thread `t` may enter plane `k` only after thread `t-1` left it).
///
/// The j-range comes from [`npb_runtime::Par::ordered_split`]: each point
/// is computed from exactly its already-updated neighbors in the exact
/// serial order, so the result is bit-identical for *any* contiguous
/// ordered partition of j — which lets `--sched feedback` move the
/// boundaries to equalize pipeline stage times (LU is the paper's
/// highest-sync benchmark, so this is where static imbalance hurts most).
/// Only compute time is reported to the timing history: charging the
/// `wait_until` pipeline stalls would re-split toward the wrong shares.
pub fn lower_sweep<const SAFE: bool>(f: &mut LuFields, c: &Consts, dt: f64, team: Option<&Team>) {
    let n = f.n;
    let u: &[f64] = &f.u;
    // SAFETY: rank `t` writes only its own j-range of plane `k`, and
    // reads a neighbour's rows of plane `k` only after that rank has
    // published it through `done` (Release/Acquire).
    let rsd = unsafe { SharedMut::new(&mut f.rsd) };
    let nthreads = team.map_or(1, Team::size);
    let done: Vec<AtomicUsize> = (0..nthreads).map(|_| AtomicUsize::new(0)).collect();
    run_par(team, |par| {
        let split = par.ordered_split(1, n - 1);
        let jrange = split.range();
        let t = par.tid();
        let mut busy_ns = 0u64;
        for k in 1..n - 1 {
            if t > 0 {
                wait_until(|| done[t - 1].load(Ordering::Acquire) >= k);
            }
            if split.records() {
                let t0 = std::time::Instant::now();
                plane::<SAFE, false>(n, c, dt, u, &rsd, k, jrange.clone());
                busy_ns += t0.elapsed().as_nanos() as u64;
            } else {
                plane::<SAFE, false>(n, c, dt, u, &rsd, k, jrange.clone());
            }
            done[t].store(k, Ordering::Release);
        }
        par.ordered_finish(split, busy_ns);
    });
}

/// Upper triangular sweep (planes descending), pipelined in the mirror
/// direction (thread `t` waits on thread `t+1`). Scheduling as in
/// [`lower_sweep`].
pub fn upper_sweep<const SAFE: bool>(f: &mut LuFields, c: &Consts, dt: f64, team: Option<&Team>) {
    let n = f.n;
    let u: &[f64] = &f.u;
    // SAFETY: rank `t` writes only its own j-range of plane `k`, and
    // reads a neighbour's rows of plane `k` only after that rank has
    // published it through `done` (Release/Acquire).
    let rsd = unsafe { SharedMut::new(&mut f.rsd) };
    let nthreads = team.map_or(1, Team::size);
    // done[t] = number of planes thread t has completed.
    let done: Vec<AtomicUsize> = (0..nthreads).map(|_| AtomicUsize::new(0)).collect();
    run_par(team, |par| {
        let split = par.ordered_split(1, n - 1);
        let jrange = split.range();
        let t = par.tid();
        let mut completed = 0usize;
        let mut busy_ns = 0u64;
        for k in (1..n - 1).rev() {
            if t + 1 < par.num_threads() {
                wait_until(|| done[t + 1].load(Ordering::Acquire) > completed);
            }
            if split.records() {
                let t0 = std::time::Instant::now();
                plane::<SAFE, true>(n, c, dt, u, &rsd, k, jrange.clone());
                busy_ns += t0.elapsed().as_nanos() as u64;
            } else {
                plane::<SAFE, true>(n, c, dt, u, &rsd, k, jrange.clone());
            }
            completed += 1;
            done[t].store(completed, Ordering::Release);
        }
        par.ordered_finish(split, busy_ns);
    });
}

/// The per-point sweeps the diagonal lanes replaced — `jacld`/`blts`
/// and `jacu`/`buts` point by point in the reference's order, at `f64`,
/// over `Cell`s — kept as the reference the lanes must reproduce bit for
/// bit.
#[cfg(test)]
mod oracle {
    use crate::params::OMEGA;
    use crate::rhs::oracle::Grid;
    use crate::rhs::LuFields;
    use npb_cfd_common::jacobians::{jac_x, jac_y, jac_z, Block, ZERO_BLOCK};
    use npb_cfd_common::{idx5, Consts};
    use npb_core::ld;

    /// The diagonal block `d` of `jacld`/`jacu` (identical in both) at one
    /// point with conserved variables `u`.
    pub(super) fn d_block(c: &Consts, dt: f64, u: &[f64; 5]) -> Block {
        let tmp1 = 1.0 / u[0];
        let tmp2 = tmp1 * tmp1;
        let tmp3 = tmp1 * tmp2;
        let r43 = c.con43;
        let c34 = c.c3c4;
        let c1345 = c.c1345;
        let (tx1, ty1, tz1) = (c.tx1, c.ty1, c.tz1);

        let mut d = ZERO_BLOCK;
        d[0][0] = 1.0 + dt * 2.0 * (tx1 * c.dx[0] + ty1 * c.dy[0] + tz1 * c.dz[0]);

        d[1][0] = -dt * 2.0 * (tx1 * r43 + ty1 + tz1) * c34 * tmp2 * u[1];
        d[1][1] = 1.0
            + dt * 2.0 * c34 * tmp1 * (tx1 * r43 + ty1 + tz1)
            + dt * 2.0 * (tx1 * c.dx[1] + ty1 * c.dy[1] + tz1 * c.dz[1]);

        d[2][0] = -dt * 2.0 * (tx1 + ty1 * r43 + tz1) * c34 * tmp2 * u[2];
        d[2][2] = 1.0
            + dt * 2.0 * c34 * tmp1 * (tx1 + ty1 * r43 + tz1)
            + dt * 2.0 * (tx1 * c.dx[2] + ty1 * c.dy[2] + tz1 * c.dz[2]);

        d[3][0] = -dt * 2.0 * (tx1 + ty1 + tz1 * r43) * c34 * tmp2 * u[3];
        d[3][3] = 1.0
            + dt * 2.0 * c34 * tmp1 * (tx1 + ty1 + tz1 * r43)
            + dt * 2.0 * (tx1 * c.dx[3] + ty1 * c.dy[3] + tz1 * c.dz[3]);

        d[4][0] = -dt
            * 2.0
            * (((tx1 * (r43 * c34 - c1345) + ty1 * (c34 - c1345) + tz1 * (c34 - c1345))
                * (u[1] * u[1])
                + (tx1 * (c34 - c1345) + ty1 * (r43 * c34 - c1345) + tz1 * (c34 - c1345))
                    * (u[2] * u[2])
                + (tx1 * (c34 - c1345) + ty1 * (c34 - c1345) + tz1 * (r43 * c34 - c1345))
                    * (u[3] * u[3]))
                * tmp3
                + (tx1 + ty1 + tz1) * c1345 * tmp2 * u[4]);
        d[4][1] = dt
            * 2.0
            * tmp2
            * u[1]
            * (tx1 * (r43 * c34 - c1345) + ty1 * (c34 - c1345) + tz1 * (c34 - c1345));
        d[4][2] = dt
            * 2.0
            * tmp2
            * u[2]
            * (tx1 * (c34 - c1345) + ty1 * (r43 * c34 - c1345) + tz1 * (c34 - c1345));
        d[4][3] = dt
            * 2.0
            * tmp2
            * u[3]
            * (tx1 * (c34 - c1345) + ty1 * (c34 - c1345) + tz1 * (r43 * c34 - c1345));
        d[4][4] = 1.0
            + dt * 2.0 * (tx1 + ty1 + tz1) * c1345 * tmp1
            + dt * 2.0 * (tx1 * c.dx[4] + ty1 * c.dy[4] + tz1 * c.dz[4]);
        d
    }

    /// Off-diagonal Newton block for direction `dir` (0 = x, 1 = y, 2 = z)
    /// built from the neighbor's state `u`:
    /// lower (`UPPER = false`): `-dt·t2·F - dt·t1·N - dt·t1·d_diag`;
    /// upper (`UPPER = true`):  `+dt·t2·F - dt·t1·N - dt·t1·d_diag`.
    pub(super) fn neighbor_block<const UPPER: bool>(
        c: &Consts,
        dt: f64,
        dir: usize,
        u: &[f64; 5],
    ) -> Block {
        let tmp1 = 1.0 / u[0];
        let square = 0.5 * (u[1] * u[1] + u[2] * u[2] + u[3] * u[3]) * tmp1;
        let qs = square * tmp1;
        let mut fj = ZERO_BLOCK;
        let mut nj = ZERO_BLOCK;
        let (t1, t2, d) = match dir {
            0 => {
                jac_x(c, u, qs, square, &mut fj, &mut nj);
                (dt * c.tx1, dt * c.tx2, &c.dx)
            }
            1 => {
                jac_y(c, u, qs, square, &mut fj, &mut nj);
                (dt * c.ty1, dt * c.ty2, &c.dy)
            }
            _ => {
                jac_z(c, u, qs, square, &mut fj, &mut nj);
                (dt * c.tz1, dt * c.tz2, &c.dz)
            }
        };
        let s = if UPPER { t2 } else { -t2 };
        let mut b = ZERO_BLOCK;
        for m in 0..5 {
            for n in 0..5 {
                let dm = if m == n { t1 * d[m] } else { 0.0 };
                b[m][n] = s * fj[m][n] - t1 * nj[m][n] - dm;
            }
        }
        b
    }

    /// Dense 5×5 solve (no pivoting) exactly as the unrolled elimination in
    /// `blts.f`/`buts.f`: forward elimination on `tmat` + `tv`, then back
    /// substitution into `tv`.
    pub(super) fn diag_solve(tmat: &mut Block, tv: &mut [f64; 5]) {
        for p in 0..4 {
            let tmp1 = 1.0 / tmat[p][p];
            for row in p + 1..5 {
                let tmp = tmp1 * tmat[row][p];
                for col in p + 1..5 {
                    tmat[row][col] -= tmp * tmat[p][col];
                }
                tv[row] -= tv[p] * tmp;
            }
        }
        tv[4] /= tmat[4][4];
        tv[3] = (tv[3] - tmat[3][4] * tv[4]) / tmat[3][3];
        tv[2] = (tv[2] - tmat[2][3] * tv[3] - tmat[2][4] * tv[4]) / tmat[2][2];
        tv[1] = (tv[1] - tmat[1][2] * tv[2] - tmat[1][3] * tv[3] - tmat[1][4] * tv[4]) / tmat[1][1];
        tv[0] = (tv[0]
            - tmat[0][1] * tv[1]
            - tmat[0][2] * tv[2]
            - tmat[0][3] * tv[3]
            - tmat[0][4] * tv[4])
            / tmat[0][0];
    }

    pub(super) fn u_at<const SAFE: bool>(u: &[f64], base: usize) -> [f64; 5] {
        [
            ld::<_, SAFE>(u, base),
            ld::<_, SAFE>(u, base + 1),
            ld::<_, SAFE>(u, base + 2),
            ld::<_, SAFE>(u, base + 3),
            ld::<_, SAFE>(u, base + 4),
        ]
    }

    pub(super) fn rsd_at<const SAFE: bool>(rsd: &Grid, base: usize) -> [f64; 5] {
        [rsd.get(base), rsd.get(base + 1), rsd.get(base + 2), rsd.get(base + 3), rsd.get(base + 4)]
    }

    /// `jacld` + `blts` for plane `k` over `jrange` (ascending).
    pub fn lower_plane<const SAFE: bool>(
        n: usize,
        c: &Consts,
        dt: f64,
        u: &[f64],
        rsd: &Grid,
        k: usize,
        jrange: std::ops::Range<usize>,
    ) {
        for j in jrange {
            for i in 1..n - 1 {
                let here = idx5(n, n, 0, i, j, k);
                let ub = u_at::<SAFE>(u, here);
                let mut d = d_block(c, dt, &ub);
                let az =
                    neighbor_block::<false>(c, dt, 2, &u_at::<SAFE>(u, idx5(n, n, 0, i, j, k - 1)));
                let by =
                    neighbor_block::<false>(c, dt, 1, &u_at::<SAFE>(u, idx5(n, n, 0, i, j - 1, k)));
                let cx =
                    neighbor_block::<false>(c, dt, 0, &u_at::<SAFE>(u, idx5(n, n, 0, i - 1, j, k)));

                let rk = rsd_at::<SAFE>(rsd, idx5(n, n, 0, i, j, k - 1));
                let rj = rsd_at::<SAFE>(rsd, idx5(n, n, 0, i, j - 1, k));
                let ri = rsd_at::<SAFE>(rsd, idx5(n, n, 0, i - 1, j, k));
                let rc = rsd_at::<SAFE>(rsd, here);

                let mut tv = [0.0f64; 5];
                for m in 0..5 {
                    tv[m] = rc[m]
                        - OMEGA
                            * (az[m][0] * rk[0]
                                + az[m][1] * rk[1]
                                + az[m][2] * rk[2]
                                + az[m][3] * rk[3]
                                + az[m][4] * rk[4]);
                }
                for m in 0..5 {
                    tv[m] -= OMEGA
                        * (by[m][0] * rj[0]
                            + cx[m][0] * ri[0]
                            + by[m][1] * rj[1]
                            + cx[m][1] * ri[1]
                            + by[m][2] * rj[2]
                            + cx[m][2] * ri[2]
                            + by[m][3] * rj[3]
                            + cx[m][3] * ri[3]
                            + by[m][4] * rj[4]
                            + cx[m][4] * ri[4]);
                }
                diag_solve(&mut d, &mut tv);
                for m in 0..5 {
                    rsd.set(here + m, tv[m]);
                }
            }
        }
    }

    /// `jacu` + `buts` for plane `k` over `jrange` (descending).
    pub fn upper_plane<const SAFE: bool>(
        n: usize,
        c: &Consts,
        dt: f64,
        u: &[f64],
        rsd: &Grid,
        k: usize,
        jrange: std::ops::Range<usize>,
    ) {
        for j in jrange.rev() {
            for i in (1..n - 1).rev() {
                let here = idx5(n, n, 0, i, j, k);
                let ub = u_at::<SAFE>(u, here);
                let mut d = d_block(c, dt, &ub);
                let ax =
                    neighbor_block::<true>(c, dt, 0, &u_at::<SAFE>(u, idx5(n, n, 0, i + 1, j, k)));
                let by =
                    neighbor_block::<true>(c, dt, 1, &u_at::<SAFE>(u, idx5(n, n, 0, i, j + 1, k)));
                let cz =
                    neighbor_block::<true>(c, dt, 2, &u_at::<SAFE>(u, idx5(n, n, 0, i, j, k + 1)));

                let rk = rsd_at::<SAFE>(rsd, idx5(n, n, 0, i, j, k + 1));
                let rj = rsd_at::<SAFE>(rsd, idx5(n, n, 0, i, j + 1, k));
                let ri = rsd_at::<SAFE>(rsd, idx5(n, n, 0, i + 1, j, k));

                let mut tv = [0.0f64; 5];
                for m in 0..5 {
                    tv[m] = OMEGA
                        * (cz[m][0] * rk[0]
                            + cz[m][1] * rk[1]
                            + cz[m][2] * rk[2]
                            + cz[m][3] * rk[3]
                            + cz[m][4] * rk[4]);
                }
                for m in 0..5 {
                    tv[m] += OMEGA
                        * (by[m][0] * rj[0]
                            + ax[m][0] * ri[0]
                            + by[m][1] * rj[1]
                            + ax[m][1] * ri[1]
                            + by[m][2] * rj[2]
                            + ax[m][2] * ri[2]
                            + by[m][3] * rj[3]
                            + ax[m][3] * ri[3]
                            + by[m][4] * rj[4]
                            + ax[m][4] * ri[4]);
                }
                diag_solve(&mut d, &mut tv);
                for m in 0..5 {
                    rsd.set(here + m, rsd.get(here + m) - tv[m]);
                }
            }
        }
    }

    /// The whole lower sweep, serial, plane by plane.
    pub fn lower_sweep(f: &mut LuFields, c: &Consts, dt: f64) {
        let n = f.n;
        let rsd = Grid::new(&mut f.rsd);
        for k in 1..n - 1 {
            lower_plane::<true>(n, c, dt, &f.u, &rsd, k, 1..n - 1);
        }
    }

    /// The whole upper sweep, serial, planes descending.
    pub fn upper_sweep(f: &mut LuFields, c: &Consts, dt: f64) {
        let n = f.n;
        let rsd = Grid::new(&mut f.rsd);
        for k in (1..n - 1).rev() {
            upper_plane::<true>(n, c, dt, &f.u, &rsd, k, 1..n - 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rhs::{erhs, rhs, setbv, setiv, LuFields};
    use npb_cfd_common::jacobians::ZERO_BLOCK;
    use npb_runtime::Team;

    fn setup(n: usize) -> (LuFields, Consts) {
        let c = Consts::new(n, n, n, 0.5);
        let mut f = LuFields::new(n);
        setbv(&mut f, &c);
        setiv(&mut f, &c);
        erhs(&mut f, &c, None);
        rhs::<false>(&mut f, &c, None);
        for v in f.rsd.iter_mut() {
            *v *= 0.5; // dt scaling as in ssor
        }
        (f, c)
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn diag_solve_matches_dense_reference() {
        let mut m = ZERO_BLOCK;
        for i in 0..5 {
            for j in 0..5 {
                m[i][j] = ((i * 7 + j * 3) as f64).sin() * 0.2;
            }
            m[i][i] += 2.0;
        }
        let x_true = [1.0, -0.5, 2.0, 0.25, -1.25];
        let mut b = [0.0f64; 5];
        for i in 0..5 {
            for j in 0..5 {
                b[i] += m[i][j] * x_true[j];
            }
        }
        let mut tm = m;
        diag_solve(&mut tm, &mut b);
        for i in 0..5 {
            assert!((b[i] - x_true[i]).abs() < 1e-12, "x[{i}] = {}", b[i]);
        }
    }

    /// Both sweeps, serial, with every plane run at `f64` — the body a CPU
    /// without AVX2 runs.
    fn sweeps_at_f64(f: &mut LuFields, c: &Consts, dt: f64) -> [Vec<u64>; 2] {
        let n = f.n;
        let u: &[f64] = &f.u;
        // SAFETY: one thread.
        let rsd = unsafe { SharedMut::new(&mut f.rsd) };
        for k in 1..n - 1 {
            Plane::<true, false> { n, c, dt, u, rsd: &rsd, k, js: 1..n - 1 }.run::<f64>();
        }
        // SAFETY: no view of `rsd` is live.
        let lower = bits(unsafe { rsd.row(0, rsd.len()) });
        for k in (1..n - 1).rev() {
            Plane::<true, true> { n, c, dt, u, rsd: &rsd, k, js: 1..n - 1 }.run::<f64>();
        }
        drop(rsd);
        [lower, bits(&f.rsd)]
    }

    #[test]
    fn lanes_equal_the_per_point_reference_bit_for_bit() {
        // Diagonals of every length from 1 to n - 2 end in groups of 1, 2,
        // 3 and 4 points; a rank's slab of a Team cuts them shorter.
        let teams = crate::rhs::tests::teams();
        for n in [7, 12, 13, 33] {
            let (start, c) = setup(n);
            let mut want = start.clone();
            oracle::lower_sweep(&mut want, &c, 0.5);
            let lower = bits(&want.rsd);
            oracle::upper_sweep(&mut want, &c, 0.5);
            let upper = bits(&want.rsd);
            assert_ne!(lower, bits(&start.rsd), "the lower sweep did nothing");
            assert_ne!(upper, lower, "the upper sweep did nothing");

            let mut got = start.clone();
            assert_eq!(
                sweeps_at_f64(&mut got, &c, 0.5),
                [lower.clone(), upper.clone()],
                "n={n}, f64"
            );
            // Twice on each team, so the feedback split has a history.
            for team in [None, Some(&teams[0]), Some(&teams[1]), Some(&teams[1])] {
                let what = format!("n={n} threads={}", team.map_or(0, Team::size));
                let (mut opt, mut safe) = (start.clone(), start.clone());
                lower_sweep::<false>(&mut opt, &c, 0.5, team);
                lower_sweep::<true>(&mut safe, &c, 0.5, team);
                assert_eq!(bits(&opt.rsd), lower, "lower (opt), {what}");
                assert_eq!(bits(&safe.rsd), lower, "lower (safe), {what}");
                upper_sweep::<false>(&mut opt, &c, 0.5, team);
                upper_sweep::<true>(&mut safe, &c, 0.5, team);
                assert_eq!(bits(&opt.rsd), upper, "upper (opt), {what}");
                assert_eq!(bits(&safe.rsd), upper, "upper (safe), {what}");
            }
        }
    }

    /// `buts` as the reference writes it, followed by `add` — or, with
    /// `fused`, with `add` folded into its final store.
    fn buts_then_add(start: &LuFields, c: &Consts, dt: f64, fused: bool) -> Vec<u64> {
        let n = start.n;
        let tmp = 1.0 / (OMEGA * (2.0 - OMEGA));
        let mut f = start.clone();
        let u = crate::rhs::oracle::Grid::new(&mut f.u);
        let rsd = crate::rhs::oracle::Grid::new(&mut f.rsd);
        let u_at = |p: usize| std::array::from_fn(|m| u.get(p + m));
        let r_at = |p: usize| -> [f64; 5] { std::array::from_fn(|m| rsd.get(p + m)) };
        let interior = || {
            (1..n - 1).rev().flat_map(move |k| {
                (1..n - 1).rev().flat_map(move |j| (1..n - 1).rev().map(move |i| (i, j, k)))
            })
        };
        for (i, j, k) in interior() {
            let here = idx5(n, n, 0, i, j, k);
            let mut d = oracle::d_block(c, dt, &u_at(here));
            let ax = oracle::neighbor_block::<true>(c, dt, 0, &u_at(here + 5));
            let by = oracle::neighbor_block::<true>(c, dt, 1, &u_at(here + 5 * n));
            let cz = oracle::neighbor_block::<true>(c, dt, 2, &u_at(here + 5 * n * n));
            let (rk, rj, ri) = (r_at(here + 5 * n * n), r_at(here + 5 * n), r_at(here + 5));
            let mut tv = [0.0f64; 5];
            for m in 0..5 {
                tv[m] = omega_mul(&cz, &rk, m) + omega_mul2(&by, &rj, &ax, &ri, m);
            }
            oracle::diag_solve(&mut d, &mut tv);
            for m in 0..5 {
                rsd.set(here + m, rsd.get(here + m) - tv[m]);
                if fused {
                    u.set(here + m, u.get(here + m) + tmp * r_at(here)[m]);
                }
            }
        }
        if !fused {
            for (i, j, k) in interior() {
                let here = idx5(n, n, 0, i, j, k);
                for m in 0..5 {
                    u.set(here + m, u.get(here + m) + tmp * r_at(here)[m]);
                }
            }
        }
        drop((u, rsd));
        bits(&f.u)
    }

    /// Why `add` stays a pass of its own after `buts` and is not fused into
    /// its final store: `jacu` at `(i, j, k)` builds its blocks from `u` at
    /// `(i + 1, j, k)`, `(i, j + 1, k)` and `(i, j, k + 1)`, points `buts`
    /// has already finished. Fused, their `u` would already hold the
    /// relaxed value when the blocks are built, and the sweep would solve
    /// a different system. The unfused copy reproduces the shipped `buts`
    /// + `add` bit for bit; the fused one must not.
    #[test]
    fn add_fused_into_buts_changes_the_result() {
        let (start, c) = setup(12);
        let mut want = start.clone();
        upper_sweep::<true>(&mut want, &c, 0.5, None);
        let tmp = 1.0 / (OMEGA * (2.0 - OMEGA));
        for k in 1..11 {
            for j in 1..11 {
                for i in 1..11 {
                    for m in 0..5 {
                        let p = idx5(12, 12, m, i, j, k);
                        want.u[p] += tmp * want.rsd[p];
                    }
                }
            }
        }
        assert_eq!(buts_then_add(&start, &c, 0.5, false), bits(&want.u), "the copy of buts");
        assert_ne!(
            buts_then_add(&start, &c, 0.5, true),
            bits(&want.u),
            "fused add changed nothing"
        );
    }

    #[test]
    fn sweeps_parallel_match_serial_bitwise() {
        // The pipelined wavefront enforces the exact serial order of
        // cross-thread dependencies, so results are bit-identical.
        let (mut fs, c) = setup(12);
        let fp = fs.clone();
        lower_sweep::<false>(&mut fs, &c, 0.5, None);
        upper_sweep::<false>(&mut fs, &c, 0.5, None);
        for nt in [2usize, 4] {
            let team = Team::new(nt);
            let mut f2 = fp.clone();
            lower_sweep::<false>(&mut f2, &c, 0.5, Some(&team));
            upper_sweep::<false>(&mut f2, &c, 0.5, Some(&team));
            assert_eq!(fs.rsd, f2.rsd, "{nt} threads");
        }
    }

    #[test]
    fn ssor_step_reduces_residual_norm() {
        // One SSOR update must reduce the steady-state residual.
        let n = 12;
        let c = Consts::new(n, n, n, 0.5);
        let mut f = LuFields::new(n);
        setbv(&mut f, &c);
        setiv(&mut f, &c);
        erhs(&mut f, &c, None);
        rhs::<false>(&mut f, &c, None);
        let norm0: f64 = f.rsd.iter().map(|v| v * v).sum::<f64>().sqrt();
        // dt-scale, sweep, update u.
        for v in f.rsd.iter_mut() {
            *v *= c.dt;
        }
        lower_sweep::<false>(&mut f, &c, c.dt, None);
        upper_sweep::<false>(&mut f, &c, c.dt, None);
        let tmp = 1.0 / (OMEGA * (2.0 - OMEGA));
        for k in 1..n - 1 {
            for j in 1..n - 1 {
                for i in 1..n - 1 {
                    for m in 0..5 {
                        let id = f.id5(m, i, j, k);
                        f.u[id] += tmp * f.rsd[id];
                    }
                }
            }
        }
        rhs::<false>(&mut f, &c, None);
        let norm1: f64 = f.rsd.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!(norm1 < norm0, "{norm0} -> {norm1}");
    }
}
