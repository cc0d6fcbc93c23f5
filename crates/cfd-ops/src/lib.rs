//! # npb-cfd-ops — the basic CFD operations of §3 / Table 1
//!
//! Before translating the benchmarks, the paper measures a set of basic
//! CFD operations "in order to compare efficiency of different options in
//! the literal translation and to form a baseline for estimation of the
//! quality of the benchmark translation":
//!
//! 1. loading/storing array elements (*Assignment*, 10 iterations),
//! 2. filtering an array with a first-order star stencil,
//! 3. a second-order star stencil (the BT/SP/LU dissipation shape),
//! 4. a 3-D array of 5×5 matrices times a 3-D array of 5-D vectors,
//! 5. a reduction sum of 4-D array elements,
//!
//! each implemented **two ways**: with linearized arrays and with
//! shape-preserving (nested) arrays. The paper found the shape-preserving
//! version 2–3× slower and standardized on linearized arrays; this crate
//! reproduces that comparison, plus the checked/unchecked ("Java" /
//! "Fortran") style axis and the serial/threads axis of Table 1.
//!
//! Default grid: 81×81×100, 5×5 matrices, 5-D vectors — the Table 1
//! configuration.

use npb_core::{fmadd, ld, Style};
use npb_runtime::{run_par, Partials, SharedMut, Team};

/// The five basic operations of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Row 1: `y = x` element copy, 10 sweeps.
    Assignment,
    /// Row 2: 7-point first-order star stencil.
    Stencil1,
    /// Row 3: 13-point second-order star stencil.
    Stencil2,
    /// Row 4: per-point 5×5 matrix × 5-vector product.
    MatVec,
    /// Row 5: reduction sum over a 4-D array.
    ReductionSum,
}

impl Op {
    /// All operations in Table 1 row order.
    pub const ALL: [Op; 5] =
        [Op::Assignment, Op::Stencil1, Op::Stencil2, Op::MatVec, Op::ReductionSum];

    /// Table 1 row label.
    pub fn label(self) -> &'static str {
        match self {
            Op::Assignment => "Assignment (10 iterations)",
            Op::Stencil1 => "First Order Stencil",
            Op::Stencil2 => "Second Order Stencil",
            Op::MatVec => "Matrix vector multiplication",
            Op::ReductionSum => "Reduction Sum",
        }
    }

    /// Number of sweeps the paper times for this row.
    pub fn sweeps(self) -> usize {
        match self {
            Op::Assignment => 10,
            _ => 1,
        }
    }
}

/// Array layout under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// Flat storage with explicit index arithmetic — the option the
    /// paper adopts.
    Linearized,
    /// Shape-preserving nested arrays (`Vec<Vec<Vec<f64>>>`) — the
    /// 2–3× slower option. Measured serially, as in the paper's layout
    /// comparison.
    MultiDim,
}

/// Grid configuration (defaults to the paper's 81×81×100).
#[derive(Debug, Clone, Copy)]
pub struct OpConfig {
    /// First extent.
    pub n1: usize,
    /// Second extent.
    pub n2: usize,
    /// Third extent.
    pub n3: usize,
}

impl Default for OpConfig {
    fn default() -> Self {
        OpConfig { n1: 81, n2: 81, n3: 100 }
    }
}

impl OpConfig {
    /// Number of grid points.
    pub fn len(&self) -> usize {
        self.n1 * self.n2 * self.n3
    }

    /// True for a degenerate grid.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    #[inline(always)]
    fn id(&self, i: usize, j: usize, k: usize) -> usize {
        i + self.n1 * (j + self.n2 * k)
    }
}

/// Result of one measured operation.
#[derive(Debug, Clone, Copy)]
pub struct OpResult {
    /// Wall-clock seconds for the sweeps.
    pub secs: f64,
    /// Order-independent checksum of the produced data (used to verify
    /// that every variant computes the same thing).
    pub checksum: f64,
}

fn source_value(i: usize, j: usize, k: usize) -> f64 {
    ((i * 31 + j * 17 + k * 7) % 1000) as f64 * 1.0e-3 + 0.5
}

fn make_flat(cfg: &OpConfig) -> Vec<f64> {
    let mut v = vec![0.0; cfg.len()];
    for k in 0..cfg.n3 {
        for j in 0..cfg.n2 {
            for i in 0..cfg.n1 {
                v[cfg.id(i, j, k)] = source_value(i, j, k);
            }
        }
    }
    v
}

fn make_nested(cfg: &OpConfig) -> Vec<Vec<Vec<f64>>> {
    (0..cfg.n3)
        .map(|k| {
            (0..cfg.n2).map(|j| (0..cfg.n1).map(|i| source_value(i, j, k)).collect()).collect()
        })
        .collect()
}

const S1C: [f64; 2] = [0.5, 1.0 / 12.0];
const S2C: [f64; 3] = [0.25, 1.0 / 8.0, -1.0 / 16.0];

/// Run one operation in the linearized layout.
pub fn run_linearized<const SAFE: bool>(op: Op, cfg: &OpConfig, team: Option<&Team>) -> OpResult {
    let (n1, n2, n3) = (cfg.n1, cfg.n2, cfg.n3);
    let x = make_flat(cfg);
    let mut y = vec![0.0f64; cfg.len()];

    let nthreads = team.map_or(1, Team::size);
    let partials = Partials::new(nthreads);

    // MatVec extra data: one 5x5 matrix and one 5-vector per point.
    let (mats, vecs, mut outv) = if op == Op::MatVec {
        let npts = cfg.len();
        let mut m = vec![0.0f64; 25 * npts];
        let mut v = vec![0.0f64; 5 * npts];
        for p in 0..npts {
            for e in 0..25 {
                m[25 * p + e] = ((p + e * 13) % 97) as f64 * 1.0e-2 - 0.3;
            }
            for e in 0..5 {
                v[5 * p + e] = ((p + e * 29) % 89) as f64 * 1.0e-2 - 0.4;
            }
        }
        (m, v, vec![0.0f64; 5 * npts])
    } else {
        (Vec::new(), Vec::new(), Vec::new())
    };

    let t0 = std::time::Instant::now();
    {
        // SAFETY: each rank writes only the planes or points of its own
        // range, and no rank reads `y` or `outv` inside a sweep.
        let sy = unsafe { SharedMut::new(&mut y) };
        let so = unsafe { SharedMut::new(&mut outv) };
        for _sweep in 0..op.sweeps() {
            run_par(team, |par| match op {
                Op::Assignment => {
                    for k in par.range(n3) {
                        for j in 0..n2 {
                            for i in 0..n1 {
                                let id = cfg.id(i, j, k);
                                sy.set::<SAFE>(id, ld::<_, SAFE>(&x, id));
                            }
                        }
                    }
                }
                Op::Stencil1 => {
                    for k in par.range_of(1, n3 - 1) {
                        for j in 1..n2 - 1 {
                            for i in 1..n1 - 1 {
                                let v = S1C[0] * ld::<_, SAFE>(&x, cfg.id(i, j, k))
                                    + S1C[1]
                                        * (ld::<_, SAFE>(&x, cfg.id(i - 1, j, k))
                                            + ld::<_, SAFE>(&x, cfg.id(i + 1, j, k))
                                            + ld::<_, SAFE>(&x, cfg.id(i, j - 1, k))
                                            + ld::<_, SAFE>(&x, cfg.id(i, j + 1, k))
                                            + ld::<_, SAFE>(&x, cfg.id(i, j, k - 1))
                                            + ld::<_, SAFE>(&x, cfg.id(i, j, k + 1)));
                                sy.set::<SAFE>(cfg.id(i, j, k), v);
                            }
                        }
                    }
                }
                Op::Stencil2 => {
                    for k in par.range_of(2, n3 - 2) {
                        for j in 2..n2 - 2 {
                            for i in 2..n1 - 2 {
                                let near = ld::<_, SAFE>(&x, cfg.id(i - 1, j, k))
                                    + ld::<_, SAFE>(&x, cfg.id(i + 1, j, k))
                                    + ld::<_, SAFE>(&x, cfg.id(i, j - 1, k))
                                    + ld::<_, SAFE>(&x, cfg.id(i, j + 1, k))
                                    + ld::<_, SAFE>(&x, cfg.id(i, j, k - 1))
                                    + ld::<_, SAFE>(&x, cfg.id(i, j, k + 1));
                                let far = ld::<_, SAFE>(&x, cfg.id(i - 2, j, k))
                                    + ld::<_, SAFE>(&x, cfg.id(i + 2, j, k))
                                    + ld::<_, SAFE>(&x, cfg.id(i, j - 2, k))
                                    + ld::<_, SAFE>(&x, cfg.id(i, j + 2, k))
                                    + ld::<_, SAFE>(&x, cfg.id(i, j, k - 2))
                                    + ld::<_, SAFE>(&x, cfg.id(i, j, k + 2));
                                let v = fmadd::<SAFE>(
                                    S2C[2],
                                    far,
                                    fmadd::<SAFE>(
                                        S2C[1],
                                        near,
                                        S2C[0] * ld::<_, SAFE>(&x, cfg.id(i, j, k)),
                                    ),
                                );
                                sy.set::<SAFE>(cfg.id(i, j, k), v);
                            }
                        }
                    }
                }
                Op::MatVec => {
                    for k in par.range(n3) {
                        for j in 0..n2 {
                            for i in 0..n1 {
                                let p = cfg.id(i, j, k);
                                for r in 0..5 {
                                    let mut acc = 0.0;
                                    for cidx in 0..5 {
                                        acc = fmadd::<SAFE>(
                                            ld::<_, SAFE>(&mats, 25 * p + 5 * r + cidx),
                                            ld::<_, SAFE>(&vecs, 5 * p + cidx),
                                            acc,
                                        );
                                    }
                                    so.set::<SAFE>(5 * p + r, acc);
                                }
                            }
                        }
                    }
                }
                Op::ReductionSum => {
                    // 4-D array: 5 components per grid point (read the
                    // matvec-free source 5 times with component offsets).
                    let mut s = 0.0;
                    for k in par.range(n3) {
                        for j in 0..n2 {
                            for i in 0..n1 {
                                let id = cfg.id(i, j, k);
                                let base = ld::<_, SAFE>(&x, id);
                                for m in 0..5usize {
                                    s += base + m as f64;
                                }
                            }
                        }
                    }
                    partials.set(par.tid(), s);
                }
            });
        }
    }
    let secs = t0.elapsed().as_secs_f64();

    let checksum = match op {
        Op::ReductionSum => partials.sum(),
        Op::MatVec => outv.iter().sum(),
        _ => y.iter().sum(),
    };
    OpResult { secs, checksum }
}

/// Run one operation in the shape-preserving nested layout (serial, as
/// in the paper's layout comparison).
pub fn run_multidim(op: Op, cfg: &OpConfig) -> OpResult {
    let (n1, n2, n3) = (cfg.n1, cfg.n2, cfg.n3);
    let x = make_nested(cfg);
    let mut y: Vec<Vec<Vec<f64>>> = vec![vec![vec![0.0; n1]; n2]; n3];

    // MatVec nested data: [k][j][i][r][c] and [k][j][i][e].
    let (mats, vecs, mut outv): (
        Vec<Vec<Vec<[[f64; 5]; 5]>>>,
        Vec<Vec<Vec<[f64; 5]>>>,
        Vec<Vec<Vec<[f64; 5]>>>,
    ) = if op == Op::MatVec {
        let mut m = vec![vec![vec![[[0.0; 5]; 5]; n1]; n2]; n3];
        let mut v = vec![vec![vec![[0.0; 5]; n1]; n2]; n3];
        for k in 0..n3 {
            for j in 0..n2 {
                for i in 0..n1 {
                    let p = cfg.id(i, j, k);
                    for r in 0..5 {
                        for c in 0..5 {
                            m[k][j][i][r][c] = ((p + (5 * r + c) * 13) % 97) as f64 * 1.0e-2 - 0.3;
                        }
                        v[k][j][i][r] = ((p + r * 29) % 89) as f64 * 1.0e-2 - 0.4;
                    }
                }
            }
        }
        (m, v, vec![vec![vec![[0.0; 5]; n1]; n2]; n3])
    } else {
        (Vec::new(), Vec::new(), Vec::new())
    };

    let mut reduction = 0.0f64;
    let t0 = std::time::Instant::now();
    for _sweep in 0..op.sweeps() {
        match op {
            Op::Assignment => {
                for k in 0..n3 {
                    for j in 0..n2 {
                        for i in 0..n1 {
                            y[k][j][i] = x[k][j][i];
                        }
                    }
                }
            }
            Op::Stencil1 => {
                for k in 1..n3 - 1 {
                    for j in 1..n2 - 1 {
                        for i in 1..n1 - 1 {
                            y[k][j][i] = S1C[0] * x[k][j][i]
                                + S1C[1]
                                    * (x[k][j][i - 1]
                                        + x[k][j][i + 1]
                                        + x[k][j - 1][i]
                                        + x[k][j + 1][i]
                                        + x[k - 1][j][i]
                                        + x[k + 1][j][i]);
                        }
                    }
                }
            }
            Op::Stencil2 => {
                for k in 2..n3 - 2 {
                    for j in 2..n2 - 2 {
                        for i in 2..n1 - 2 {
                            let near = x[k][j][i - 1]
                                + x[k][j][i + 1]
                                + x[k][j - 1][i]
                                + x[k][j + 1][i]
                                + x[k - 1][j][i]
                                + x[k + 1][j][i];
                            let far = x[k][j][i - 2]
                                + x[k][j][i + 2]
                                + x[k][j - 2][i]
                                + x[k][j + 2][i]
                                + x[k - 2][j][i]
                                + x[k + 2][j][i];
                            y[k][j][i] = S2C[2] * far + (S2C[1] * near + S2C[0] * x[k][j][i]);
                        }
                    }
                }
            }
            Op::MatVec => {
                for k in 0..n3 {
                    for j in 0..n2 {
                        for i in 0..n1 {
                            for r in 0..5 {
                                let mut acc = 0.0;
                                for c in 0..5 {
                                    acc += mats[k][j][i][r][c] * vecs[k][j][i][c];
                                }
                                outv[k][j][i][r] = acc;
                            }
                        }
                    }
                }
            }
            Op::ReductionSum => {
                let mut s = 0.0;
                for k in 0..n3 {
                    for j in 0..n2 {
                        for i in 0..n1 {
                            let base = x[k][j][i];
                            for m in 0..5usize {
                                s += base + m as f64;
                            }
                        }
                    }
                }
                reduction = s;
            }
        }
    }
    let secs = t0.elapsed().as_secs_f64();

    let checksum = match op {
        Op::ReductionSum => reduction,
        Op::MatVec => {
            outv.iter().flat_map(|p| p.iter().flat_map(|r| r.iter().flat_map(|a| a.iter()))).sum()
        }
        _ => y.iter().flat_map(|p| p.iter().flat_map(|r| r.iter())).sum(),
    };
    OpResult { secs, checksum }
}

/// Dispatch on layout/style/parallelism.
pub fn run_op(
    op: Op,
    layout: Layout,
    style: Style,
    cfg: &OpConfig,
    team: Option<&Team>,
) -> OpResult {
    match (layout, style) {
        (Layout::MultiDim, _) => run_multidim(op, cfg),
        (Layout::Linearized, Style::Opt) => run_linearized::<false>(op, cfg, team),
        (Layout::Linearized, Style::Safe) => run_linearized::<true>(op, cfg, team),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> OpConfig {
        OpConfig { n1: 12, n2: 10, n3: 14 }
    }

    #[test]
    fn all_variants_agree_on_every_op() {
        let cfg = small();
        let team = Team::new(3);
        for op in Op::ALL {
            let base = run_linearized::<false>(op, &cfg, None).checksum;
            let safe = run_linearized::<true>(op, &cfg, None).checksum;
            let multi = run_multidim(op, &cfg).checksum;
            let par = run_linearized::<false>(op, &cfg, Some(&team)).checksum;
            let tol = 1e-9 * base.abs().max(1.0);
            assert!((safe - base).abs() <= tol, "{op:?}: safe {safe} vs {base}");
            assert!((multi - base).abs() <= tol, "{op:?}: multidim {multi} vs {base}");
            assert!((par - base).abs() <= tol, "{op:?}: parallel {par} vs {base}");
        }
    }

    #[test]
    fn assignment_copies_exactly() {
        let cfg = small();
        let r = run_linearized::<true>(Op::Assignment, &cfg, None);
        let expect: f64 = make_flat(&cfg).iter().sum();
        assert_eq!(r.checksum, expect);
    }

    #[test]
    fn stencil1_of_constant_is_identity_like() {
        // With x = const c, stencil1 yields (0.5 + 6/12) c = c.
        let cfg = OpConfig { n1: 8, n2: 8, n3: 8 };
        let mut x = vec![2.0; cfg.len()];
        let mut y = vec![0.0; cfg.len()];
        // Inline check of the kernel coefficients on constant input.
        for k in 1..7 {
            for j in 1..7 {
                for i in 1..7 {
                    let v = S1C[0] * x[cfg.id(i, j, k)] + S1C[1] * 6.0 * 2.0;
                    y[cfg.id(i, j, k)] = v;
                }
            }
        }
        assert!((y[cfg.id(3, 3, 3)] - 2.0).abs() < 1e-15);
        x[0] = 2.0; // keep x alive
    }

    #[test]
    fn reduction_matches_closed_form() {
        let cfg = small();
        let r = run_linearized::<false>(Op::ReductionSum, &cfg, None);
        let base: f64 = make_flat(&cfg).iter().sum();
        let expect = 5.0 * base + cfg.len() as f64 * (0.0 + 1.0 + 2.0 + 3.0 + 4.0);
        assert!((r.checksum - expect).abs() < 1e-6, "{} vs {expect}", r.checksum);
    }

    #[test]
    fn dispatch_covers_all_combinations() {
        let cfg = small();
        for op in Op::ALL {
            for layout in [Layout::Linearized, Layout::MultiDim] {
                for style in [Style::Opt, Style::Safe] {
                    let r = run_op(op, layout, style, &cfg, None);
                    assert!(r.checksum.is_finite());
                }
            }
        }
    }
}
