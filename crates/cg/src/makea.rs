//! The NPB CG sparse-matrix generator: `makea`, `sprnvc`, `vecset`,
//! `sparse` — a faithful port, consuming the random stream in exactly the
//! reference order so the generated matrix (and hence the published zeta
//! verification values) are reproduced.

use npb_core::Randlc;

/// Sparse matrix in CSR form, as `sparse` in `cg.f` assembles it
/// (duplicate outer-product contributions summed; within a row, columns
/// appear in first-occurrence order, unsorted, exactly like the
/// reference).
#[derive(Debug, Clone)]
pub struct Csr {
    /// Row start offsets, length `n + 1`.
    pub rowstr: Vec<usize>,
    /// Column indices (0-based), length `nnz`. 32 bits each: with the
    /// values they are the matrix traffic of every `A p` (12 bytes a
    /// nonzero instead of 16), and `sparse` checks the order fits.
    pub colidx: Vec<u32>,
    /// Values, length `nnz`.
    pub a: Vec<f64>,
    /// Matrix order.
    pub n: usize,
}

impl Csr {
    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.a.len()
    }
}

/// Generate a sparse vector with `nz` distinct nonzero locations in
/// `0..n` (port of `sprnvc`). Two deviates are consumed per attempt —
/// including rejected attempts — to match the reference stream.
fn sprnvc(rng: &mut Randlc, n: usize, nz: usize, v: &mut Vec<f64>, iv: &mut Vec<usize>) {
    v.clear();
    iv.clear();
    // nn1 = smallest power of two >= n.
    let mut nn1 = 1usize;
    while nn1 < n {
        nn1 *= 2;
    }
    let mut mark = vec![false; n];
    while v.len() < nz {
        let vecelt = rng.next_f64();
        let vecloc = rng.next_f64();
        let i = (nn1 as f64 * vecloc) as usize; // icnvrt, 0-based
        if i >= n {
            continue;
        }
        if !mark[i] {
            mark[i] = true;
            v.push(vecelt);
            iv.push(i);
        }
    }
}

/// Set element `i` of the sparse vector `(v, iv)` to `val`, appending if
/// absent (port of `vecset`).
fn vecset(v: &mut Vec<f64>, iv: &mut Vec<usize>, i: usize, val: f64) {
    for (k, &loc) in iv.iter().enumerate() {
        if loc == i {
            v[k] = val;
            return;
        }
    }
    v.push(val);
    iv.push(i);
}

/// Assemble the CSR matrix from COO triples, summing duplicates per row
/// in first-occurrence order (port of `sparse`).
fn sparse(n: usize, arow: &[usize], acol: &[usize], aelt: &[f64]) -> Csr {
    assert!(n <= u32::MAX as usize, "matrix order {n} does not fit 32-bit column indices");
    let nnza = arow.len();
    // Count per row, prefix to row starts.
    let mut rowstr = vec![0usize; n + 2];
    for &r in arow {
        rowstr[r + 2] += 1;
    }
    for j in 2..n + 2 {
        rowstr[j] += rowstr[j - 1];
    }
    // Scatter triples into row order (stable within a row, i.e. stream
    // order — this is what fixes the duplicate-summation order).
    let mut col_tmp = vec![0usize; nnza];
    let mut val_tmp = vec![0f64; nnza];
    {
        let cursor = &mut rowstr[1..];
        for k in 0..nnza {
            let j = arow[k];
            col_tmp[cursor[j]] = acol[k];
            val_tmp[cursor[j]] = aelt[k];
            cursor[j] += 1;
        }
    }
    // rowstr[0..=n] now delimits the unmerged rows.

    // Merge duplicates per row with a dense scratch, keeping
    // first-occurrence column order.
    let mut x = vec![0f64; n];
    let mut mark = vec![false; n];
    let mut a = Vec::with_capacity(nnza / 4);
    let mut colidx = Vec::with_capacity(nnza / 4);
    let mut out_rowstr = vec![0usize; n + 1];
    let mut order: Vec<usize> = Vec::new();
    for j in 0..n {
        order.clear();
        for k in rowstr[j]..rowstr[j + 1] {
            let i = col_tmp[k];
            x[i] += val_tmp[k];
            if !mark[i] {
                mark[i] = true;
                order.push(i);
            }
        }
        for &i in &order {
            mark[i] = false;
            let xi = x[i];
            x[i] = 0.0;
            if xi != 0.0 {
                a.push(xi);
                colidx.push(i as u32);
            }
        }
        out_rowstr[j + 1] = a.len();
    }
    Csr { rowstr: out_rowstr, colidx, a, n }
}

/// Port of `makea`: a random sparse symmetric positive-definite matrix
/// with condition number roughly `1/rcond`, built as a weighted sum of
/// outer products of random sparse vectors, plus `(rcond - shift)` on the
/// diagonal.
///
/// `rng` must already have consumed the single deviate `cg.f` draws
/// before calling `makea` (the caller does this, as `main` does).
pub fn makea(rng: &mut Randlc, n: usize, nonzer: usize, rcond: f64, shift: f64) -> Csr {
    let ratio = rcond.powf(1.0 / n as f64);
    let mut size = 1.0f64;

    let cap = n * (nonzer + 1) * (nonzer + 1);
    let mut arow: Vec<usize> = Vec::with_capacity(cap);
    let mut acol: Vec<usize> = Vec::with_capacity(cap);
    let mut aelt: Vec<f64> = Vec::with_capacity(cap);

    let mut v: Vec<f64> = Vec::with_capacity(nonzer + 1);
    let mut iv: Vec<usize> = Vec::with_capacity(nonzer + 1);

    for iouter in 0..n {
        sprnvc(rng, n, nonzer, &mut v, &mut iv);
        vecset(&mut v, &mut iv, iouter, 0.5);
        for ivelt in 0..v.len() {
            let jcol = iv[ivelt];
            let scale = size * v[ivelt];
            for ivelt1 in 0..v.len() {
                let irow = iv[ivelt1];
                arow.push(irow);
                acol.push(jcol);
                aelt.push(v[ivelt1] * scale);
            }
        }
        size *= ratio;
    }

    // Diagonal: rcond - shift.
    for i in 0..n {
        arow.push(i);
        acol.push(i);
        aelt.push(rcond - shift);
    }

    sparse(n, &arow, &acol, &aelt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use npb_core::Randlc;

    fn small_matrix() -> Csr {
        let mut rng = Randlc::new(314_159_265.0);
        rng.next_f64(); // the pre-makea draw of cg.f's main
        makea(&mut rng, 1400, 7, 0.1, 10.0)
    }

    #[test]
    fn csr_is_well_formed() {
        let m = small_matrix();
        assert_eq!(m.rowstr.len(), m.n + 1);
        assert_eq!(m.rowstr[0], 0);
        assert_eq!(*m.rowstr.last().unwrap(), m.nnz());
        assert!(m.rowstr.windows(2).all(|w| w[0] <= w[1]));
        assert!(m.colidx.iter().all(|&c| (c as usize) < m.n));
        // No duplicate columns within a row after merging.
        for j in 0..m.n {
            let row = &m.colidx[m.rowstr[j]..m.rowstr[j + 1]];
            let mut seen = vec![false; m.n];
            for &c in row {
                assert!(!seen[c as usize], "duplicate column {c} in row {j}");
                seen[c as usize] = true;
            }
        }
    }

    #[test]
    fn matrix_is_symmetric() {
        // The generator sums v v^T outer products and a diagonal, so the
        // assembled matrix must be exactly symmetric in structure and
        // numerically symmetric in values.
        let m = small_matrix();
        let mut dense = std::collections::HashMap::new();
        for j in 0..m.n {
            for k in m.rowstr[j]..m.rowstr[j + 1] {
                dense.insert((j, m.colidx[k] as usize), m.a[k]);
            }
        }
        for (&(r, c), &val) in &dense {
            let t = dense.get(&(c, r)).copied().unwrap_or(0.0);
            assert!(
                (val - t).abs() <= 1e-12 * val.abs().max(1.0),
                "asym at ({r},{c}): {val} vs {t}"
            );
        }
    }

    #[test]
    fn diagonal_is_dominated_by_rcond_minus_shift() {
        let m = small_matrix();
        for j in 0..m.n {
            let row = m.rowstr[j]..m.rowstr[j + 1];
            let diag = row
                .clone()
                .find(|&k| m.colidx[k] as usize == j)
                .map(|k| m.a[k])
                .expect("missing diagonal");
            // 0.1 - 10 = -9.9 plus outer-product contributions: the 0.25 *
            // size vecset square plus ~nonzer random v^2 * size terms, each
            // in (0, 1). The shifted diagonal stays clearly negative.
            assert!(diag < 0.0 && diag > -11.0, "diag[{j}] = {diag}");
        }
    }

    #[test]
    fn sprnvc_produces_distinct_locations() {
        let mut rng = Randlc::new(314_159_265.0);
        let mut v = Vec::new();
        let mut iv = Vec::new();
        sprnvc(&mut rng, 1000, 12, &mut v, &mut iv);
        assert_eq!(v.len(), 12);
        let mut sorted = iv.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 12);
        assert!(v.iter().all(|&x| x > 0.0 && x < 1.0));
    }

    #[test]
    fn vecset_replaces_or_appends() {
        let mut v = vec![1.0, 2.0];
        let mut iv = vec![3, 5];
        vecset(&mut v, &mut iv, 5, 9.0);
        assert_eq!(v, vec![1.0, 9.0]);
        vecset(&mut v, &mut iv, 7, 4.0);
        assert_eq!(iv, vec![3, 5, 7]);
        assert_eq!(v, vec![1.0, 9.0, 4.0]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use npb_core::Randlc;

    /// Deterministic seeded sample of (n, nonzer) cases from the NPB
    /// generator.
    fn sampled_cases() -> Vec<(usize, usize)> {
        let mut rng = Randlc::new(npb_core::SEED_DEFAULT);
        (0..12)
            .map(|_| {
                let n = 10 + (rng.next_f64() * 110.0) as usize;
                let nonzer = 2 + (rng.next_f64() * 6.0) as usize;
                (n, nonzer)
            })
            .collect()
    }

    /// makea produces a well-formed symmetric CSR matrix for sampled
    /// small orders and nonzero densities.
    #[test]
    fn makea_invariants() {
        for (n, nonzer) in sampled_cases() {
            let mut rng = Randlc::new(npb_core::SEED_DEFAULT);
            rng.next_f64();
            let m = makea(&mut rng, n, nonzer, 0.1, 10.0);
            assert_eq!(m.rowstr.len(), n + 1);
            assert_eq!(*m.rowstr.last().unwrap(), m.nnz());
            assert!(m.colidx.iter().all(|&c| (c as usize) < n));
            // Every row has a diagonal entry (rcond - shift ensures it).
            for j in 0..n {
                let has_diag = (m.rowstr[j]..m.rowstr[j + 1]).any(|k| m.colidx[k] as usize == j);
                assert!(has_diag, "n {n}, nonzer {nonzer}: row {j} lacks a diagonal");
            }
            // Symmetric sparsity pattern.
            let mut set = std::collections::HashSet::new();
            for j in 0..n {
                for k in m.rowstr[j]..m.rowstr[j + 1] {
                    set.insert((j, m.colidx[k] as usize));
                }
            }
            for &(r, c) in &set {
                assert!(set.contains(&(c, r)), "n {n}, nonzer {nonzer}: ({r},{c}) unmatched");
            }
        }
    }

    /// SpMV with the CSR agrees with a dense reference product.
    #[test]
    fn spmv_matches_dense() {
        for n in [10usize, 17, 23, 31, 42, 59] {
            let mut rng = Randlc::new(npb_core::SEED_DEFAULT);
            rng.next_f64();
            let m = makea(&mut rng, n, 3, 0.1, 10.0);
            let x: Vec<f64> = (0..n).map(|i| ((i * 7 + 1) as f64).sin()).collect();
            // CSR product.
            let mut y = vec![0.0f64; n];
            for j in 0..n {
                for k in m.rowstr[j]..m.rowstr[j + 1] {
                    y[j] += m.a[k] * x[m.colidx[k] as usize];
                }
            }
            // Dense product.
            let mut dense = vec![vec![0.0f64; n]; n];
            for j in 0..n {
                for k in m.rowstr[j]..m.rowstr[j + 1] {
                    dense[j][m.colidx[k] as usize] += m.a[k];
                }
            }
            for j in 0..n {
                let want: f64 = (0..n).map(|i| dense[j][i] * x[i]).sum();
                assert!((y[j] - want).abs() < 1e-10 * (1.0 + want.abs()), "n {n}, row {j}");
            }
        }
    }
}
