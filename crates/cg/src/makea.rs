//! The NPB CG sparse-matrix generator: `makea`, `sprnvc` and `vecset`
//! from `cg.f`, with the matrix assembled row by row.
//!
//! `cg.f` writes every outer-product term as a COO triple (2 M of them
//! at class A) and `sparse` then scatters the triples by row and sums
//! the duplicates. Here the outer products are kept as they are drawn,
//! at most `nonzer + 1` entries each, and an inverted index lists for
//! each row the outer products that touch it. Each row is then summed
//! straight from its outer products, and every value and every column
//! position comes out bit for bit as `sparse` makes it:
//!
//! * the random stream is drawn in the reference order: `sprnvc` and
//!   `vecset` run one outer product after the other on one thread;
//! * `sparse` sums a row's triples in stream order: outer products
//!   ascending, and within one the column slot `ivelt` ascending (a row
//!   meets an outer product at one `ivelt1` only, since its locations
//!   are distinct), with the diagonal `rcond - shift` after every outer
//!   product. The index lists outer products in ascending order, a row
//!   walks each one's slots in order, and adds the diagonal last;
//! * each term is `v[ivelt1] * (size * v[ivelt])`, the product the
//!   reference forms. The factor `size * v[ivelt]` does not depend on
//!   the row, so it is formed once per entry, as the same product;
//! * columns keep their first-occurrence order and zero sums are
//!   dropped, as in `sparse`.

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
    /// nonzero instead of 16), and `makea` checks the order fits.
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
/// including rejected attempts — to match the reference stream. `mark`
/// is all `false` on entry and on return: only the locations drawn are
/// set, and they are cleared again.
fn sprnvc(
    rng: &mut Randlc,
    n: usize,
    nz: usize,
    v: &mut Vec<f64>,
    iv: &mut Vec<usize>,
    mark: &mut [bool],
) {
    v.clear();
    iv.clear();
    // nn1 = smallest power of two >= n.
    let mut nn1 = 1usize;
    while nn1 < n {
        nn1 *= 2;
    }
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
    for &i in iv.iter() {
        mark[i] = false;
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

/// The `n` outer products of `makea`, as drawn. Outer product `o` holds
/// the entries `start[o]..start[o + 1]`; entry `e` sits at location
/// `loc[e]` with value `v[e]` and column factor `fac[e] = size_o * v[e]`.
struct OuterProducts {
    start: Vec<u32>,
    loc: Vec<u32>,
    v: Vec<f64>,
    fac: Vec<f64>,
}

impl OuterProducts {
    /// Draw the outer products from `rng`, in `makea`'s order.
    fn draw(rng: &mut Randlc, n: usize, nonzer: usize, rcond: f64) -> OuterProducts {
        let ratio = rcond.powf(1.0 / n as f64);
        let mut size = 1.0f64;
        let cap = n * (nonzer + 1);
        assert!(cap <= u32::MAX as usize, "{cap} outer-product entries overflow the row index");
        let mut op = OuterProducts {
            start: Vec::with_capacity(n + 1),
            loc: Vec::with_capacity(cap),
            v: Vec::with_capacity(cap),
            fac: Vec::with_capacity(cap),
        };
        op.start.push(0);
        let mut mark = vec![false; n];
        let mut v: Vec<f64> = Vec::with_capacity(nonzer + 1);
        let mut iv: Vec<usize> = Vec::with_capacity(nonzer + 1);
        for iouter in 0..n {
            sprnvc(rng, n, nonzer, &mut v, &mut iv, &mut mark);
            vecset(&mut v, &mut iv, iouter, 0.5);
            for (&vi, &i) in v.iter().zip(&iv) {
                op.loc.push(i as u32);
                op.v.push(vi);
                op.fac.push(size * vi);
            }
            op.start.push(op.loc.len() as u32);
            size *= ratio;
        }
        op
    }
}

/// One outer product's share of a row: the row's value `coef` in it
/// (`v[ivelt1]`), and the outer product's entries `lo..hi`.
#[derive(Clone, Copy, Default)]
struct Term {
    coef: f64,
    lo: u32,
    hi: u32,
}

/// The inverted index: row `r` meets the outer products of
/// `terms[first[r]..first[r + 1]]`, in ascending outer product.
struct RowIndex {
    first: Vec<usize>,
    terms: Vec<Term>,
}

impl RowIndex {
    fn new(op: &OuterProducts, n: usize) -> RowIndex {
        let mut first = vec![0usize; n + 1];
        for &r in &op.loc {
            first[r as usize + 1] += 1;
        }
        for r in 0..n {
            first[r + 1] += first[r];
        }
        let mut next = first.clone();
        let mut terms = vec![Term::default(); op.loc.len()];
        for w in op.start.windows(2) {
            let (lo, hi) = (w[0], w[1]);
            for e in lo as usize..hi as usize {
                let r = op.loc[e] as usize;
                terms[next[r]] = Term { coef: op.v[e], lo, hi };
                next[r] += 1;
            }
        }
        RowIndex { first, terms }
    }

    /// The outer products row `r` meets.
    fn row(&self, r: usize) -> &[Term] {
        &self.terms[self.first[r]..self.first[r + 1]]
    }
}

/// Port of `makea`: a random sparse symmetric positive-definite matrix
/// with condition number roughly `1/rcond`, built as a weighted sum of
/// outer products of random sparse vectors, plus `(rcond - shift)` on the
/// diagonal.
///
/// `rng` must already have consumed the single deviate `cg.f` draws
/// before calling `makea` (the caller does this, as `main` does).
pub fn makea(rng: &mut Randlc, n: usize, nonzer: usize, rcond: f64, shift: f64) -> Csr {
    assert!(n <= u32::MAX as usize, "matrix order {n} does not fit 32-bit column indices");
    let op = OuterProducts::draw(rng, n, nonzer, rcond);
    let ix = RowIndex::new(&op, n);
    // No row holds more columns than its terms plus the diagonal; the
    // capacity past the merged length is never touched.
    let cap = n + ix.terms.iter().map(|t| (t.hi - t.lo) as usize).sum::<usize>();
    let mut rowstr = Vec::with_capacity(n + 1);
    let mut colidx = Vec::with_capacity(cap);
    let mut a = Vec::with_capacity(cap);
    rowstr.push(0);

    // Each row summed in `sparse`'s order with a dense accumulator (see
    // the module docs), the diagonal last.
    let mut x = vec![0f64; n];
    let mut mark = vec![false; n];
    let mut order: Vec<usize> = Vec::new();
    for r in 0..n {
        order.clear();
        let mut add = |i: usize, t: f64| {
            x[i] += t;
            if !mark[i] {
                mark[i] = true;
                order.push(i);
            }
        };
        for t in ix.row(r) {
            let (lo, hi) = (t.lo as usize, t.hi as usize);
            for (&i, &f) in op.loc[lo..hi].iter().zip(&op.fac[lo..hi]) {
                add(i as usize, t.coef * f);
            }
        }
        add(r, rcond - shift);
        for &i in &order {
            mark[i] = false;
            let xi = x[i];
            x[i] = 0.0;
            if xi != 0.0 {
                a.push(xi);
                colidx.push(i as u32);
            }
        }
        rowstr.push(a.len());
    }
    Csr { rowstr, colidx, a, n }
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
        let mut mark = vec![false; 1000];
        sprnvc(&mut rng, 1000, 12, &mut v, &mut iv, &mut mark);
        assert!(mark.iter().all(|&m| !m), "sprnvc leaves its marks cleared");
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
    use crate::CgParams;
    use npb_core::{Class, Randlc};

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

    /// The row-by-row assembly against the COO `makea` + `sparse` it
    /// replaced, by `to_bits`: at classes S and W and at the sampled
    /// small cases.
    #[test]
    fn makea_rows_equal_the_coo_reference_bit_for_bit() {
        let mut cases: Vec<(usize, usize, f64, f64)> = [Class::S, Class::W]
            .map(CgParams::for_class)
            .iter()
            .map(|p| (p.na, p.nonzer, p.rcond, p.shift))
            .collect();
        cases.extend(sampled_cases().into_iter().map(|(n, nz)| (n, nz, 0.1, 10.0)));
        let bits = |m: &Csr| m.a.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for (n, nonzer, rcond, shift) in cases {
            let draw = |build: fn(&mut Randlc, usize, usize, f64, f64) -> Csr| {
                let mut rng = Randlc::new(npb_core::SEED_DEFAULT);
                rng.next_f64();
                build(&mut rng, n, nonzer, rcond, shift)
            };
            let (got, want) = (draw(makea), draw(oracle::makea));
            assert_eq!(got.rowstr, want.rowstr, "rowstr, n {n}, nonzer {nonzer}");
            assert_eq!(got.colidx, want.colidx, "colidx, n {n}, nonzer {nonzer}");
            assert!(bits(&got) == bits(&want), "a, n {n}, nonzer {nonzer}");
        }
    }
}

/// The COO `makea` + `sparse` of `cg.f` that the row-by-row assembly
/// replaced, kept to test it against.
#[cfg(test)]
mod oracle {
    use super::{vecset, Csr};
    use npb_core::Randlc;

    /// `sprnvc` with a fresh mark array per call.
    fn sprnvc(rng: &mut Randlc, n: usize, nz: usize, v: &mut Vec<f64>, iv: &mut Vec<usize>) {
        v.clear();
        iv.clear();
        let mut nn1 = 1usize;
        while nn1 < n {
            nn1 *= 2;
        }
        let mut mark = vec![false; n];
        while v.len() < nz {
            let vecelt = rng.next_f64();
            let vecloc = rng.next_f64();
            let i = (nn1 as f64 * vecloc) as usize;
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

    /// Assemble the CSR matrix from COO triples, summing duplicates per
    /// row in first-occurrence order.
    fn sparse(n: usize, arow: &[usize], acol: &[usize], aelt: &[f64]) -> Csr {
        let nnza = arow.len();
        let mut rowstr = vec![0usize; n + 2];
        for &r in arow {
            rowstr[r + 2] += 1;
        }
        for j in 2..n + 2 {
            rowstr[j] += rowstr[j - 1];
        }
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
        let mut x = vec![0f64; n];
        let mut mark = vec![false; n];
        let mut a = Vec::new();
        let mut colidx = Vec::new();
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

    /// Every outer-product term as a COO triple, in stream order, then
    /// the diagonal, then `sparse`.
    pub fn makea(rng: &mut Randlc, n: usize, nonzer: usize, rcond: f64, shift: f64) -> Csr {
        let ratio = rcond.powf(1.0 / n as f64);
        let mut size = 1.0f64;
        let (mut arow, mut acol, mut aelt) = (Vec::new(), Vec::new(), Vec::new());
        let mut v: Vec<f64> = Vec::new();
        let mut iv: Vec<usize> = Vec::new();
        for iouter in 0..n {
            sprnvc(rng, n, nonzer, &mut v, &mut iv);
            vecset(&mut v, &mut iv, iouter, 0.5);
            for ivelt in 0..v.len() {
                let jcol = iv[ivelt];
                let scale = size * v[ivelt];
                for ivelt1 in 0..v.len() {
                    arow.push(iv[ivelt1]);
                    acol.push(jcol);
                    aelt.push(v[ivelt1] * scale);
                }
            }
            size *= ratio;
        }
        for i in 0..n {
            arow.push(i);
            acol.push(i);
            aelt.push(rcond - shift);
        }
        sparse(n, &arow, &acol, &aelt)
    }
}
