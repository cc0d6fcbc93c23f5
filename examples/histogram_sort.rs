//! Use the IS kernel's machinery end to end: generate the NPB key
//! sequence, rank it with the histogram (counting) sort on a worker
//! team, and extract order statistics from the cumulative counts — the
//! kind of downstream use a linear-time ranking enables without ever
//! materializing the sorted array.
//!
//! ```text
//! cargo run --release --example histogram_sort
//! ```

use npb::{Class, Team};
use npb_is::IsBench;

fn main() {
    let mut bench = IsBench::new(Class::S);
    let team = Team::new(2);
    let mk = bench.params().max_key;
    let nk = bench.params().num_keys;

    let mut hists = vec![0i32; team.size() * mk];
    bench.rank::<false>(1, Some(&team), &mut hists);

    // counts[k] = number of keys <= k: a quantile lookup table.
    let quantile = |counts: &[i32], q: f64| -> usize {
        let target = (q * nk as f64) as i32;
        counts.partition_point(|&c| c < target)
    };
    let median = quantile(&bench.counts, 0.5);
    let p10 = quantile(&bench.counts, 0.10);
    let p90 = quantile(&bench.counts, 0.90);

    println!("{nk} keys over 0..{mk}");
    println!("p10 = {p10}, median = {median}, p90 = {p90}");

    // Keys are a sum of four uniforms scaled by mk/4 (a Bates
    // distribution): the median sits at mk/2 and the distribution is
    // symmetric.
    assert!((median as f64 - mk as f64 / 2.0).abs() < mk as f64 * 0.02);
    let lo_spread = median - p10;
    let hi_spread = p90 - median;
    assert!(
        (lo_spread as f64 - hi_spread as f64).abs() < mk as f64 * 0.02,
        "asymmetric spread {lo_spread} vs {hi_spread}"
    );

    assert!(bench.full_verify(Some(&team)), "ranking must imply a correct sort");
    println!("full verification passed: the ranking sorts the sequence.");
}
