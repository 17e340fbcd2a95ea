//! `SigGen-IF` — index-free signature generation (paper Fig. 3).
//!
//! One sequential pass over the data: each non-skyline point is checked
//! against every skyline point; where dominance holds, the point's row
//! hashes are folded into that skyline point's signature. Works for any
//! [`DominanceOrd`], which is the point — no index, no numeric attributes
//! required.
//!
//! The workhorse is [`scan_columns_budgeted`]: a fold of a
//! [`DatasetView`]'s rows into a [`SignatureAccumulator`] against an
//! explicit set of column points. Because row hashes use **global** row
//! ids (`view.global_id(local)`), per-shard or per-range folds merge
//! bit-identically into the monolithic result, and because the column
//! set is explicit, the serving layer can incrementally fingerprint only
//! the columns a cache does not already hold.

use skydiver_data::{DatasetView, DominanceOrd};

use crate::budget::{ExecContext, ExecPhase, Interrupt};
use crate::kernels::{SkylinePack, ROW_BLOCK};

use super::signature::fold_min;
use super::{HashFamily, SigGenOutput, SignatureAccumulator};

/// Runs the index-free pass.
///
/// * `ds` — the data, as a dataset or any [`DatasetView`],
/// * `ord` — dominance order (canonical min-space for numeric data),
/// * `skyline` — skyline point indices local to the view; columns of
///   the output follow this order,
/// * `family` — `t` hash functions; `t` becomes the signature size.
///
/// Row hashes are computed once per dominated data point (a hoisted form
/// of the paper's per-`(row, column)` `UpdateMatrix` loop with identical
/// semantics) and the domination scores `|Γ(p)|` are collected in the
/// same pass.
pub fn sig_gen_if<'a, O>(
    ds: impl Into<DatasetView<'a>>,
    ord: &O,
    skyline: &[usize],
    family: &HashFamily,
) -> SigGenOutput
where
    O: DominanceOrd<Item = [f64]>,
{
    let ctx = ExecContext::unlimited();
    let (out, _, interrupt) = sig_gen_if_budgeted(ds, ord, skyline, family, &ctx);
    debug_assert!(interrupt.is_none(), "unlimited context cannot trip");
    out
}

/// Budget-aware [`sig_gen_if`]: charges `m` dominance tests per
/// *non-skyline* data row against `ctx` and stops at the first exhausted
/// limit. Skyline rows are skipped before any dominance test runs, so
/// they cost nothing — the charge reflects work actually performed, and
/// the sequential and sharded passes charge identically.
///
/// Returns `(output, rows_scanned, interrupt)`. When `interrupt` is
/// `Some`, the signatures and scores cover exactly the first
/// `rows_scanned` data rows — a consistent fingerprint of a data prefix,
/// usable for inspection but not for selection (the Jaccard estimates
/// are biased toward the scanned prefix), which is why the pipeline
/// skips selection after a fingerprint-phase interrupt.
pub fn sig_gen_if_budgeted<'a, O>(
    ds: impl Into<DatasetView<'a>>,
    ord: &O,
    skyline: &[usize],
    family: &HashFamily,
    ctx: &ExecContext,
) -> (SigGenOutput, usize, Option<Interrupt>)
where
    O: DominanceOrd<Item = [f64]>,
{
    let view: DatasetView<'a> = ds.into();
    let mut skip = vec![false; view.len()];
    for &s in skyline {
        // lint: allow(R2) -- O(m) flag fill; the scan that follows polls
        skip[s] = true;
    }
    let cols: Vec<&[f64]> = skyline.iter().map(|&s| view.point(s)).collect();
    let mut acc = SignatureAccumulator::new(family.len(), skyline.len());
    let interrupt = scan_columns_budgeted(view, ord, &cols, &skip, family, ctx, &mut acc);
    let rows = acc.rows_consumed;
    (acc.into_output(), rows, interrupt)
}

/// Folds the rows of `view` into `acc` against an explicit column set —
/// the shard-native entry point of the index-free pass.
///
/// * `cols` — the column points (usually skyline members, but any
///   subset works: the incremental `APPEND` path scans only the columns
///   a cache does not hold),
/// * `skip` — one flag per view row (`skip[local]`); flagged rows are
///   skipped *before* any dominance test and cost nothing (the skyline
///   membership of the full pass),
/// * `acc` — the accumulator receiving the fold; its `rows_consumed`
///   grows by the fully-processed row prefix.
///
/// Each non-skipped row charges `cols.len()` dominance tests against
/// `ctx`; on a trip the accumulator covers exactly the funded prefix
/// and the interrupt is returned. Row hashes use the view's **global**
/// ids, so folds over disjoint views merge bit-identically with
/// [`SignatureAccumulator::merge`].
///
/// # Panics
/// Panics if `skip.len() != view.len()` or the accumulator shape does
/// not match `(family.len(), cols.len())`.
pub fn scan_columns_budgeted<O>(
    view: DatasetView<'_>,
    ord: &O,
    cols: &[&[f64]],
    skip: &[bool],
    family: &HashFamily,
    ctx: &ExecContext,
    acc: &mut SignatureAccumulator,
) -> Option<Interrupt>
where
    O: DominanceOrd<Item = [f64]>,
{
    assert_eq!(
        (acc.t(), acc.m()),
        (family.len(), cols.len()),
        "accumulator shape mismatch"
    );
    let pack = ord
        .is_canonical_min()
        .then(|| SkylinePack::pack(view.dims(), cols.iter().copied()));
    let (rows, interrupt) = scan_view(
        view,
        ord,
        cols,
        skip,
        pack.as_ref(),
        family,
        ctx,
        acc.matrix.slots_mut(),
        &mut acc.scores,
        &mut dominator_buffers(),
    );
    acc.rows_consumed += rows;
    interrupt
}

/// One dominator list per row of a [`ROW_BLOCK`], for [`scan_view`].
///
/// The column-split engine allocates these on the calling thread and
/// its workers only grow them. glibc reallocates a block inside the
/// arena that owns it, but serves a thread's own first allocations
/// from a new per-thread arena whose pages stay resident after the
/// thread exits. Measured on a 2-core x86-64 VM serving n = 100 000,
/// d = 4: buffers allocated on the worker raised the server's peak RSS
/// by 4% over one-thread folds; handed in, by about 1%.
pub(super) fn dominator_buffers() -> Vec<Vec<usize>> {
    (0..ROW_BLOCK).map(|_| Vec::with_capacity(8)).collect()
}

/// The inner fold shared by the sequential pass and every column block
/// of the parallel pass: folds the rows of `view` into the signature
/// slots `sigs` (column-major, `cols.len()` columns of `family.len()`
/// slots) and the matching `scores`, with the [`SkylinePack`] of `cols`
/// and the [`dominator_buffers`] supplied by the caller.
///
/// Every non-skipped row is charged `m` dominance tests — the paper's
/// logical `n·m` cost — before it is scanned, however few the pruned
/// scan evaluates. With `pack` present (canonical all-min orders) up to
/// [`ROW_BLOCK`] funded rows are admitted, scanned by the pack, then
/// hashed and folded. Otherwise the generic per-row [`DominanceOrd`]
/// loop runs. The pack lists a row's dominators in Z-order, the generic
/// loop in ascending order; the fold of one row is a slot-wise `min`
/// plus a score increment per dominator, both commute, so the folded
/// matrix is bit-identical either way.
///
/// Returns the number of fully folded rows — `view.len()` unless a
/// budget tripped — and the interrupt, if any.
#[allow(clippy::too_many_arguments)]
pub(super) fn scan_view<O>(
    view: DatasetView<'_>,
    ord: &O,
    cols: &[&[f64]],
    skip: &[bool],
    pack: Option<&SkylinePack>,
    family: &HashFamily,
    ctx: &ExecContext,
    sigs: &mut [u64],
    scores: &mut [u64],
    block_doms: &mut [Vec<usize>],
) -> (usize, Option<Interrupt>)
where
    O: DominanceOrd<Item = [f64]>,
{
    assert_eq!(skip.len(), view.len(), "skip mask length mismatch");
    let t = family.len();
    let m = cols.len();
    assert_eq!(
        (sigs.len(), scores.len()),
        (t * m, m),
        "column block shape mismatch"
    );
    let hi = view.len();
    let mut row_hashes = vec![0u64; t];
    let mut fold = |row: usize, dominators: &[usize]| {
        family.hash_all(view.global_id(row) as u64, &mut row_hashes);
        fold_row(sigs, scores, &row_hashes, dominators);
    };

    if let Some(pack) = pack {
        let mut block_rows: Vec<usize> = Vec::with_capacity(ROW_BLOCK);
        let mut block_pts: Vec<&[f64]> = Vec::with_capacity(ROW_BLOCK);
        let mut row = 0usize;
        loop {
            block_rows.clear();
            block_pts.clear();
            let mut interrupt = None;
            while row < hi && block_rows.len() < ROW_BLOCK {
                if skip[row] {
                    row += 1;
                    continue;
                }
                match ctx.charge_dominance_tests(m as u64, ExecPhase::Fingerprint) {
                    Ok(()) => {
                        block_rows.push(row);
                        block_pts.push(view.point(row));
                        row += 1;
                    }
                    Err(int) => {
                        interrupt = Some(int);
                        break;
                    }
                }
            }
            let doms = &mut block_doms[..block_rows.len()];
            for d in doms.iter_mut() {
                d.clear();
            }
            pack.dominators_block(&block_pts, doms);
            for (bi, &r) in block_rows.iter().enumerate() {
                if !doms[bi].is_empty() {
                    fold(r, &doms[bi]);
                }
            }
            if interrupt.is_some() || row >= hi {
                return (row, interrupt);
            }
        }
    }

    let mut dominators: Vec<usize> = Vec::with_capacity(m);
    for (row, &skipped) in skip.iter().enumerate() {
        if skipped {
            continue;
        }
        if let Err(int) = ctx.charge_dominance_tests(m as u64, ExecPhase::Fingerprint) {
            return (row, Some(int));
        }
        let p = view.point(row);
        dominators.clear();
        for (j, &c) in cols.iter().enumerate() {
            if ord.dominates(c, p) {
                dominators.push(j);
            }
        }
        if !dominators.is_empty() {
            fold(row, &dominators);
        }
    }
    (hi, None)
}

/// Folds one row's hashes into the column of each of its
/// `dominators` (distinct column indices): a slot-wise `min` and a
/// score increment per column. Each column sees the row once, so the
/// order of `dominators` cannot change the result.
#[inline]
fn fold_row(sigs: &mut [u64], scores: &mut [u64], row_hashes: &[u64], dominators: &[usize]) {
    let t = row_hashes.len();
    for &j in dominators {
        // lint: allow(R2) -- one O(t) fold per dominator of one row; both
        // row loops of scan_view charge the budget before calling this
        fold_min(&mut sigs[j * t..(j + 1) * t], row_hashes);
        scores[j] += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gamma::GammaSets;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use skydiver_data::dominance::MinDominance;
    use skydiver_data::generators::{anticorrelated, independent};
    use skydiver_skyline::naive_skyline;

    #[test]
    fn scores_match_exact_gamma() {
        let ds = independent(500, 3, 90);
        let sky = naive_skyline(&ds, &MinDominance);
        let fam = HashFamily::new(32, 1);
        let out = sig_gen_if(&ds, &MinDominance, &sky, &fam);
        let g = GammaSets::build(&ds, &MinDominance, &sky);
        assert_eq!(out.scores, g.scores());
    }

    #[test]
    fn estimates_concentrate_around_exact_jaccard() {
        let ds = independent(2000, 2, 91);
        let sky = naive_skyline(&ds, &MinDominance);
        assert!(sky.len() >= 4, "need a few skyline points");
        let fam = HashFamily::new(512, 2);
        let out = sig_gen_if(&ds, &MinDominance, &sky, &fam);
        let g = GammaSets::build(&ds, &MinDominance, &sky);
        let mut worst: f64 = 0.0;
        for i in 0..sky.len() {
            for j in (i + 1)..sky.len() {
                let est = out.matrix.estimated_similarity(i, j);
                let exact = g.jaccard_similarity(i, j);
                worst = worst.max((est - exact).abs());
            }
        }
        // 512 slots → standard error ≈ sqrt(s(1-s)/512) ≤ 0.023; allow 5σ.
        assert!(worst < 0.12, "worst estimation error {worst}");
    }

    #[test]
    fn identical_gamma_sets_give_identical_signatures() {
        // Two duplicate skyline points dominate exactly the same set.
        let mut rows = vec![[0.0, 0.5], [0.5, 0.0]];
        for i in 0..50 {
            rows.push([0.6 + (i as f64) * 0.001, 0.6]);
        }
        let ds = Dataset::from_rows(2, &rows);
        let sky = naive_skyline(&ds, &MinDominance);
        assert_eq!(sky, vec![0, 1]);
        let fam = HashFamily::new(64, 3);
        let out = sig_gen_if(&ds, &MinDominance, &sky, &fam);
        // Both dominate exactly rows 2..52 → identical signatures.
        assert_eq!(out.matrix.column(0), out.matrix.column(1));
        assert_eq!(out.matrix.estimated_similarity(0, 1), 1.0);
    }

    #[test]
    fn undominating_skyline_point_keeps_inf_signature() {
        // An isolated skyline point that dominates nothing (paper Fig. 1
        // point `a` is close: it dominates a single node; here: none).
        let ds = Dataset::from_rows(2, &[[0.0, 1.0], [1.0, 0.0], [1.5, 0.5]]);
        let sky = naive_skyline(&ds, &MinDominance);
        assert_eq!(sky, vec![0, 1]);
        let fam = HashFamily::new(16, 4);
        let out = sig_gen_if(&ds, &MinDominance, &sky, &fam);
        // Point 0 dominates nothing: all-∞ column, score 0.
        assert_eq!(out.scores[0], 0);
        assert!(out
            .matrix
            .column(0)
            .iter()
            .all(|&v| v == super::super::INF_SLOT));
        // Point 1 dominates row 2.
        assert_eq!(out.scores[1], 1);
    }

    #[test]
    fn budgeted_pass_stops_on_dominance_budget() {
        use crate::budget::{ExecContext, RunBudget, StopReason};
        let ds = independent(500, 3, 92);
        let sky = naive_skyline(&ds, &MinDominance);
        let m = sky.len() as u64;
        let fam = HashFamily::new(16, 1);
        // Budget covers exactly 100 non-skyline rows' worth of dominance
        // tests — skyline rows are skipped before any test, so they are
        // free.
        let ctx = ExecContext::new(RunBudget::none().with_max_dominance_tests(100 * m));
        let (out, rows, int) = sig_gen_if_budgeted(&ds, &MinDominance, &sky, &fam, &ctx);
        let int = int.expect("budget must trip");
        assert!(matches!(int.reason, StopReason::DominanceBudgetExhausted { .. }));
        // The funded prefix ends right before the 101st non-skyline row.
        let mut is_sky = vec![false; ds.len()];
        for &s in &sky {
            is_sky[s] = true;
        }
        let mut funded = 0usize;
        let mut expect_rows = ds.len();
        for (i, &sk) in is_sky.iter().enumerate() {
            if !sk {
                if funded == 100 {
                    expect_rows = i;
                    break;
                }
                funded += 1;
            }
        }
        assert_eq!(rows, expect_rows, "stops after the funded prefix");
        assert!(rows >= 100);
        // Scores count only the scanned prefix.
        let total: u64 = out.scores.iter().sum();
        let full = sig_gen_if(&ds, &MinDominance, &sky, &fam);
        assert!(total <= full.scores.iter().sum::<u64>());
    }

    #[test]
    fn charges_reflect_only_tested_rows() {
        use crate::budget::{ExecContext, RunBudget};
        let ds = independent(400, 3, 93);
        let sky = naive_skyline(&ds, &MinDominance);
        let fam = HashFamily::new(8, 2);
        // A counting (non-unlimited) context that never trips.
        let ctx = ExecContext::new(RunBudget::none().with_max_dominance_tests(u64::MAX));
        let (_, rows, int) = sig_gen_if_budgeted(&ds, &MinDominance, &sky, &fam, &ctx);
        assert!(int.is_none());
        assert_eq!(rows, ds.len());
        let non_sky = (ds.len() - sky.len()) as u64;
        assert_eq!(
            ctx.dominance_tests(),
            non_sky * sky.len() as u64,
            "skyline rows must not be charged"
        );
    }

    /// Delegates to [`MinDominance`] but hides the canonical-min hook,
    /// forcing the generic scalar path for equivalence testing.
    struct HiddenMin;
    impl DominanceOrd for HiddenMin {
        type Item = [f64];
        fn dom_cmp(&self, a: &[f64], b: &[f64]) -> skydiver_data::Dominance {
            MinDominance.dom_cmp(a, b)
        }
    }

    #[test]
    fn packed_path_identical_to_generic_path() {
        for (n, d) in [(700, 2), (600, 3), (500, 4), (400, 5), (300, 6)] {
            let ds = independent(n, d, 94 + d as u64);
            let sky = naive_skyline(&ds, &MinDominance);
            let fam = HashFamily::new(32, 5);
            let packed = sig_gen_if(&ds, &MinDominance, &sky, &fam);
            let generic = sig_gen_if(&ds, &HiddenMin, &sky, &fam);
            assert_eq!(packed.matrix, generic.matrix, "d = {d}");
            assert_eq!(packed.scores, generic.scores, "d = {d}");
        }
    }

    /// How an oracle case shapes its data.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Shape {
        Plain,
        /// Every other dimension maximised: negative canonical values.
        Max,
        /// A quarter grid (ties on every coordinate), dimension 0 flat
        /// (zero spread, for d > 1), a quarter of the rows repeated and
        /// the first column repeated as the last.
        Ties,
    }

    /// Folds with `scan` under a counting context; returns the output
    /// and the charge.
    fn counting_fold(
        m: usize,
        scan: impl Fn(&ExecContext, &mut SignatureAccumulator) -> Option<Interrupt>,
    ) -> (SigGenOutput, u64) {
        use crate::budget::RunBudget;
        let ctx = ExecContext::new(RunBudget::none().with_max_dominance_tests(u64::MAX));
        let mut acc = SignatureAccumulator::new(16, m);
        assert!(scan(&ctx, &mut acc).is_none());
        (acc.into_output(), ctx.dominance_tests())
    }

    /// One oracle case: the pruned fold at threads 1 and 3 must equal
    /// the generic `DominanceOrd` fold bit for bit, and charge the same.
    fn check_against_oracle(ant: bool, d: usize, shape: Shape, m: usize, seed: u64) {
        use crate::canonical::canonicalise;
        use crate::minhash::scan_columns_parallel_budgeted;
        use rand::seq::SliceRandom;
        use skydiver_data::Preference;

        let base = if ant {
            anticorrelated(200, d, seed)
        } else {
            independent(200, d, seed)
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let raw = if shape == Shape::Ties {
            let mut out = Dataset::new(d);
            for p in base.iter() {
                let q: Vec<f64> = p
                    .iter()
                    .enumerate()
                    .map(|(i, &x)| {
                        if i == 0 && d > 1 {
                            0.5
                        } else {
                            (x * 4.0).floor() / 4.0
                        }
                    })
                    .collect();
                out.push(&q);
                if rng.gen_range(0..4) == 0 {
                    out.push(&q);
                }
            }
            out
        } else {
            base
        };
        let prefs: Vec<Preference> = (0..d)
            .map(|i| match shape {
                Shape::Max if i % 2 == 0 => Preference::Max,
                _ => Preference::Min,
            })
            .collect();
        let ds = canonicalise(&raw, &prefs).unwrap().into_owned();
        // Columns: the skyline first, then other rows in a seeded order.
        let sky = naive_skyline(&ds, &MinDominance);
        let mut rest: Vec<usize> = (0..ds.len()).filter(|r| !sky.contains(r)).collect();
        rest.shuffle(&mut rng);
        let mut ids: Vec<usize> = sky.iter().chain(&rest).copied().take(m).collect();
        if shape == Shape::Ties && m > 1 {
            ids[m - 1] = ids[0];
        }
        let cols: Vec<&[f64]> = ids.iter().map(|&r| ds.point(r)).collect();
        let mut skip = vec![false; ds.len()];
        for &r in &ids {
            skip[r] = true;
        }
        let fam = HashFamily::new(16, seed);
        let view = ds.view();
        let (oracle, oracle_charge) = counting_fold(m, |ctx, acc| {
            scan_columns_budgeted(view, &HiddenMin, &cols, &skip, &fam, ctx, acc)
        });
        let label = format!("ant = {ant}, d = {d}, {shape:?}, m = {m}");
        let funded = skip.iter().filter(|&&s| !s).count() as u64;
        assert_eq!(oracle_charge, funded * m as u64, "{label}");
        for threads in [1, 3] {
            let (got, charge) = counting_fold(m, |ctx, acc| {
                let ord = &MinDominance;
                scan_columns_parallel_budgeted(view, ord, &cols, &skip, &fam, ctx, threads, acc)
            });
            assert_eq!(got.matrix, oracle.matrix, "{label}, threads = {threads}");
            assert_eq!(got.scores, oracle.scores, "{label}, threads = {threads}");
            assert_eq!(charge, oracle_charge, "{label}, threads = {threads}");
        }
    }

    #[test]
    fn pruned_fold_matches_the_generic_oracle() {
        let mut seed = 1000;
        for ant in [false, true] {
            for d in [1, 2, 3, 4, 5, 6, 9] {
                for shape in [Shape::Plain, Shape::Max, Shape::Ties] {
                    for m in [1, 7, 8, 9, 64, 65] {
                        seed += 1;
                        check_against_oracle(ant, d, shape, m, seed);
                    }
                }
            }
        }
    }

    #[test]
    fn pruned_scan_evaluates_a_fraction_but_charges_every_test() {
        // The shape of the served cold path: anti-correlated, d = 4,
        // n = 8 000, so m is about a thousand.
        use crate::budget::RunBudget;
        let ds = anticorrelated(8000, 4, 20);
        let sky = skydiver_skyline::sfs(&ds, &MinDominance);
        let (n, m) = (ds.len(), sky.len());
        assert!(m > 500, "m = {m}");
        let mut is_sky = vec![false; n];
        for &s in &sky {
            is_sky[s] = true;
        }
        let pack = SkylinePack::pack(4, sky.iter().map(|&s| ds.point(s)));
        let mut doms = Vec::new();
        let evaluated: usize = (0..n)
            .filter(|&r| !is_sky[r])
            .map(|r| {
                doms.clear();
                pack.dominators_into(ds.point(r), &mut doms)
            })
            .sum();
        let logical = (n - m) * m;
        assert!(
            evaluated * 4 <= logical,
            "the pack evaluated {evaluated} of {logical} tests (> 25%)"
        );
        let ctx = ExecContext::new(RunBudget::none().with_max_dominance_tests(u64::MAX));
        let fam = HashFamily::new(8, 20);
        let (_, rows, int) = sig_gen_if_budgeted(&ds, &MinDominance, &sky, &fam, &ctx);
        assert!(int.is_none());
        assert_eq!(rows, n);
        assert_eq!(
            ctx.dominance_tests(),
            logical as u64,
            "the charge stays (n − m)·m"
        );
    }

    #[test]
    fn folding_a_rows_dominators_in_any_order_gives_the_same_columns() {
        use rand::seq::SliceRandom;
        let ds = anticorrelated(600, 3, 97);
        let sky = naive_skyline(&ds, &MinDominance);
        let (t, m) = (16, sky.len());
        assert!(m > 8, "need several blocks");
        let fam = HashFamily::new(t, 8);
        let pack = SkylinePack::pack(3, sky.iter().map(|&s| ds.point(s)));
        let mut rng = StdRng::seed_from_u64(97);
        // Pack order, ascending, descending, and a fresh shuffle per row.
        let mut accs: Vec<SignatureAccumulator> =
            (0..4).map(|_| SignatureAccumulator::new(t, m)).collect();
        let mut hashes = vec![0u64; t];
        let mut doms = Vec::new();
        for row in (0..ds.len()).filter(|r| !sky.contains(r)) {
            doms.clear();
            pack.dominators_into(ds.point(row), &mut doms);
            fam.hash_all(row as u64, &mut hashes);
            for (k, acc) in accs.iter_mut().enumerate() {
                let mut order = doms.clone();
                match k {
                    0 => {}
                    1 => order.sort_unstable(),
                    2 => order.sort_unstable_by(|a, b| b.cmp(a)),
                    _ => order.shuffle(&mut rng),
                }
                fold_row(acc.matrix.slots_mut(), &mut acc.scores, &hashes, &order);
            }
        }
        let whole = sig_gen_if(&ds, &MinDominance, &sky, &fam);
        for acc in accs {
            let out = acc.into_output();
            assert_eq!(out.matrix, whole.matrix);
            assert_eq!(out.scores, whole.scores);
        }
    }

    #[test]
    fn view_folds_merge_to_the_monolithic_result() {
        // Split the data at an arbitrary row; scan each half against the
        // same skyline columns; merge. Global ids make the halves hash
        // the same rows the monolithic pass hashes.
        let ds = independent(600, 3, 95);
        let sky = naive_skyline(&ds, &MinDominance);
        let cols: Vec<&[f64]> = sky.iter().map(|&s| ds.point(s)).collect();
        let fam = HashFamily::new(32, 6);
        let mut skip = vec![false; ds.len()];
        for &s in &sky {
            skip[s] = true;
        }
        let whole = sig_gen_if(&ds, &MinDominance, &sky, &fam);
        for cut in [0, 1, 217, 599, 600] {
            let ctx = ExecContext::unlimited();
            let mut left = SignatureAccumulator::new(32, sky.len());
            let mut right = SignatureAccumulator::new(32, sky.len());
            let v = ds.view();
            assert!(scan_columns_budgeted(
                v.slice(0, cut), &MinDominance, &cols, &skip[..cut], &fam, &ctx, &mut left
            )
            .is_none());
            assert!(scan_columns_budgeted(
                v.slice(cut, 600), &MinDominance, &cols, &skip[cut..], &fam, &ctx, &mut right
            )
            .is_none());
            left.merge(&right);
            assert_eq!(left.rows_consumed, 600, "cut = {cut}");
            let merged = left.into_output();
            assert_eq!(merged.matrix, whole.matrix, "cut = {cut}");
            assert_eq!(merged.scores, whole.scores, "cut = {cut}");
        }
    }

    #[test]
    fn column_subset_scan_matches_the_matching_columns() {
        // Scanning a subset of columns yields exactly those columns of
        // the full pass — the invariant the incremental APPEND path
        // relies on — and charges per subset column, not per skyline
        // member.
        use crate::budget::RunBudget;
        let ds = independent(500, 3, 96);
        let sky = naive_skyline(&ds, &MinDominance);
        assert!(sky.len() >= 3);
        let subset: Vec<usize> = sky.iter().copied().step_by(2).collect();
        let cols: Vec<&[f64]> = subset.iter().map(|&s| ds.point(s)).collect();
        let fam = HashFamily::new(16, 7);
        let mut skip = vec![false; ds.len()];
        for &s in &sky {
            skip[s] = true;
        }
        let ctx = ExecContext::new(RunBudget::none().with_max_dominance_tests(u64::MAX));
        let mut acc = SignatureAccumulator::new(16, subset.len());
        assert!(scan_columns_budgeted(ds.view(), &MinDominance, &cols, &skip, &fam, &ctx, &mut acc)
            .is_none());
        let full = sig_gen_if(&ds, &MinDominance, &sky, &fam);
        for (jn, &s) in subset.iter().enumerate() {
            let jf = sky.iter().position(|&x| x == s).unwrap();
            assert_eq!(acc.matrix.column(jn), full.matrix.column(jf));
            assert_eq!(acc.scores[jn], full.scores[jf]);
        }
        let non_sky = (ds.len() - sky.len()) as u64;
        assert_eq!(
            ctx.dominance_tests(),
            non_sky * subset.len() as u64,
            "subset scans charge per subset column"
        );
    }

    use skydiver_data::Dataset;
}
