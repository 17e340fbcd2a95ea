//! Parallel index-free signature generation.
//!
//! The paper's future work lists "parallelization aspects of our
//! methodology, aiming for scalable skyline diversification over massive
//! data". Each skyline point's signature is an independent fold over
//! the rows it dominates, so the index-free pass splits the *columns*
//! across threads: every thread owns a contiguous block of columns of
//! the one column-major accumulator (disjoint `chunks_mut` slices, no
//! per-thread `t × m` copy and no merge) and scans every row against
//! its own block with its own [`SkylinePack`]. A column's fold is the
//! same sequence of slot-wise minima whichever thread runs it, so the
//! result is **bit-identical** to the sequential [`sig_gen_if`].
//!
//! [`sig_gen_if`]: super::sig_gen_if

use skydiver_data::{DatasetView, DominanceOrd};

use crate::budget::{ExecContext, Interrupt};
use crate::kernels::SkylinePack;

use super::index_free::{dominator_buffers, scan_view};
use super::{scan_columns_budgeted, HashFamily, SigGenOutput, SignatureAccumulator};

/// Column-split `SigGen-IF`. `threads == 1` is the sequential pass;
/// results are identical for any thread count.
pub fn sig_gen_parallel<'a, O>(
    ds: impl Into<DatasetView<'a>>,
    ord: &O,
    skyline: &[usize],
    family: &HashFamily,
    threads: usize,
) -> SigGenOutput
where
    O: DominanceOrd<Item = [f64]> + Sync,
{
    let ctx = ExecContext::unlimited();
    let (out, _, interrupt) = sig_gen_parallel_budgeted(ds, ord, skyline, family, threads, &ctx);
    debug_assert!(interrupt.is_none(), "unlimited context cannot trip");
    out
}

/// Budget-aware [`sig_gen_parallel`]: every column block charges the
/// shared [`ExecContext`] its width per *non-skyline* row, so the total
/// charge of a complete run is exactly the sequential `m` per row.
/// Returns `(output, rows_scanned, interrupt)` like
/// [`sig_gen_if_budgeted`](super::sig_gen_if_budgeted). Uninterrupted
/// output is bit-identical to the sequential pass; an interrupted one
/// stops each block at a timing-dependent row, which is why the
/// pipeline skips selection after a fingerprint-phase interrupt.
pub fn sig_gen_parallel_budgeted<'a, O>(
    ds: impl Into<DatasetView<'a>>,
    ord: &O,
    skyline: &[usize],
    family: &HashFamily,
    threads: usize,
    ctx: &ExecContext,
) -> (SigGenOutput, usize, Option<Interrupt>)
where
    O: DominanceOrd<Item = [f64]> + Sync,
{
    let view: DatasetView<'a> = ds.into();
    let mut skip = vec![false; view.len()];
    for &s in skyline {
        // lint: allow(R2) -- O(m) flag fill; the column scans poll
        skip[s] = true;
    }
    let cols: Vec<&[f64]> = skyline.iter().map(|&s| view.point(s)).collect();
    let mut acc = SignatureAccumulator::new(family.len(), skyline.len());
    let interrupt =
        scan_columns_parallel_budgeted(view, ord, &cols, &skip, family, ctx, threads, &mut acc);
    let rows = acc.rows_consumed;
    (acc.into_output(), rows, interrupt)
}

/// Parallel twin of
/// [`scan_columns_budgeted`](super::scan_columns_budgeted): splits
/// `cols` into at most `threads` contiguous blocks and folds every row
/// of `view` into each block on its own scoped thread, writing straight
/// into that block's disjoint slice of `acc`. With one block (one
/// thread, or one column) it *is* the sequential scan.
///
/// Each block charges the shared `ctx` its width per non-skipped row,
/// so a complete fold charges exactly what the sequential one does and
/// is bit-identical to it. On a trip the first (in column order)
/// interrupt is returned and `acc.rows_consumed` grows by the shortest
/// block prefix; blocks stop at timing-dependent rows.
///
/// # Panics
/// Panics if `skip.len() != view.len()` or the accumulator shape does
/// not match `(family.len(), cols.len())`, and re-raises a worker panic.
#[allow(clippy::too_many_arguments)]
pub fn scan_columns_parallel_budgeted<O>(
    view: DatasetView<'_>,
    ord: &O,
    cols: &[&[f64]],
    skip: &[bool],
    family: &HashFamily,
    ctx: &ExecContext,
    threads: usize,
    acc: &mut SignatureAccumulator,
) -> Option<Interrupt>
where
    O: DominanceOrd<Item = [f64]> + Sync,
{
    let t = family.len();
    let width = cols.len().div_ceil(threads.max(1)).max(1);
    if width >= cols.len() {
        return scan_columns_budgeted(view, ord, cols, skip, family, ctx, acc);
    }
    assert_eq!(
        (acc.t(), acc.m()),
        (t, cols.len()),
        "accumulator shape mismatch"
    );
    // Everything a worker needs is allocated here, on the calling thread
    // (see `dominator_buffers`).
    let canonical = ord.is_canonical_min();
    let mut blocks: Vec<ColumnBlock<'_, '_>> = acc
        .matrix
        .slots_mut()
        .chunks_mut(width * t)
        .zip(acc.scores.chunks_mut(width))
        .zip(cols.chunks(width))
        .map(|((sigs, scores), cols)| ColumnBlock {
            pack: canonical.then(|| SkylinePack::pack(view.dims(), cols.iter().copied())),
            doms: dominator_buffers(),
            cols,
            sigs,
            scores,
        })
        .collect();
    let fold = |b: &mut ColumnBlock<'_, '_>| {
        scan_view(
            view,
            ord,
            b.cols,
            skip,
            b.pack.as_ref(),
            family,
            ctx,
            b.sigs,
            b.scores,
            &mut b.doms,
        )
    };
    let (own, rest) = blocks
        .split_first_mut()
        // lint: allow(R1) -- width < cols.len() here, so there are at
        // least two blocks
        .expect("at least two column blocks");
    let results: Vec<(usize, Option<Interrupt>)> = std::thread::scope(|scope| {
        let fold = &fold;
        let handles: Vec<_> = rest
            .iter_mut()
            .map(|b| scope.spawn(move || fold(b)))
            .collect();
        // The calling thread folds the first block itself.
        std::iter::once(fold(own))
            .chain(
                handles
                    .into_iter()
                    // lint: allow(R1) -- a worker panic is re-raised on the
                    // caller by design; swallowing it would drop columns
                    .map(|h| h.join().expect("siggen column block panicked")),
            )
            .collect()
    });
    acc.rows_consumed += results.iter().map(|&(rows, _)| rows).min().unwrap_or(0);
    results.into_iter().find_map(|(_, int)| int)
}

/// One thread's share of a column-split fold: its columns, their
/// packed coordinates, its scratch and its disjoint slice of the
/// accumulator.
struct ColumnBlock<'c, 'a> {
    cols: &'c [&'c [f64]],
    pack: Option<SkylinePack>,
    doms: Vec<Vec<usize>>,
    sigs: &'a mut [u64],
    scores: &'a mut [u64],
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::{ExecContext, RunBudget, StopReason};
    use crate::minhash::{
        fold_shard, sig_gen_if, sig_gen_if_budgeted, ShardFingerprint, ShardFold,
    };
    use skydiver_data::dominance::MinDominance;
    use skydiver_data::generators::{anticorrelated, independent};
    use skydiver_data::Dataset;
    use skydiver_skyline::naive_skyline;

    /// A budget that never trips but makes the context count tests.
    fn counting() -> ExecContext {
        ExecContext::new(RunBudget::none().with_max_dominance_tests(u64::MAX))
    }

    #[test]
    fn column_split_equals_the_sequential_fold_for_any_thread_count() {
        let ds = anticorrelated(1500, 3, 110);
        let sky = naive_skyline(&ds, &MinDominance);
        let m = sky.len();
        assert!(m > 8, "need more columns than the largest block count");
        let fam = HashFamily::new(64, 10);
        let ctx_seq = counting();
        let (seq, seq_rows, _) = sig_gen_if_budgeted(&ds, &MinDominance, &sky, &fam, &ctx_seq);
        for threads in [2, 3, 8, m + 5] {
            let ctx = counting();
            let (par, rows, int) =
                sig_gen_parallel_budgeted(&ds, &MinDominance, &sky, &fam, threads, &ctx);
            assert!(int.is_none());
            assert_eq!(seq.matrix, par.matrix, "threads = {threads}");
            assert_eq!(seq.scores, par.scores, "threads = {threads}");
            assert_eq!(rows, seq_rows, "threads = {threads}");
            assert_eq!(
                ctx.dominance_tests(),
                ctx_seq.dominance_tests(),
                "threads = {threads}: the column blocks charge what one scan charges"
            );
        }
        assert_eq!(
            ctx_seq.dominance_tests(),
            (ds.len() - m) as u64 * m as u64,
            "skyline rows are free"
        );
    }

    #[test]
    fn a_single_column_folds_on_the_calling_thread() {
        // One skyline point dominating everything: m = 1.
        let mut rows = vec![[0.0, 0.0]];
        for i in 0..200 {
            rows.push([0.5 + i as f64 * 0.01, 0.7]);
        }
        let ds = Dataset::from_rows(2, &rows);
        let sky = naive_skyline(&ds, &MinDominance);
        assert_eq!(sky, vec![0]);
        let fam = HashFamily::new(16, 3);
        let seq = sig_gen_if(&ds, &MinDominance, &sky, &fam);
        for threads in [2, 8] {
            let par = sig_gen_parallel(&ds, &MinDominance, &sky, &fam, threads);
            assert_eq!(seq.matrix, par.matrix, "threads = {threads}");
            assert_eq!(par.scores, vec![200]);
        }
    }

    #[test]
    fn partial_cache_need_columns_split_like_a_full_scan() {
        // The APPEND warm path scans only the columns a cached fold
        // lacks; those `need` columns go through the same column split.
        let ds = independent(1200, 3, 115);
        let sky = naive_skyline(&ds, &MinDominance);
        assert!(sky.len() >= 4);
        let cols: Vec<&[f64]> = sky.iter().map(|&s| ds.point(s)).collect();
        let mut skip = vec![false; ds.len()];
        for &s in &sky {
            skip[s] = true;
        }
        let fam = HashFamily::new(32, 4);
        let full = sig_gen_if(&ds, &MinDominance, &sky, &fam);
        // A "cache" that covers every other column only.
        let kept: Vec<usize> = (0..sky.len()).step_by(2).collect();
        let mut cached = SignatureAccumulator::new(32, kept.len());
        for (jn, &j) in kept.iter().enumerate() {
            cached.matrix.set_column(jn, full.matrix.column(j));
            cached.scores[jn] = full.scores[j];
        }
        cached.rows_consumed = ds.len();
        let cache = ShardFingerprint {
            columns: kept.iter().map(|&j| sky[j]).collect(),
            acc: cached,
        };
        let mut charges = vec![];
        for threads in [1, 2, 3, 8, sky.len() + 1] {
            let ctx = counting();
            let fold = fold_shard(
                ds.view(),
                &sky,
                &cols,
                &skip,
                &fam,
                Some(&cache),
                threads,
                &ctx,
            );
            let ShardFold::Scanned { acc, interrupt, .. } = fold else {
                panic!("a partial cache must scan the missing columns");
            };
            assert!(interrupt.is_none());
            assert_eq!(acc.matrix, full.matrix, "threads = {threads}");
            assert_eq!(acc.scores, full.scores, "threads = {threads}");
            charges.push(ctx.dominance_tests());
        }
        let need = (sky.len() - kept.len()) as u64;
        let non_sky = (ds.len() - sky.len()) as u64;
        assert!(
            charges.iter().all(|&c| c == need * non_sky),
            "every split charges per missing column: {charges:?}"
        );
    }

    #[test]
    fn budgeted_run_stops_all_blocks_promptly() {
        let ds = independent(2000, 3, 113);
        let sky = naive_skyline(&ds, &MinDominance);
        let m = sky.len() as u64;
        let fam = HashFamily::new(16, 13);
        // Budget funds ~200 rows' worth of tests across all blocks.
        let ctx = ExecContext::new(RunBudget::none().with_max_dominance_tests(200 * m));
        let (_, rows, int) = sig_gen_parallel_budgeted(&ds, &MinDominance, &sky, &fam, 4, &ctx);
        let int = int.expect("shared budget must trip");
        assert!(matches!(int.reason, StopReason::DominanceBudgetExhausted { .. }));
        assert!(rows < 2000, "blocks stopped early, scanned {rows}");
    }

    #[test]
    fn tiny_input_matches() {
        let ds = independent(6, 2, 112);
        let sky = naive_skyline(&ds, &MinDominance);
        let fam = HashFamily::new(8, 12);
        let seq = sig_gen_if(&ds, &MinDominance, &sky, &fam);
        let par = sig_gen_parallel(&ds, &MinDominance, &sky, &fam, 16);
        assert_eq!(seq.matrix, par.matrix);
    }
}
