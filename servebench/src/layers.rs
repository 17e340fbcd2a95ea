//! In-process replays of a request's layer calls, under spans.
//!
//! The benchmark adds no tracing to the program. Instead, in a traced
//! run, it repeats the public calls a request made inside the server —
//! the steps of `fingerprint_sharded_with` one by one, then
//! `select_from` — on its own copy of the data, with a span around each
//! call. Span names are the layer names the report uses.

use std::sync::Arc;
use std::time::Instant;

use skydiver_core::minhash::persist::{decode_shard_signatures, encode_shard_signatures};
use skydiver_core::{
    canonicalise, fold_shard, ExecContext, Fingerprint, HashFamily, RunBudget, ShardFingerprint,
    ShardFold, SignatureAccumulator,
};
use skydiver_data::dominance::MinDominance;
use skydiver_data::{Preference, ShardedDataset};
use skydiver_serve::metrics::Metrics;
use skydiver_serve::protocol::{parse_request, parse_response};
use skydiver_serve::{parse_prefs, Registry};
use skydiver_skyline::sfs;

use crate::inputs::{QueryKey, T};
use crate::stats::median;
use crate::trace::Tracer;
use crate::verify::diver;

/// Counts the replayed folds report.
#[derive(Debug, Default)]
pub struct FoldCounts {
    pub dominance_tests: u64,
    pub rows_scanned: u64,
    pub fold_ns: u64,
    pub m: Vec<f64>,
}

/// A replayed phase 1: the assembled fingerprint, one fold per shard
/// (for reuse by the next replay) and the skyline columns.
pub struct Replayed {
    pub fp: Fingerprint,
    pub shards: Vec<Arc<ShardFingerprint>>,
    pub cols_flat: Vec<f64>,
}

/// Replays `fingerprint_sharded_with(sd, all-min, cached)` call by call.
pub fn fingerprint(
    tr: &mut Tracer,
    req: u64,
    sd: &ShardedDataset,
    seed: u64,
    cached: &[Option<Arc<ShardFingerprint>>],
    counts: &mut FoldCounts,
) -> Replayed {
    let prefs = Preference::all_min(sd.dims());
    let concat;
    let whole = if sd.num_shards() == 1 {
        sd.shard(0)
    } else {
        concat = tr.leaf(req, "shard.concat", || sd.concat());
        &concat
    };
    let canon = tr.leaf(req, "canonical", || canonicalise(whole, &prefs));
    let canon = canon.expect("generated data canonicalises");
    let skyline = tr.leaf(req, "skyline.sfs", || sfs(canon.as_ref(), &MinDominance));
    counts.m.push(skyline.len() as f64);

    let family = HashFamily::new(T, seed);
    let mut is_sky = vec![false; canon.len()];
    for &s in &skyline {
        is_sky[s] = true;
    }
    let all_cols: Vec<&[f64]> = skyline.iter().map(|&s| canon.point(s)).collect();
    let mut merged = SignatureAccumulator::new(T, skyline.len());
    let mut shards = Vec::with_capacity(sd.num_shards());
    for i in 0..sd.num_shards() {
        let (lo, hi) = sd.shard_range(i);
        let cache = cached.get(i).and_then(|c| c.as_deref());
        // A budget that never trips but makes the context count tests.
        let ctx = ExecContext::new(RunBudget::none().with_max_dominance_tests(u64::MAX));
        let t0 = Instant::now();
        let fold = tr.leaf(req, "minhash.fold", || {
            fold_shard(
                canon.as_ref().view().slice(lo, hi),
                &skyline,
                &all_cols,
                &is_sky[lo..hi],
                &family,
                cache,
                1,
                &ctx,
            )
        });
        counts.fold_ns += t0.elapsed().as_nanos() as u64;
        counts.dominance_tests += ctx.dominance_tests();
        let acc = match fold {
            ShardFold::ReusedExact => {
                let c = cache.expect("exact reuse implies a cache");
                tr.leaf(req, "minhash.merge", || merged.merge(&c.acc));
                shards.push(Arc::clone(cached[i].as_ref().expect("cached fold")));
                continue;
            }
            ShardFold::ReusedSuperset(acc) => acc,
            ShardFold::Scanned {
                acc, scanned_rows, ..
            } => {
                counts.rows_scanned += scanned_rows as u64;
                acc
            }
        };
        tr.leaf(req, "minhash.merge", || merged.merge(&acc));
        shards.push(Arc::new(ShardFingerprint {
            columns: skyline.clone(),
            acc,
        }));
    }
    let cols_flat = all_cols.concat();
    Replayed {
        fp: Fingerprint {
            skyline,
            output: merged.into_output(),
            fingerprint_ms: 0.0,
            events: vec![],
            interrupt: None,
        },
        shards,
        cols_flat,
    }
}

/// Replays `select_from` for `key` under a `select.mh`/`select.lsh`
/// span that records `k`.
pub fn select(tr: &mut Tracer, req: u64, fp: &Fingerprint, key: &QueryKey) {
    let name = if key.lsh { "select.lsh" } else { "select.mh" };
    let r = tr.leaf_arg(req, name, key.k as u64, || diver(key).select_from(fp));
    r.expect("replayed selection over a complete fingerprint");
}

/// Replays the protocol layer on one request's own lines: the server's
/// `parse_request` and the client's `parse_response`.
pub fn protocol(tr: &mut Tracer, req: u64, line: &str, reply: &str) {
    tr.leaf(req, "protocol.parse", || {
        let _ = std::hint::black_box(parse_request(std::hint::black_box(line)));
        let _ = std::hint::black_box(parse_response(std::hint::black_box(reply)));
    });
}

/// Times the SKYSIG02 codec on shard folds: `(encode ms, decode ms)`.
pub fn persist_codec(shards: &[Arc<ShardFingerprint>]) -> (f64, f64) {
    let t0 = Instant::now();
    let blobs: Vec<Vec<u8>> = shards
        .iter()
        .enumerate()
        .map(|(i, s)| encode_shard_signatures(s, &[0, i as u64, 0, 0]))
        .collect();
    let encode_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t1 = Instant::now();
    for b in &blobs {
        decode_shard_signatures(b).expect("round trip of a fresh encoding");
    }
    (encode_ms, t1.elapsed().as_secs_f64() * 1e3)
}

/// Times the cluster frame codec on one fold request: encode, frame,
/// unframe and decode, in µs.
pub fn cluster_frame(dims: usize, skyline: &[usize], cols_flat: &[f64]) -> f64 {
    use skydiver_cluster::frame;
    let t0 = Instant::now();
    let bytes = frame::encode(&frame::encode_fold_request(dims, skyline, cols_flat));
    let payload = frame::decode(&bytes).expect("fresh frame decodes");
    let decoded = frame::decode_fold_request(payload).expect("fresh fold request decodes");
    std::hint::black_box(decoded);
    t0.elapsed().as_secs_f64() * 1e6
}

/// `Registry::fingerprint` on an in-process replica holding `sd`: the
/// first call for each of `seeds` is a miss (ms), then `hits` repeats
/// of the first seed are memo hits (µs). Returns the two medians.
pub fn registry_probe(sd: &ShardedDataset, seeds: &[u64], hits: usize) -> (f64, f64) {
    let reg = Registry::new(64 << 20, Arc::new(Metrics::new()));
    reg.insert_sharded("replica", sd.clone());
    let (prefs, key) = parse_prefs(None, sd.dims()).expect("all-min preferences");
    let call = |seed: u64| {
        let t0 = Instant::now();
        reg.fingerprint("replica", &prefs, &key, T, seed, RunBudget::none())
            .expect("replica fingerprint");
        t0.elapsed().as_secs_f64()
    };
    let miss: Vec<f64> = seeds.iter().map(|&s| call(s) * 1e3).collect();
    let hit: Vec<f64> = (0..hits).map(|_| call(seeds[0]) * 1e6).collect();
    (median(&miss), median(&hit))
}
