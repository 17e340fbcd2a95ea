//! Answer verification and failure accounting.
//!
//! Every reply's `selected` and `gamma` arrays are compared with the
//! library's answer to the same request: `fingerprint_sharded_with` and
//! `select_from` on the same shards, `t`, seed, `k` and method — the
//! repository's bit-identity contract. Replies are grouped by request
//! identity while timed; the references are computed afterwards.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use skydiver_core::{Fingerprint, ShardFingerprint, ShardedFingerprintRun, SkyDiver};
use skydiver_data::{Preference, ShardedDataset};
use skydiver_serve::protocol::{json_bool, json_f64, parse_response};

use crate::inputs::{QueryKey, LSH_BUCKETS, LSH_XI, T};

/// Why a request failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Failure {
    /// The server replied `ERR`.
    ErrReply,
    /// Connection error, timeout or malformed reply.
    Transport,
    /// `"degraded":true` on a request that set no budget.
    Degraded,
    /// The answer differs from the library's.
    WrongAnswer,
}

/// Timing fields of a good `QUERY` reply, plus its answer text.
#[derive(Debug, Clone)]
pub struct Reply {
    pub answer: String,
    pub fingerprint_ms: f64,
    pub selection_ms: f64,
    pub total_ms: f64,
}

/// Checks a raw `QUERY` reply line for every failure kind but a wrong
/// answer, which needs the reference.
pub fn check_query_reply(raw: std::io::Result<String>) -> Result<Reply, Failure> {
    let line = raw.map_err(|_| Failure::Transport)?;
    let payload = match parse_response(line.trim_end()) {
        Ok(p) => p,
        Err(_) if line.starts_with("ERR") => return Err(Failure::ErrReply),
        Err(_) => return Err(Failure::Transport),
    };
    if json_bool(&payload, "degraded") != Some(false) {
        return Err(Failure::Degraded);
    }
    let field = |k: &str| json_f64(&payload, k).ok_or(Failure::Transport);
    Ok(Reply {
        answer: answer_text(&payload).ok_or(Failure::Transport)?.to_string(),
        fingerprint_ms: field("fingerprint_ms")?,
        selection_ms: field("selection_ms")?,
        total_ms: field("total_ms")?,
    })
}

/// The `"selected":[…],"gamma":[…]` part of a reply payload.
pub fn answer_text(payload: &str) -> Option<&str> {
    let start = payload.find("\"selected\":[")?;
    let gamma = start + payload[start..].find("\"gamma\":[")?;
    let end = gamma + payload[gamma..].find(']')?;
    Some(&payload[start..=end])
}

/// Renders a library answer the way a reply spells it.
fn render_answer(selected: &[usize], gamma: &[u64]) -> String {
    let join = |v: Vec<String>| v.join(",");
    format!(
        "\"selected\":[{}],\"gamma\":[{}]",
        join(selected.iter().map(|s| s.to_string()).collect()),
        join(gamma.iter().map(|g| g.to_string()).collect())
    )
}

/// Failures and attempts of one run.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub attempted: u64,
    pub failed: BTreeMap<Failure, u64>,
}

impl Tally {
    pub fn attempt(&mut self) {
        self.attempted += 1;
    }

    pub fn fail(&mut self, kind: Failure, n: u64) {
        if n > 0 {
            *self.failed.entry(kind).or_default() += n;
        }
    }

    pub fn failed_total(&self) -> u64 {
        self.failed.values().sum()
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        for (k, n) in other.failed {
            self.fail(k, n);
        }
    }
}

/// Answers seen per request identity, with how often each was seen.
#[derive(Debug)]
pub struct Answers<K> {
    seen: HashMap<K, HashMap<String, u64>>,
}

impl<K> Default for Answers<K> {
    fn default() -> Self {
        Answers {
            seen: HashMap::new(),
        }
    }
}

impl<K: std::hash::Hash + Eq + Clone + Ord> Answers<K> {
    pub fn record(&mut self, key: K, answer: &str) {
        let texts = self.seen.entry(key).or_default();
        match texts.get_mut(answer) {
            Some(n) => *n += 1,
            None => {
                texts.insert(answer.to_string(), 1);
            }
        }
    }

    pub fn absorb(&mut self, other: Answers<K>) {
        for (key, texts) in other.seen {
            for (text, n) in texts {
                *self
                    .seen
                    .entry(key.clone())
                    .or_default()
                    .entry(text)
                    .or_default() += n;
            }
        }
    }

    /// Distinct request identities, in order.
    pub fn keys(&self) -> Vec<K> {
        let mut keys: Vec<K> = self.seen.keys().cloned().collect();
        keys.sort();
        keys
    }

    /// Counts every recorded reply whose answer differs from
    /// `reference(key)` as a wrong answer.
    pub fn verify(&self, mut reference: impl FnMut(&K) -> String, tally: &mut Tally) {
        for key in self.keys() {
            let want = reference(&key);
            let wrong: u64 = self.seen[&key]
                .iter()
                .filter(|(text, _)| **text != want)
                .map(|(_, n)| *n)
                .sum();
            tally.fail(Failure::WrongAnswer, wrong);
        }
    }
}

/// The library's phase 1 for `(sd, t, seed)`, reusing `cached` folds.
pub fn reference_run(
    sd: &ShardedDataset,
    seed: u64,
    cached: &[Option<Arc<ShardFingerprint>>],
    threads: usize,
) -> ShardedFingerprintRun {
    SkyDiver::new(2)
        .signature_size(T)
        .hash_seed(seed)
        .threads(threads)
        .fingerprint_sharded_with(sd, &Preference::all_min(sd.dims()), cached)
        .expect("reference fingerprint of a generated dataset")
}

/// The selection pipeline a `QUERY` with `key` runs.
pub fn diver(key: &QueryKey) -> SkyDiver {
    let d = SkyDiver::new(key.k).signature_size(T).hash_seed(key.seed);
    if key.lsh {
        d.lsh(LSH_XI, LSH_BUCKETS)
    } else {
        d
    }
}

/// `f` over every key, split across `threads` threads.
pub fn par_map<K, F>(keys: &[K], threads: usize, f: F) -> HashMap<K, String>
where
    K: std::hash::Hash + Eq + Clone + Send + Sync,
    F: Fn(&K) -> String + Sync,
{
    let chunk = keys.len().div_ceil(threads.max(1)).max(1);
    std::thread::scope(|s| {
        let handles: Vec<_> = keys
            .chunks(chunk)
            .map(|part| s.spawn(|| part.iter().map(|k| (k.clone(), f(k))).collect::<Vec<_>>()))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("reference thread"))
            .collect()
    })
}

/// The library's answer to `key` over a reference fingerprint.
pub fn reference_answer(fp: &Fingerprint, key: &QueryKey) -> String {
    let r = diver(key)
        .select_from(fp)
        .expect("reference selection over a complete fingerprint");
    let gamma: Vec<u64> = r.selected_positions.iter().map(|&p| r.scores[p]).collect();
    render_answer(&r.selected, &gamma)
}
