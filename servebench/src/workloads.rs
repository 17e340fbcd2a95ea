//! The four workloads. Each sets the server up `SETUP_REPS` times
//! (timing each), runs one timed window on the last set-up, verifies
//! every reply against the library, and fills a [`Report`].

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use skydiver_core::{Fingerprint, ShardFingerprint};
use skydiver_data::{Dataset, ShardedDataset};
use skydiver_serve::protocol::json_u64;
use skydiver_serve::{content_hash, parse_prefs, prefs_hash, Client, StoreKey};

use crate::inputs::{self, ant, write_csv, QueryKey, Rng};
use crate::layers::{self, FoldCounts};
use crate::proc::{connect, delta, ServerProc, WorkDir, REPLY_TIMEOUT};
use crate::report::Report;
use crate::stats::{
    beyond, mean, median, quantile, sorted, tail_percentile, TAIL_CANDIDATES, TAIL_MIN_BEYOND,
};
use crate::trace::Tracer;
use crate::verify::{
    check_query_reply, par_map, reference_answer, reference_run, Answers, Failure, Reply, Tally,
};

/// What every workload is given.
pub struct Cx {
    pub bin: PathBuf,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub work: WorkDir,
    /// Threads for the benchmark's own reference computations, which
    /// run outside every timed window.
    pub threads: usize,
}

/// The workloads, by name.
pub const WORKLOADS: &[&str] = &["warm_select", "cold_mix", "append_mix", "cluster_fanout"];

pub fn run(name: &str, cx: &Cx) -> Result<Report, String> {
    match name {
        "warm_select" => warm_select(cx),
        "cold_mix" => cold_mix(cx),
        "append_mix" => append_mix(cx),
        "cluster_fanout" => cluster_fanout(cx),
        other => Err(format!("unknown workload {other:?} (one of {WORKLOADS:?})")),
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn ok(reply: Result<String, String>) -> Result<String, String> {
    reply.map_err(|e| format!("set-up request failed: {e}"))
}

fn strings(args: &[&str]) -> Vec<String> {
    args.iter().map(|s| s.to_string()).collect()
}

/// Runs `start` `reps` times, stopping all but the last state with
/// `stop`; returns the last state and the median set-up time in s.
fn setup<S>(
    reps: usize,
    mut start: impl FnMut(usize) -> Result<S, String>,
    mut stop: impl FnMut(S) -> Result<(), String>,
) -> Result<(S, f64), String> {
    let mut times = Vec::with_capacity(reps);
    for rep in 0..reps {
        let t0 = Instant::now();
        let state = start(rep)?;
        times.push(t0.elapsed().as_secs_f64());
        if rep + 1 == reps {
            eprintln!("#   set-up times (s): {times:.3?}");
            return Ok((state, median(&times)));
        }
        stop(state)?;
    }
    Err("no set-up repetitions".into())
}

/// Latencies of one request class.
#[derive(Debug, Default)]
struct Lat {
    rtt: Vec<f64>,
    total: Vec<f64>,
    fp: Vec<f64>,
    sel: Vec<f64>,
}

impl Lat {
    fn push(&mut self, rtt_ms: f64, r: &Reply) {
        self.rtt.push(rtt_ms);
        self.total.push(r.total_ms);
        self.fp.push(r.fingerprint_ms);
        self.sel.push(r.selection_ms);
    }

    fn absorb(&mut self, o: Lat) {
        self.rtt.extend(o.rtt);
        self.total.extend(o.total);
        self.fp.extend(o.fp);
        self.sel.extend(o.sel);
    }
}

/// One timed `QUERY`: its round trip in ms and its checked reply.
fn timed_query(client: &mut Client, line: &str) -> (f64, Result<Reply, Failure>) {
    let t0 = Instant::now();
    let raw = client.request(line);
    let rtt = ms(t0.elapsed());
    (rtt, check_query_reply(raw))
}

/// Per-connection results of a closed loop.
struct Conn<K> {
    lat: Lat,
    answers: Answers<K>,
    tally: Tally,
    tracer: Tracer,
    /// Time the client spent replaying layers, in s.
    replay_s: f64,
}

impl<K> Default for Conn<K> {
    fn default() -> Self {
        Conn {
            lat: Lat::default(),
            answers: Answers::default(),
            tally: Tally::default(),
            tracer: Tracer::new(),
            replay_s: 0.0,
        }
    }
}

/// A closed loop: `next(i)` gives request `i`'s identity and line, the
/// reply is checked and recorded, and — when tracing — `replay` repeats
/// the request's layer calls under a `replay` root span.
fn closed_loop<K: std::hash::Hash + Eq + Clone + Ord>(
    client: &mut Client,
    deadline: Instant,
    trace: bool,
    mut next: impl FnMut(u64) -> (K, String),
    mut replay: impl FnMut(&mut Tracer, u64, &K, &Reply),
) -> Conn<K> {
    let mut c = Conn::default();
    let mut i = 0u64;
    while Instant::now() < deadline {
        let (key, line) = next(i);
        let (rtt, reply) = timed_query(client, &line);
        c.tally.attempt();
        match reply {
            Ok(r) => {
                c.lat.push(rtt, &r);
                c.answers.record(key.clone(), &r.answer);
                if trace {
                    let t0 = Instant::now();
                    let root = c.tracer.begin(i, "replay");
                    layers::protocol(&mut c.tracer, i, &line, &r.answer);
                    replay(&mut c.tracer, i, &key, &r);
                    c.tracer.end(root);
                    c.replay_s += t0.elapsed().as_secs_f64();
                }
            }
            Err(f) => {
                c.tally.fail(f, 1);
                if f == Failure::Transport {
                    break;
                }
            }
        }
        i += 1;
    }
    c
}

/// The end-to-end figures of the primary requests.
fn primary_metrics(rep: &mut Report, lat: &Lat, wall_s: f64, tail_q: f64, setup_s: f64) {
    let rtt = sorted(&lat.rtt);
    rep.set("setup_s", setup_s);
    rep.set("qps", rtt.len() as f64 / wall_s);
    rep.set("lat_p50_ms", quantile(&rtt, 0.5));
    rep.set("lat_tail_ms", quantile(&rtt, tail_q));
    let rule = tail_percentile(rtt.len(), TAIL_CANDIDATES, TAIL_MIN_BEYOND).unwrap_or(0.0);
    rep.note(format!(
        "primary requests: {} in {wall_s:.3} s; lat_tail_ms is p{} with {} samples beyond it \
         (the tail rule picks p{} for this sample)",
        rtt.len(),
        tail_q * 100.0,
        beyond(rtt.len(), tail_q),
        rule * 100.0
    ));
    let deciles: Vec<String> = [0.1, 0.25, 0.5, 0.75, 0.9]
        .iter()
        .map(|&q| format!("{:.3}", quantile(&rtt, q)))
        .collect();
    rep.note(format!(
        "primary latency p10/p25/p50/p75/p90 (ms): {}",
        deciles.join(" / ")
    ));
    let wire: Vec<f64> = lat.rtt.iter().zip(&lat.total).map(|(r, t)| r - t).collect();
    let wire = sorted(&wire);
    rep.set("server.wire_ms.p50", quantile(&wire, 0.5));
    rep.set("server.wire_ms.p99", quantile(&wire, 0.99));
    rep.set("reply.fingerprint_ms", mean(&lat.fp));
    rep.set("reply.selection_ms", mean(&lat.sel));
    let rest: Vec<f64> = (0..lat.total.len())
        .map(|i| lat.total[i] - lat.fp[i] - lat.sel[i])
        .collect();
    rep.set("reply.rest_ms", mean(&rest));
}

/// Counter deltas every workload reports from `STATS`.
fn stats_metrics(rep: &mut Report, before: &str, after: &str) {
    let d = |k: &str| delta(before, after, k) as f64;
    let (hits, misses, queries) = (d("cache_hits"), d("cache_misses"), d("queries"));
    rep.set("server.err_replies", d("errors"));
    rep.set("registry.fp_hit_ratio", hits / (hits + misses).max(1.0));
    rep.set(
        "registry.sel_hit_ratio",
        d("selection_hits") / queries.max(1.0),
    );
    rep.note(format!(
        "STATS deltas: queries {queries}, fingerprint hits {hits} / misses {misses}, selection memo hits {}, errors {}",
        d("selection_hits"),
        d("errors")
    ));
    rep.set("cache.evictions", d("cache_evictions"));
    rep.set(
        "cache.bytes_resident",
        json_u64(after, "bytes_resident").unwrap_or(0) as f64,
    );
    rep.set("cache.shards_reused", d("shards_reused"));
    rep.set("store.write_failures", d("store_write_failures"));
}

/// Layer figures from the spans: mean self time per primary request
/// (`per_req` of them were replayed), plus the trace's own accounting
/// over `acct`, every replayed request, primary or not. When the server
/// ran the folds in parallel, `fold_path_ms` is their critical path
/// (summed over requests) and stands in for the folds' summed self time.
fn span_metrics(
    rep: &mut Report,
    tracer: &Tracer,
    per_req: usize,
    acct: &Lat,
    (replay_s, wall_s): (f64, f64),
    fold_path_ms: Option<f64>,
) {
    let replayed = acct.rtt.len();
    let per_req = per_req.max(1) as f64;
    let by_name = tracer.self_by_name();
    let total_ms = |name: &str| -> f64 {
        by_name
            .get(name)
            .map_or(0.0, |v| v.iter().sum::<u64>() as f64 / 1e6)
    };
    for (metric, span) in [
        ("shard.concat_ms", "shard.concat"),
        ("canonical.ms", "canonical"),
        ("skyline.sfs_ms", "skyline.sfs"),
        ("minhash.fold_ms", "minhash.fold"),
        ("minhash.merge_ms", "minhash.merge"),
    ] {
        rep.set(metric, total_ms(span) / per_req);
    }
    rep.set(
        "protocol.parse_us",
        total_ms("protocol.parse") * 1e3 / per_req,
    );
    for (prefix, span) in [
        ("select.mh_ms", "select.mh"),
        ("select.lsh_ms", "select.lsh"),
    ] {
        let durations: Vec<f64> = by_name
            .get(span)
            .map_or(vec![], |v| v.iter().map(|&ns| ns as f64 / 1e6).collect());
        let d = sorted(&durations);
        rep.set(&format!("{prefix}.p50"), quantile(&d, 0.5));
        rep.set(&format!("{prefix}.p99"), quantile(&d, 0.99));
        let ks: Vec<f64> = tracer
            .spans()
            .iter()
            .filter(|s| s.name == span)
            .map(|s| s.arg as f64)
            .collect();
        if !ks.is_empty() {
            let ks = sorted(&ks);
            rep.note(format!(
                "{span}: {} selections, k p50 {} / max {}",
                ks.len(),
                quantile(&ks, 0.5),
                quantile(&ks, 1.0)
            ));
        }
    }
    // Accounted: the wire, plus every layer span's self time; the root
    // `replay` span's own time is the benchmark's glue, not a layer.
    let layer_ms: f64 = by_name
        .iter()
        .filter(|(name, _)| **name != "replay")
        .map(|(_, v)| v.iter().sum::<u64>() as f64 / 1e6)
        .sum::<f64>()
        + fold_path_ms.map_or(0.0, |path| path - total_ms("minhash.fold"));
    let rtt: f64 = acct.rtt.iter().sum();
    let wire: f64 = acct.rtt.iter().zip(&acct.total).map(|(r, t)| r - t).sum();
    rep.set(
        "trace.unaccounted_share",
        1.0 - (wire + layer_ms) / rtt.max(1e-9),
    );
    rep.set("trace.overhead_share", replay_s / wall_s);
    rep.note(format!(
        "trace: {} spans over {replayed} replayed requests; replay took {replay_s:.3} s of {wall_s:.3} s",
        tracer.spans().len()
    ));
}

fn fold_metrics(rep: &mut Report, counts: &FoldCounts, replayed: usize) {
    let per_req = replayed.max(1) as f64;
    rep.set(
        "minhash.dominance_tests",
        counts.dominance_tests as f64 / per_req,
    );
    rep.set("minhash.rows_scanned", counts.rows_scanned as f64 / per_req);
    rep.set(
        "minhash.tests_per_us",
        counts.dominance_tests as f64 / (counts.fold_ns as f64 / 1e3).max(1e-9),
    );
    rep.set("skyline.m", mean(&counts.m));
}

fn write_spans(cx: &Cx, name: &str, tracer: &Tracer) -> Result<(), String> {
    let dir = Path::new(".servebench").join("spans");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let path = dir.join(format!("{name}-seed{}.tsv", cx.seed));
    let mut f = std::io::BufWriter::new(std::fs::File::create(&path).map_err(|e| e.to_string())?);
    tracer
        .write(&mut f)
        .and_then(|_| f.flush())
        .map_err(|e| e.to_string())
}

/// Writes a workload's dataset and returns it with its CSV path. The
/// points come from [`inputs::DATA_SEED`], not the run's seed: skyline
/// size, and with it every query's cost, varies by ±5–7% between
/// generator seeds, which alone would use most of a metric's bound.
/// The run's seed drives everything else — hash seeds, `k` draws, the
/// hot set and the append batches.
fn dataset(
    cx: &Cx,
    file: &str,
    n: usize,
    d: usize,
    stream: u64,
) -> Result<(Dataset, String), String> {
    let flat = ant(n, d, 0.5, &mut Rng::stream(inputs::DATA_SEED, stream));
    let path = cx.work.path(file);
    write_csv(&path, d, &flat).map_err(|e| e.to_string())?;
    Ok((Dataset::from_flat(d, flat), path.display().to_string()))
}

// ---------------------------------------------------------------------
// warm_select
// ---------------------------------------------------------------------

fn warm_select(cx: &Cx) -> Result<Report, String> {
    const N: usize = 100_000;
    const D: usize = 4;
    const SETUP_REPS: usize = 1;
    const TAIL_Q: f64 = 0.995;
    let mut rep = Report::default();
    let (ds, path) = dataset(cx, "warm.csv", N, D, 10)?;
    let sd = ShardedDataset::from_dataset(ds);
    let seeds = inputs::warm_seeds(cx.seed);
    // The references are verification, so they are computed before the
    // server starts and stay out of `setup_s`.
    let refs: HashMap<u64, Fingerprint> = seeds
        .iter()
        .map(|&s| (s, reference_run(&sd, s, &[], cx.threads).fingerprint))
        .collect();
    let hot = inputs::hot_keys(cx.seed);
    let log = cx.work.path("server.log");
    let ((srv, mut c0, mut c1), setup_s) = setup(
        SETUP_REPS,
        |_| {
            // One loop: with two, the loops race to accept the two
            // connections, and whether they share a loop (most runs) or
            // not decided `qps` by up to 2x from run to run.
            let srv =
                ServerProc::spawn(&cx.bin, "127.0.0.1:0", &strings(&["--threads", "1"]), &log)?;
            let mut c0 = connect(&srv.addr)?;
            let c1 = connect(&srv.addr)?;
            ok(c0.exchange(&format!("LOAD name=ws path={path}")))?;
            for &s in &seeds {
                ok(c0.exchange(&QueryKey::mh(s, 10).line("ws")))?;
            }
            for k in &hot {
                ok(c0.exchange(&k.line("ws")))?;
            }
            Ok((srv, c0, c1))
        },
        |(srv, _, _)| srv.shutdown(),
    )?;

    let before = ok(c0.exchange("STATS"))?;
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(cx.seconds);
    let conn = |client: &mut Client, id: u64| {
        let mut stream = inputs::WarmStream::new(cx.seed, id);
        closed_loop(
            client,
            deadline,
            cx.trace,
            |_| {
                let k = stream.next().expect("endless stream");
                (k, k.line("ws"))
            },
            |tr, i, key, reply| {
                // A reply with selection time ran a real selection; a
                // memo hit ran none.
                if reply.selection_ms > 0.0 {
                    layers::select(tr, i, &refs[&key.seed], key);
                }
            },
        )
    };
    let (mut a, b) = std::thread::scope(|s| {
        let other = s.spawn(|| conn(&mut c1, 1));
        let mine = conn(&mut c0, 0);
        (mine, other.join().expect("load thread"))
    });
    let wall_s = start.elapsed().as_secs_f64();
    let after = ok(c0.exchange("STATS"))?;
    rep.set("server_rss_mb", srv.peak_rss_mib()?);
    drop((c0, c1));
    srv.shutdown()?;

    let replay_s = (a.replay_s + b.replay_s) / 2.0;
    a.lat.absorb(b.lat);
    a.answers.absorb(b.answers);
    a.tally.absorb(b.tally);
    let t_verify = Instant::now();
    let want = par_map(&a.answers.keys(), cx.threads, |key| {
        reference_answer(&refs[&key.seed], key)
    });
    a.answers.verify(|key| want[key].clone(), &mut a.tally);
    rep.note(format!(
        "verification: {:.2} s",
        t_verify.elapsed().as_secs_f64()
    ));
    primary_metrics(&mut rep, &a.lat, wall_s, TAIL_Q, setup_s);
    stats_metrics(&mut rep, &before, &after);
    if cx.trace {
        let mut tracer = a.tracer;
        tracer.absorb(b.tracer);
        span_metrics(
            &mut rep,
            &tracer,
            a.lat.rtt.len(),
            &a.lat,
            (replay_s, wall_s),
            None,
        );
        let (miss_ms, hit_us) = layers::registry_probe(&sd, &seeds[..1], 50);
        rep.set("registry.fingerprint_miss_ms", miss_ms);
        rep.set("registry.fingerprint_hit_us", hit_us);
        write_spans(cx, "warm_select", &tracer)?;
    }
    rep.tally = a.tally;
    Ok(rep)
}

// ---------------------------------------------------------------------
// cold_mix
// ---------------------------------------------------------------------

/// Fingerprint cache ceiling of the fresh-seed workloads: small enough
/// that the LRU fills, and peak RSS levels off, within the first few
/// seconds instead of growing with however many queries a run completes.
const SMALL_CACHE: &str = "16777216";

/// Period of `cold_mix`'s open-loop probe schedule.
const PROBE_PERIOD: Duration = Duration::from_millis(20);
/// `probe_tail_ms`'s percentile: ten of the 500 probes a ten-second
/// window sends lie beyond it.
const PROBE_TAIL_Q: f64 = 0.98;

/// One probe: when it was due, when it went out, when its reply came.
struct Probe {
    due: Instant,
    sent: Instant,
}

#[derive(Default)]
struct ProbeResult {
    /// Reply time minus due time, ms.
    latency: Vec<f64>,
    /// Send time minus due time, ms.
    late: Vec<f64>,
    /// Reply time minus send time minus the reply's `total_ms`, ms.
    wait: Vec<f64>,
    answers: Answers<u8>,
    tally: Tally,
}

/// Sends `line` every [`PROBE_PERIOD`] until `end`, whatever the
/// replies do, and reads replies in between; times each probe from when
/// it was due.
fn probe_loop(stream: TcpStream, line: &str, end: Instant) -> ProbeResult {
    let mut out = ProbeResult::default();
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => {
            out.tally.fail(Failure::Transport, 1);
            return out;
        }
    };
    let mut reader = BufReader::new(stream);
    let mut pending = std::collections::VecDeque::<Probe>::new();
    let mut next_due = Instant::now();
    let mut buf = Vec::new();
    let give_up = end + REPLY_TIMEOUT;
    loop {
        let now = Instant::now();
        if next_due < end && now >= next_due {
            if writer.write_all(format!("{line}\n").as_bytes()).is_err() {
                out.tally.fail(Failure::Transport, 1);
                break;
            }
            out.tally.attempt();
            pending.push_back(Probe {
                due: next_due,
                sent: now,
            });
            next_due += PROBE_PERIOD;
            continue;
        }
        if next_due >= end && pending.is_empty() {
            break;
        }
        if now >= give_up {
            out.tally.fail(Failure::Transport, pending.len() as u64);
            break;
        }
        let wake = if next_due < end { next_due } else { give_up };
        let _ = reader.get_ref().set_read_timeout(Some(
            wake.saturating_duration_since(now)
                .max(Duration::from_micros(50)),
        ));
        match reader.read_until(b'\n', &mut buf) {
            Ok(0) => {
                out.tally.fail(Failure::Transport, pending.len() as u64);
                break;
            }
            Ok(_) if buf.ends_with(b"\n") => {
                let at = Instant::now();
                let Some(p) = pending.pop_front() else {
                    out.tally.fail(Failure::Transport, 1);
                    break;
                };
                let raw = String::from_utf8_lossy(&buf).into_owned();
                buf.clear();
                match check_query_reply(Ok(raw)) {
                    Ok(r) => {
                        out.latency.push(ms(at - p.due));
                        out.late.push(ms(p.sent - p.due));
                        out.wait.push(ms(at - p.sent) - r.total_ms);
                        out.answers.record(0, &r.answer);
                    }
                    Err(f) => out.tally.fail(f, 1),
                }
            }
            Ok(_) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
            Err(_) => {
                out.tally.fail(Failure::Transport, pending.len() as u64);
                break;
            }
        }
    }
    out
}

fn cold_mix(cx: &Cx) -> Result<Report, String> {
    const N: usize = 8_000;
    const D: usize = 4;
    const SETUP_REPS: usize = 5;
    const TAIL_Q: f64 = 0.85;
    let mut rep = Report::default();
    let (ds, path) = dataset(cx, "cold.csv", N, D, 20)?;
    let sd = ShardedDataset::from_dataset(ds);
    let probe_key = QueryKey::mh(inputs::fresh_seed(cx.seed, 21, 0), 10);
    let probe_line = probe_key.line("cm");
    let log = cx.work.path("server.log");
    let ((srv, mut primary, probe_conn), setup_s) = setup(
        SETUP_REPS,
        |_| {
            let srv = ServerProc::spawn(
                &cx.bin,
                "127.0.0.1:0",
                &strings(&["--threads", "1", "--cache-bytes", SMALL_CACHE]),
                &log,
            )?;
            let mut c = connect(&srv.addr)?;
            let probe = TcpStream::connect(&srv.addr).map_err(|e| e.to_string())?;
            probe.set_nodelay(true).map_err(|e| e.to_string())?;
            ok(c.exchange(&format!("LOAD name=cm path={path}")))?;
            // Twice: a cold fold, then the memo hit every probe will be.
            ok(c.exchange(&probe_line))?;
            ok(c.exchange(&probe_line))?;
            Ok((srv, c, probe))
        },
        |(srv, _, _)| srv.shutdown(),
    )?;

    let before = ok(primary.exchange("STATS"))?;
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(cx.seconds);
    let mut counts = FoldCounts::default();
    let (mut main, probes) = std::thread::scope(|s| {
        let probes = s.spawn(|| probe_loop(probe_conn, &probe_line, deadline));
        let main = closed_loop(
            &mut primary,
            deadline,
            cx.trace,
            |i| {
                let k = QueryKey::mh(inputs::fresh_seed(cx.seed, 22, i), 10);
                (k, k.line("cm"))
            },
            |tr, i, key, _| {
                let r = layers::fingerprint(tr, i, &sd, key.seed, &[], &mut counts);
                layers::select(tr, i, &r.fp, key);
            },
        );
        (main, probes.join().expect("probe thread"))
    });
    let wall_s = start.elapsed().as_secs_f64();
    let after = ok(primary.exchange("STATS"))?;
    rep.set("server_rss_mb", srv.peak_rss_mib()?);
    drop(primary);
    srv.shutdown()?;

    let t_verify = Instant::now();
    let mut memo = HashMap::new();
    let mut reference = |key: &QueryKey| {
        let fp = memo
            .entry(key.seed)
            .or_insert_with(|| reference_run(&sd, key.seed, &[], cx.threads).fingerprint);
        reference_answer(fp, key)
    };
    main.answers.verify(&mut reference, &mut main.tally);
    let mut probe_tally = probes.tally;
    probes
        .answers
        .verify(|_| reference(&probe_key), &mut probe_tally);
    main.tally.absorb(probe_tally);
    rep.note(format!(
        "verification: {:.2} s",
        t_verify.elapsed().as_secs_f64()
    ));

    primary_metrics(&mut rep, &main.lat, wall_s, TAIL_Q, setup_s);
    stats_metrics(&mut rep, &before, &after);
    let lat = sorted(&probes.latency);
    rep.set("probe_p50_ms", quantile(&lat, 0.5));
    rep.set("probe_tail_ms", quantile(&lat, PROBE_TAIL_Q));
    rep.set("gen.late_p99_ms", quantile(&sorted(&probes.late), 0.99));
    let wait = sorted(&probes.wait);
    rep.set("server.probe_wait_ms.p50", quantile(&wait, 0.5));
    rep.set("server.probe_wait_ms.p99", quantile(&wait, 0.99));
    rep.note(format!(
        "probes: {} answered, every {} ms; probe_tail_ms is p{} with {} beyond",
        lat.len(),
        PROBE_PERIOD.as_millis(),
        PROBE_TAIL_Q * 100.0,
        beyond(lat.len(), PROBE_TAIL_Q)
    ));
    if cx.trace {
        let replayed = main.lat.rtt.len();
        span_metrics(
            &mut rep,
            &main.tracer,
            replayed,
            &main.lat,
            (main.replay_s, wall_s),
            None,
        );
        fold_metrics(&mut rep, &counts, replayed);
        let seeds: Vec<u64> = (0..3).map(|i| inputs::fresh_seed(cx.seed, 23, i)).collect();
        let (miss_ms, hit_us) = layers::registry_probe(&sd, &seeds, 50);
        rep.set("registry.fingerprint_miss_ms", miss_ms);
        rep.set("registry.fingerprint_hit_us", hit_us);
        write_spans(cx, "cold_mix", &main.tracer)?;
    }
    rep.tally = main.tally;
    Ok(rep)
}

// ---------------------------------------------------------------------
// append_mix
// ---------------------------------------------------------------------

/// `append_mix` request identity: the dataset generation (appends so
/// far) and the query.
type GenKey = (u64, QueryKey);

/// Sizes and bytes of the store's artefacts: `(files, bytes)`.
fn store_usage(dir: &Path) -> (u64, u64) {
    let mut files = 0;
    let mut bytes = 0;
    if let Ok(entries) = std::fs::read_dir(dir) {
        for e in entries.flatten() {
            if e.file_name().to_string_lossy().ends_with(".sig2") {
                files += 1;
                bytes += e.metadata().map(|m| m.len()).unwrap_or(0);
            }
        }
    }
    (files, bytes)
}

fn append_mix(cx: &Cx) -> Result<Report, String> {
    const N: usize = 100_000;
    const D: usize = 4;
    const ROWS: usize = 1_000;
    const SETUP_REPS: usize = 2;
    const TAIL_Q: f64 = 0.6;
    let mut rep = Report::default();
    let (ds, path) = dataset(cx, "base.csv", N, D, 30)?;
    let seed = inputs::fresh_seed(cx.seed, 31, 0);
    // Verification, computed before the server starts.
    let base_run = reference_run(
        &ShardedDataset::from_dataset(ds.clone()),
        seed,
        &[],
        cx.threads,
    );
    let refresh = |gen: u64| (gen, QueryKey::mh(seed, 10));
    let log = cx.work.path("server.log");
    let store_dir = |rep: usize| cx.work.path(&format!("store{rep}"));
    let ((srv, mut c), setup_s) = setup(
        SETUP_REPS,
        |r| {
            let dir = store_dir(r).display().to_string();
            let args = strings(&["--threads", "2", "--store-dir", &dir]);
            let srv = ServerProc::spawn(&cx.bin, "127.0.0.1:0", &args, &log)?;
            let mut c = connect(&srv.addr)?;
            ok(c.exchange(&format!("LOAD name=am path={path}")))?;
            ok(c.exchange(&refresh(0).1.line("am")))?;
            // Drain the warm-up's store writes so the window pays only
            // for its own.
            ok(c.exchange("SNAPSHOT"))?;
            Ok((srv, c))
        },
        |(srv, _)| srv.shutdown(),
    )?;
    let dir = store_dir(SETUP_REPS - 1);

    // The trace replays the server's folds with its own shard cache,
    // seeded with the base generation's reference folds.
    let mut tracer = Tracer::new();
    let mut counts = FoldCounts::default();
    let mut sd = ShardedDataset::from_dataset(ds.clone());
    let mut replay_cache: Vec<Option<Arc<ShardFingerprint>>> =
        base_run.shards.iter().cloned().map(Some).collect();
    let mut codec = (Vec::new(), Vec::new());
    let mut all = Lat::default();

    let before = ok(c.exchange("STATS"))?;
    let persisted_before = ok(c.exchange("SNAPSHOT"))?;
    let (_, bytes_before) = store_usage(&dir);
    let mut lat = Lat::default();
    let mut writes = Vec::new();
    let mut answers: Answers<GenKey> = Answers::default();
    let mut tally = Tally::default();
    let mut untimed = Duration::ZERO;
    let mut replay_s = 0.0;
    let mut cycles = 0u64;
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(cx.seconds);
    'window: while Instant::now() < deadline {
        let gen = cycles + 1;
        // Writing the batch file is input generation: not timed.
        let t_gen = Instant::now();
        let batch = inputs::append_batch(cx.seed, gen, ROWS, D);
        let file = cx.work.path(&format!("append{gen}.csv"));
        write_csv(&file, D, &batch).map_err(|e| e.to_string())?;
        untimed += t_gen.elapsed();

        let t0 = Instant::now();
        let reply = c.request(&format!("APPEND name=am path={}", file.display()));
        tally.attempt();
        match reply.as_deref().map(|l| l.starts_with("OK")) {
            Ok(true) => writes.push(ms(t0.elapsed())),
            Ok(false) => {
                tally.fail(Failure::ErrReply, 1);
                break 'window;
            }
            Err(_) => {
                tally.fail(Failure::Transport, 1);
                break 'window;
            }
        }
        let _ = std::fs::remove_file(&file);
        cycles += 1;
        let ks = inputs::append_warm_ks(cx.seed, gen);
        let warm = [
            QueryKey::mh(seed, ks[0]),
            QueryKey {
                lsh: true,
                ..QueryKey::mh(seed, ks[1])
            },
        ];
        let mut replayed = None;
        for (j, key) in std::iter::once(refresh(gen).1).chain(warm).enumerate() {
            let line = key.line("am");
            let (rtt, reply) = timed_query(&mut c, &line);
            tally.attempt();
            let r = match reply {
                Ok(r) => r,
                Err(f) => {
                    tally.fail(f, 1);
                    break 'window;
                }
            };
            if j == 0 {
                lat.push(rtt, &r);
            }
            all.push(rtt, &r);
            answers.record((gen, key), &r.answer);
            if cx.trace {
                let t1 = Instant::now();
                let root = tracer.begin(gen, "replay");
                layers::protocol(&mut tracer, gen, &line, &r.answer);
                if j == 0 {
                    sd.push_shard(Dataset::from_flat(D, batch.clone()));
                    let rp = layers::fingerprint(
                        &mut tracer,
                        gen,
                        &sd,
                        seed,
                        &replay_cache,
                        &mut counts,
                    );
                    replay_cache = rp.shards.iter().cloned().map(Some).collect();
                    let (enc, dec) = layers::persist_codec(&rp.shards);
                    codec.0.push(enc);
                    codec.1.push(dec);
                    replayed = Some(rp.fp);
                }
                if let Some(fp) = &replayed {
                    layers::select(&mut tracer, gen, fp, &key);
                }
                tracer.end(root);
                replay_s += t1.elapsed().as_secs_f64();
            }
        }
    }
    let wall_s = (start.elapsed() - untimed).as_secs_f64();
    let after = ok(c.exchange("STATS"))?;
    let t_snap = Instant::now();
    let persisted_after = ok(c.exchange("SNAPSHOT"))?;
    let snapshot_ms = ms(t_snap.elapsed());
    rep.set("server_rss_mb", srv.peak_rss_mib()?);
    drop(c);
    srv.shutdown()?;

    // References: the same appends in process, each refresh reusing the
    // previous generation's folds exactly as the server does.
    let t_verify = Instant::now();
    let mut ref_sd = ShardedDataset::from_dataset(ds);
    let mut run = base_run;
    let mut refs: HashMap<u64, Fingerprint> = HashMap::new();
    for gen in 1..=cycles {
        ref_sd.push_shard(Dataset::from_flat(
            D,
            inputs::append_batch(cx.seed, gen, ROWS, D),
        ));
        let cached: Vec<_> = run.shards.iter().cloned().map(Some).collect();
        run = reference_run(&ref_sd, seed, &cached, cx.threads);
        refs.insert(gen, run.fingerprint.clone());
    }
    answers.verify(|(gen, key)| reference_answer(&refs[gen], key), &mut tally);
    rep.note(format!(
        "verification: {:.2} s",
        t_verify.elapsed().as_secs_f64()
    ));

    primary_metrics(&mut rep, &lat, wall_s, TAIL_Q, setup_s);
    stats_metrics(&mut rep, &before, &after);
    rep.set("write_p50_ms", median(&writes));
    let persisted = |s: &str| {
        s.split("persisted=")
            .nth(1)
            .and_then(|v| v.trim().parse::<u64>().ok())
            .unwrap_or(0)
    };
    rep.set(
        "store.persisted",
        persisted(&persisted_after).saturating_sub(persisted(&persisted_before)) as f64,
    );
    let (files, bytes_after) = store_usage(&dir);
    let written = bytes_after.saturating_sub(bytes_before);
    // Live: the artefacts of the final generation, by their key.
    let hash = content_hash(&ref_sd);
    let (_, prefs_key) = parse_prefs(None, D)?;
    let live: u64 = (0..ref_sd.num_shards())
        .map(|shard| {
            let key = StoreKey {
                dataset_hash: hash,
                shard,
                prefs_hash: prefs_hash(&prefs_key),
                t: inputs::T,
                seed,
            };
            std::fs::metadata(dir.join(key.file_name())).map_or(0, |m| m.len())
        })
        .sum();
    rep.set("store.bytes_written", written as f64);
    rep.set("store.write_amp", written as f64 / live.max(1) as f64);
    rep.set("store.snapshot_ms", snapshot_ms);
    rep.note(format!(
        "append cycles: {cycles}; store holds {files} artefacts, {bytes_after} bytes; {live} bytes live at the end"
    ));
    if cx.trace {
        span_metrics(
            &mut rep,
            &tracer,
            lat.rtt.len(),
            &all,
            (replay_s, wall_s),
            None,
        );
        fold_metrics(&mut rep, &counts, lat.rtt.len());
        rep.set("persist.encode_ms", median(&codec.0));
        rep.set("persist.decode_ms", median(&codec.1));
        write_spans(cx, "append_mix", &tracer)?;
    }
    rep.tally = tally;
    Ok(rep)
}

// ---------------------------------------------------------------------
// cluster_fanout
// ---------------------------------------------------------------------

/// Two free loopback ports, chosen from the seed so that rendezvous
/// placement gives each worker `shards / 2` shards: with ephemeral
/// ports the split (2/2, 3/1 or 4/0) would vary from run to run, and
/// the slowest worker sets every query's time.
fn worker_ports(seed: u64, shards: usize) -> Result<[String; 2], String> {
    let mut rng = Rng::stream(seed, 40);
    for _ in 0..1000 {
        let ports = [rng.range(20_000, 59_999), rng.range(20_000, 59_999)];
        if ports[0] == ports[1] {
            continue;
        }
        let nodes = ports.map(|p| format!("127.0.0.1:{p}"));
        let on_first = (0..shards)
            .filter(|&s| skydiver_cluster::rendezvous::owners(&nodes, s, 1)[0] == nodes[0])
            .count();
        let free = ports
            .iter()
            .all(|&p| std::net::TcpListener::bind(("127.0.0.1", p as u16)).is_ok());
        if on_first * 2 == shards && free {
            return Ok(nodes);
        }
    }
    Err("no free balanced worker ports".into())
}

fn cluster_fanout(cx: &Cx) -> Result<Report, String> {
    const N: usize = 50_000;
    const D: usize = 3;
    const SHARDS: usize = 4;
    const SETUP_REPS: usize = 5;
    const TAIL_Q: f64 = 0.75;
    let mut rep = Report::default();
    let (ds, path) = dataset(cx, "cluster.csv", N, D, 50)?;
    let sd = ShardedDataset::partition(&ds, SHARDS);
    let warm_key = QueryKey::mh(inputs::fresh_seed(cx.seed, 51, 0), 10);
    type Procs = (Vec<ServerProc>, Client, [String; 2]);
    let ((procs, mut c, nodes), setup_s) = setup(
        SETUP_REPS,
        |r| -> Result<Procs, String> {
            let nodes = worker_ports(cx.seed.wrapping_add(r as u64), SHARDS)?;
            let mut procs = Vec::new();
            for (i, node) in nodes.iter().enumerate() {
                let log = cx.work.path(&format!("worker{i}.log"));
                let args = strings(&["--threads", "2", "--cache-bytes", SMALL_CACHE]);
                procs.push(ServerProc::spawn(&cx.bin, node, &args, &log)?);
            }
            let workers = nodes.join(",");
            let args = strings(&[
                "--threads",
                "2",
                "--cache-bytes",
                SMALL_CACHE,
                "--workers",
                &workers,
                "--replication",
                "1",
                "--cluster-shards",
                "4",
            ]);
            let coord =
                ServerProc::spawn(&cx.bin, "127.0.0.1:0", &args, &cx.work.path("coord.log"))?;
            let mut c = connect(&coord.addr)?;
            procs.insert(0, coord);
            ok(c.exchange(&format!("LOAD name=cf path={path}")))?;
            ok(c.exchange(&warm_key.line("cf")))?;
            Ok((procs, c, nodes))
        },
        |(procs, _, _)| procs.into_iter().try_for_each(ServerProc::shutdown),
    )?;

    let before = ok(c.exchange("STATS"))?;
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(cx.seconds);
    let mut counts = FoldCounts::default();
    let mut frame_us = Vec::new();
    let mut slowest = Vec::new();
    let owners: Vec<usize> = (0..SHARDS)
        .map(|s| {
            let owner = &skydiver_cluster::rendezvous::owners(&nodes, s, 1)[0];
            nodes.iter().position(|n| n == owner).unwrap_or(0)
        })
        .collect();
    let mut main = closed_loop(
        &mut c,
        deadline,
        cx.trace,
        |i| {
            let k = QueryKey::mh(inputs::fresh_seed(cx.seed, 52, i), 10);
            (k, k.line("cf"))
        },
        |tr, i, key, _| {
            let before_spans = tr.spans().len();
            let r = layers::fingerprint(tr, i, &sd, key.seed, &[], &mut counts);
            frame_us.push(tr.leaf(i, "cluster.frame", || {
                layers::cluster_frame(D, &r.fp.skyline, &r.cols_flat)
            }));
            layers::select(tr, i, &r.fp, key);
            // The slowest owner's folds, summed per owner.
            let mut per_owner = [0u64; 2];
            let folds = tr.spans()[before_spans..]
                .iter()
                .filter(|s| s.name == "minhash.fold");
            for (shard, span) in folds.enumerate() {
                per_owner[owners[shard]] += span.end_ns - span.start_ns;
            }
            slowest.push(*per_owner.iter().max().unwrap_or(&0) as f64 / 1e6);
        },
    );
    let wall_s = start.elapsed().as_secs_f64();
    let after = ok(c.exchange("STATS"))?;
    let mut rss = 0.0;
    for p in &procs {
        rss += p.peak_rss_mib()?;
    }
    rep.set("server_rss_mb", rss);
    drop(c);
    procs.into_iter().try_for_each(ServerProc::shutdown)?;

    let t_verify = Instant::now();
    let mut memo = HashMap::new();
    main.answers.verify(
        |key| {
            let fp = memo
                .entry(key.seed)
                .or_insert_with(|| reference_run(&sd, key.seed, &[], cx.threads).fingerprint);
            reference_answer(fp, key)
        },
        &mut main.tally,
    );
    rep.note(format!(
        "verification: {:.2} s",
        t_verify.elapsed().as_secs_f64()
    ));
    primary_metrics(&mut rep, &main.lat, wall_s, TAIL_Q, setup_s);
    stats_metrics(&mut rep, &before, &after);
    let queries = delta(&before, &after, "queries").max(1) as f64;
    rep.set(
        "cluster.legs_per_query",
        delta(&before, &after, "fanout_legs") as f64 / queries,
    );
    rep.set(
        "cluster.fanout_retries",
        delta(&before, &after, "fanout_retries") as f64,
    );
    rep.set(
        "cluster.fanout_failures",
        delta(&before, &after, "fanout_failures") as f64,
    );
    if cx.trace {
        let replayed = main.lat.rtt.len();
        // The workers fold in parallel: the slowest owner is the path.
        let path = Some(slowest.iter().sum());
        span_metrics(
            &mut rep,
            &main.tracer,
            replayed,
            &main.lat,
            (main.replay_s, wall_s),
            path,
        );
        fold_metrics(&mut rep, &counts, replayed);
        rep.set("cluster.frame_us", median(&frame_us));
        // Replays run once per good reply, in order, like `lat.rtt`.
        let overhead: Vec<f64> = main
            .lat
            .rtt
            .iter()
            .zip(&slowest)
            .map(|(r, s)| r - s)
            .collect();
        rep.set("cluster.coord_overhead_ms", median(&overhead));
        write_spans(cx, "cluster_fanout", &main.tracer)?;
    }
    rep.tally = main.tally;
    Ok(rep)
}
