//! Shard-equivalence property suite (PR 4).
//!
//! MinHash slot-wise minima and Γ-score sums are associative and
//! commutative, and every shard hashes **global** row ids — so folding a
//! dataset shard-by-shard and merging must be **bit-identical** to the
//! monolithic index-free pass for *every* contiguous partition of the
//! rows: same signature matrix, same Γ-scores, same skyline. These
//! properties drive random partitions (including empty shards) through
//! the public facade, sequential and parallel, cold and cached, with and
//! without a tripped dominance budget.
//!
//! Harness idiom follows `proptests.rs`: a seeded splitmix64 stream over
//! a coarse coordinate grid (`g/7` for `g ∈ 0..8`) to force ties and
//! duplicates, failure messages carrying the case seed.

use skydiver::data::ShardedDataset;
use skydiver::{Dataset, Preference, RunBudget, SkyDiver};

/// Cases per property — partitions are cheap but each case runs the
/// monolithic reference too, so stay a notch under `proptests.rs`.
const CASES: u64 = 48;

/// splitmix64 — the same tiny generator the vendored `rand` shim seeds
/// with; good enough to scatter grid points and cut positions.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.wrapping_add(0x9e37_79b9_7f4a_7c15))
    }
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
    /// Uniform in `[lo, hi)`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo)
    }
}

/// A dataset of `1..max_n` points on the coarse grid.
fn grid_dataset(rng: &mut Rng, max_n: u64, dims: usize) -> Dataset {
    let n = rng.range(1, max_n);
    let mut flat = Vec::with_capacity(n as usize * dims);
    for _ in 0..n * dims as u64 {
        flat.push(rng.range(0, 8) as f64 / 7.0);
    }
    Dataset::from_flat(dims, flat)
}

/// Splits `ds` at `cuts - 1` random positions (duplicates allowed, so
/// some shards may be empty) — a strictly harsher partition space than
/// [`ShardedDataset::partition`]'s near-equal split.
fn random_partition(rng: &mut Rng, ds: &Dataset, cuts: usize) -> ShardedDataset {
    let n = ds.len();
    let mut bounds: Vec<usize> = (0..cuts - 1)
        .map(|_| rng.range(0, n as u64 + 1) as usize)
        .collect();
    bounds.push(0);
    bounds.push(n);
    bounds.sort_unstable();
    let mut sd = ShardedDataset::new(ds.dims());
    for w in bounds.windows(2) {
        let mut shard = Dataset::with_capacity(ds.dims(), w[1] - w[0]);
        for r in w[0]..w[1] {
            shard.push(ds.point(r));
        }
        sd.push_shard(shard);
    }
    sd
}

#[test]
fn random_partitions_fold_bit_identically() {
    for case in 0..CASES {
        let mut rng = Rng::new(case);
        let ds = grid_dataset(&mut rng, 240, 3);
        let prefs = Preference::all_min(3);
        let pipe = SkyDiver::new(2).signature_size(24).hash_seed(case);
        let reference = pipe
            .fingerprint(&ds, &prefs)
            .expect("reference fingerprint");

        let shards = rng.range(1, 9) as usize;
        let sd = random_partition(&mut rng, &ds, shards);
        assert_eq!(sd.len(), ds.len(), "case {case}: partition loses rows");

        for threads in [1usize, 3] {
            let run = pipe
                .clone()
                .threads(threads)
                .fingerprint_sharded(&sd, &prefs)
                .expect("sharded fingerprint");
            let fp = &run.fingerprint;
            assert!(fp.is_complete(), "case {case}: unlimited run tripped");
            assert_eq!(
                fp.skyline, reference.skyline,
                "case {case}, threads {threads}"
            );
            assert_eq!(
                fp.output.matrix, reference.output.matrix,
                "case {case}, threads {threads}, {shards} shards: matrix diverged"
            );
            assert_eq!(
                fp.output.scores, reference.output.scores,
                "case {case}, threads {threads}, {shards} shards: Γ-scores diverged"
            );
            assert_eq!(
                run.shards.len(),
                sd.num_shards(),
                "case {case}: fold per shard"
            );
        }
    }
}

#[test]
fn cached_shard_folds_change_nothing() {
    for case in 0..CASES {
        let mut rng = Rng::new(0x5eed ^ case);
        let ds = grid_dataset(&mut rng, 200, 3);
        let prefs = Preference::all_min(3);
        let pipe = SkyDiver::new(2).signature_size(16).hash_seed(case);
        let shards = rng.range(1, 6) as usize;
        let sd = random_partition(&mut rng, &ds, shards);

        let cold = pipe.fingerprint_sharded(&sd, &prefs).expect("cold run");
        let cached: Vec<_> = cold.shards.iter().cloned().map(Some).collect();
        let warm = pipe
            .fingerprint_sharded_with(&sd, &prefs, &cached)
            .expect("warm run");

        assert_eq!(
            warm.reused_shards,
            sd.num_shards(),
            "case {case}: exact-fit reuse"
        );
        assert_eq!(warm.scanned_rows, 0, "case {case}: nothing left to scan");
        assert_eq!(
            warm.fingerprint.skyline, cold.fingerprint.skyline,
            "case {case}"
        );
        assert_eq!(
            warm.fingerprint.output.matrix, cold.fingerprint.output.matrix,
            "case {case}: cached merge diverged"
        );
        assert_eq!(
            warm.fingerprint.output.scores, cold.fingerprint.output.scores,
            "case {case}: cached Γ-scores diverged"
        );
    }
}

#[test]
fn budget_trips_identically_on_sequential_folds() {
    // Contiguous shards preserve row order, so the *sequential* fold
    // charges the budget in exactly the monolithic order — a trip lands
    // on the same row and the partial artefacts must still match bit
    // for bit. (Parallel folds only promise bit-identity for complete
    // runs; a trip there stops workers at different rows.)
    let mut tripped_cases = 0u32;
    for case in 0..CASES {
        let mut rng = Rng::new(0x7219 ^ case);
        let ds = grid_dataset(&mut rng, 200, 3);
        let prefs = Preference::all_min(3);
        let limit = rng.range(1, (ds.len() as u64 + 2) * (ds.len() as u64 + 2) / 2);
        let budget = RunBudget::none().with_max_dominance_tests(limit);
        let pipe = SkyDiver::new(2)
            .signature_size(24)
            .hash_seed(case)
            .budget(budget);

        let reference = pipe
            .fingerprint(&ds, &prefs)
            .expect("reference fingerprint");
        let shards = rng.range(2, 9) as usize;
        let sd = random_partition(&mut rng, &ds, shards);
        let run = pipe
            .fingerprint_sharded(&sd, &prefs)
            .expect("sharded fingerprint");
        let fp = &run.fingerprint;

        assert_eq!(
            fp.is_complete(),
            reference.is_complete(),
            "case {case}: trip decision diverged (limit {limit})"
        );
        assert_eq!(fp.skyline, reference.skyline, "case {case}");
        assert_eq!(
            fp.output.matrix, reference.output.matrix,
            "case {case}: partial matrix diverged (limit {limit})"
        );
        assert_eq!(
            fp.output.scores, reference.output.scores,
            "case {case}: partial Γ-scores diverged (limit {limit})"
        );
        if !fp.is_complete() {
            tripped_cases += 1;
            assert!(
                run.shards.is_empty(),
                "case {case}: a curtailed run must never expose cacheable folds"
            );
        }
    }
    assert!(
        tripped_cases >= 4,
        "budget property is vacuous: only {tripped_cases} tripped cases"
    );
}

#[test]
fn appended_shards_extend_old_folds_exactly() {
    // The APPEND algebra end-to-end: fold a base partition, append a
    // fresh shard, and re-fold reusing the old per-shard artefacts. The
    // result must equal a cold fingerprint of the grown dataset, and
    // only the *new* rows (plus any freshly exposed skyline columns over
    // old rows) may be scanned.
    for case in 0..CASES / 2 {
        let mut rng = Rng::new(0xa44 ^ case);
        let base = grid_dataset(&mut rng, 180, 3);
        let block = grid_dataset(&mut rng, 60, 3);
        let prefs = Preference::all_min(3);
        let pipe = SkyDiver::new(2).signature_size(16).hash_seed(case);

        let cuts = rng.range(1, 5) as usize;
        let sd = random_partition(&mut rng, &base, cuts);
        let cold = pipe.fingerprint_sharded(&sd, &prefs).expect("base run");

        let mut grown = ShardedDataset::new(3);
        for i in 0..sd.num_shards() {
            grown.push_shard_arc(sd.shard_arc(i).clone());
        }
        grown.push_shard(block.clone());
        let mut cached: Vec<_> = cold.shards.iter().cloned().map(Some).collect();
        cached.push(None);

        let warm = pipe
            .fingerprint_sharded_with(&grown, &prefs, &cached)
            .expect("append run");

        let mut whole = base.clone();
        for i in 0..block.len() {
            whole.push(block.point(i));
        }
        let reference = pipe.fingerprint(&whole, &prefs).expect("grown reference");

        assert_eq!(warm.fingerprint.skyline, reference.skyline, "case {case}");
        assert_eq!(
            warm.fingerprint.output.matrix, reference.output.matrix,
            "case {case}: append merge diverged"
        );
        assert_eq!(
            warm.fingerprint.output.scores, reference.output.scores,
            "case {case}: append Γ-scores diverged"
        );
        assert!(
            warm.scanned_rows <= block.len() + base.len(),
            "case {case}: warm path rescanned more than the data"
        );
        // No new skyline exposure ⇒ the old shards merge without any
        // rescan and only the appended block is touched.
        if warm.fingerprint.skyline == cold.fingerprint.skyline {
            assert_eq!(
                warm.scanned_rows,
                block.len(),
                "case {case}: skyline unchanged yet old rows were rescanned"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Cross-process cluster determinism (PR 8).
//
// The same merge algebra, but with the shards owned by *separate worker
// processes*: a coordinator fans fingerprint folds out over TCP and
// merges the returned frames. Every answer — cold, warm, appended,
// budget-tripped, after a kill -9 of a replica, after LEAVE + handoff —
// must match the monolithic single-process payload field for field
// (timings excluded).
// ---------------------------------------------------------------------

mod cluster_process {
    use std::process::{Child, Command, Stdio};
    use std::time::Duration;

    use skydiver::data::generators::anticorrelated;
    use skydiver::data::io;
    use skydiver::serve::protocol::{json_bool, json_u64, json_u64_array, QuerySpec};
    use skydiver::serve::{Client, ClusterConfig, Server, ServerConfig, ServerHandle};

    const T: usize = 64;
    const K: usize = 7;

    /// Worker child processes, killed (SIGKILL) on drop so a failing
    /// assertion never leaks servers.
    struct Workers(Vec<(String, Child)>);

    impl Drop for Workers {
        fn drop(&mut self) {
            for (_, child) in &mut self.0 {
                let _ = child.kill();
                let _ = child.wait();
            }
        }
    }

    impl Workers {
        fn addrs(&self) -> Vec<String> {
            self.0.iter().map(|(a, _)| a.clone()).collect()
        }

        /// SIGKILLs one worker (no drain, no goodbye — the crash case).
        fn kill(&mut self, idx: usize) {
            let (_, child) = &mut self.0[idx];
            let _ = child.kill();
            let _ = child.wait();
        }
    }

    fn free_port() -> u16 {
        std::net::TcpListener::bind("127.0.0.1:0")
            .expect("probe port")
            .local_addr()
            .expect("probe addr")
            .port()
    }

    /// Spawns `n` plain `skydiver serve` processes and waits until each
    /// accepts connections.
    fn spawn_workers(n: usize) -> Workers {
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            let addr = format!("127.0.0.1:{}", free_port());
            let child = Command::new(env!("CARGO_BIN_EXE_skydiver"))
                .args(["serve", "--addr", &addr])
                .stdout(Stdio::null())
                .stderr(Stdio::null())
                .spawn()
                .expect("spawn worker process");
            v.push((addr, child));
        }
        for (addr, _) in &v {
            Client::connect_retry(addr.as_str(), 200, Duration::from_millis(25))
                .expect("worker did not come up");
        }
        Workers(v)
    }

    /// An in-process coordinator over `workers` at replication `r`.
    fn start_coordinator(workers: &[String], r: usize) -> ServerHandle {
        Server::bind(&ServerConfig {
            addr: "127.0.0.1:0".into(),
            threads: 2,
            cluster: Some(ClusterConfig {
                workers: workers.to_vec(),
                replication: r,
                shards: 4,
                fanout_timeout_ms: 10_000,
            }),
            ..ServerConfig::default()
        })
        .expect("bind coordinator")
        .spawn()
        .expect("spawn coordinator")
    }

    /// An in-process monolithic reference server.
    fn start_monolithic() -> ServerHandle {
        Server::bind(&ServerConfig {
            addr: "127.0.0.1:0".into(),
            threads: 2,
            ..ServerConfig::default()
        })
        .expect("bind monolithic")
        .spawn()
        .expect("spawn monolithic")
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("skydiver-cluster-{}-{name}", std::process::id()));
        p
    }

    fn spec(seed: u64) -> QuerySpec {
        let mut s = QuerySpec::new("d", K);
        s.t = T;
        s.seed = seed;
        s
    }

    fn json_str(json: &str, key: &str) -> Option<String> {
        let pat = format!("\"{key}\":\"");
        let start = json.find(&pat)? + pat.len();
        let rest = &json[start..];
        Some(rest[..rest.find('"')?].to_string())
    }

    /// Every payload field that must be bit-identical across process
    /// topologies (everything except the timing fields).
    #[derive(Debug, PartialEq)]
    struct Answer {
        selected: Vec<u64>,
        gamma: Vec<u64>,
        skyline: u64,
        dominance_tests: u64,
        cached: bool,
        degraded: bool,
        status: String,
    }

    fn answer(payload: &str) -> Answer {
        Answer {
            selected: json_u64_array(payload, "selected").expect("selected"),
            gamma: json_u64_array(payload, "gamma").expect("gamma"),
            skyline: json_u64(payload, "skyline").expect("skyline"),
            dominance_tests: json_u64(payload, "dominance_tests").expect("dominance_tests"),
            cached: json_bool(payload, "cached").expect("cached"),
            degraded: json_bool(payload, "degraded").expect("degraded"),
            status: json_str(payload, "status").expect("status"),
        }
    }

    fn query(client: &mut Client, s: &QuerySpec) -> Answer {
        answer(&client.query(s).expect("query"))
    }

    /// Acceptance: for K ∈ {1, 2, 4} worker processes and R ∈ {1, 2},
    /// the coordinator's QUERY payload matches the monolithic server
    /// field for field — cold, warm (memoised), and after an APPEND.
    #[test]
    fn cluster_topologies_answer_bit_identically_to_monolithic() {
        let base_csv = tmp("base.csv");
        let block_csv = tmp("block.csv");
        io::write_csv(&anticorrelated(4_000, 3, 77), &base_csv).expect("write base");
        io::write_csv(&anticorrelated(800, 3, 78), &block_csv).expect("write block");
        let base_path = base_csv.to_str().unwrap().to_string();
        let block_path = block_csv.to_str().unwrap().to_string();

        let mono = start_monolithic();
        let mut mc = Client::connect(mono.addr()).expect("connect monolithic");
        mc.load("d", &base_path).expect("monolithic load");
        let cold = query(&mut mc, &spec(5));
        let warm = query(&mut mc, &spec(5));
        assert!(warm.cached && !cold.cached, "monolithic memo sanity");
        mc.append("d", &block_path).expect("monolithic append");
        let grown = query(&mut mc, &spec(9));

        for (nworkers, r) in [(1usize, 1usize), (2, 1), (2, 2), (4, 1), (4, 2)] {
            let workers = spawn_workers(nworkers);
            let coord = start_coordinator(&workers.addrs(), r);
            let mut cc = Client::connect(coord.addr()).expect("connect coordinator");
            cc.load("d", &base_path).expect("cluster load");
            assert_eq!(
                query(&mut cc, &spec(5)),
                cold,
                "cold answer diverged ({nworkers} workers, R={r})"
            );
            assert_eq!(
                query(&mut cc, &spec(5)),
                warm,
                "warm answer diverged ({nworkers} workers, R={r})"
            );
            cc.append("d", &block_path).expect("cluster append");
            assert_eq!(
                query(&mut cc, &spec(9)),
                grown,
                "post-append answer diverged ({nworkers} workers, R={r})"
            );
            cc.shutdown().expect("coordinator shutdown");
        }

        mc.shutdown().expect("monolithic shutdown");
        std::fs::remove_file(base_csv).ok();
        std::fs::remove_file(block_csv).ok();
    }

    /// A dominance-test budget must trip at the same absolute row in the
    /// cluster as in the monolithic run: identical degraded prefix,
    /// identical status string (`used`/`limit` included).
    #[test]
    fn budget_tripped_cluster_prefix_is_identical() {
        let csv = tmp("budget.csv");
        io::write_csv(&anticorrelated(4_000, 3, 90), &csv).expect("write csv");
        let path = csv.to_str().unwrap().to_string();

        let mono = start_monolithic();
        let mut mc = Client::connect(mono.addr()).expect("connect monolithic");
        mc.load("d", &path).expect("monolithic load");
        let mut s = spec(5);
        s.max_dominance_tests = Some(500);
        let reference = query(&mut mc, &s);
        assert!(
            reference.degraded,
            "budget must actually trip: {reference:?}"
        );

        let workers = spawn_workers(2);
        let coord = start_coordinator(&workers.addrs(), 1);
        let mut cc = Client::connect(coord.addr()).expect("connect coordinator");
        cc.load("d", &path).expect("cluster load");
        assert_eq!(query(&mut cc, &s), reference, "tripped prefix diverged");

        cc.shutdown().expect("coordinator shutdown");
        mc.shutdown().expect("monolithic shutdown");
        std::fs::remove_file(csv).ok();
    }

    /// PR 9: transports and batching are topology-invariant. Against a
    /// coordinator-backed cluster, the `SKYWIRE01` binary client, the
    /// pipelined text client and a `BATCH` all answer field-for-field
    /// identically to the monolithic server's sequential `QUERY`s.
    #[test]
    fn cluster_pipelined_binary_and_batch_match_monolithic() {
        use skydiver::serve::protocol::{BatchSpec, Method};

        fn split_results(payload: &str) -> Vec<String> {
            let open = "\"results\":[";
            let start = payload.find(open).expect("results array") + open.len();
            let inner = &payload[start..payload.rfind(']').expect("array close")];
            inner
                .split("},{")
                .map(|s| {
                    let mut obj = s.to_string();
                    if !obj.starts_with('{') {
                        obj.insert(0, '{');
                    }
                    if !obj.ends_with('}') {
                        obj.push('}');
                    }
                    obj
                })
                .collect()
        }

        let csv = tmp("pr9.csv");
        io::write_csv(&anticorrelated(4_000, 3, 92), &csv).expect("write csv");
        let path = csv.to_str().unwrap().to_string();

        let mono = start_monolithic();
        let mut mc = Client::connect(mono.addr()).expect("connect monolithic");
        mc.load("d", &path).expect("monolithic load");
        let cold5 = query(&mut mc, &spec(5));
        let warm5 = query(&mut mc, &spec(5));
        let cold6 = query(&mut mc, &spec(6));
        let warm6 = query(&mut mc, &spec(6));

        let workers = spawn_workers(2);
        let coord = start_coordinator(&workers.addrs(), 1);

        // Binary transport: HELLO, then cold + warm QUERYs.
        let mut bin = Client::connect(coord.addr()).expect("connect binary");
        bin.hello().expect("hello");
        bin.load("d", &path).expect("cluster load");
        assert_eq!(query(&mut bin, &spec(5)), cold5, "binary cold diverged");
        assert_eq!(query(&mut bin, &spec(5)), warm5, "binary warm diverged");

        // Pipelined text: a warm burst, every reply identical in order.
        let mut piped = Client::connect(coord.addr()).expect("connect piped");
        let lines = vec![spec(5).to_line(), spec(5).to_line(), spec(5).to_line()];
        for (i, reply) in piped.pipeline(&lines).expect("pipeline").iter().enumerate() {
            assert_eq!(answer(reply), warm5, "pipelined reply {i} diverged");
        }

        // BATCH under a fresh seed: item 0 pays the cluster fan-out
        // resolve (== the monolithic cold query), item 1 rides it
        // (== the monolithic warm query).
        let mut batch = BatchSpec::new("d", vec![(K, Method::MinHash), (K, Method::MinHash)]);
        batch.t = T;
        batch.seed = 6;
        let payload = bin.batch(&batch).expect("cluster batch");
        let results = split_results(&payload);
        assert_eq!(results.len(), 2, "{payload}");
        assert_eq!(answer(&results[0]), cold6, "batch item 0 diverged");
        assert_eq!(answer(&results[1]), warm6, "batch item 1 diverged");

        bin.shutdown().expect("coordinator shutdown");
        mc.shutdown().expect("monolithic shutdown");
        std::fs::remove_file(csv).ok();
    }

    /// R=2 survives a kill -9: after one replica dies mid-cluster the
    /// answer is still complete and bit-identical; after `LEAVE` retires
    /// the dead node (handing its shards off) it still is.
    #[test]
    fn killed_replica_and_leave_keep_answers_identical() {
        let csv = tmp("kill.csv");
        io::write_csv(&anticorrelated(4_000, 3, 91), &csv).expect("write csv");
        let path = csv.to_str().unwrap().to_string();

        let mono = start_monolithic();
        let mut mc = Client::connect(mono.addr()).expect("connect monolithic");
        mc.load("d", &path).expect("monolithic load");
        let ref5 = query(&mut mc, &spec(5));
        let ref11 = query(&mut mc, &spec(11));
        let ref13 = query(&mut mc, &spec(13));

        let mut workers = spawn_workers(3);
        let coord = start_coordinator(&workers.addrs(), 2);
        let mut cc = Client::connect(coord.addr()).expect("connect coordinator");
        cc.load("d", &path).expect("cluster load");
        assert_eq!(
            query(&mut cc, &spec(5)),
            ref5,
            "healthy-cluster answer diverged"
        );

        workers.kill(0);
        let after_kill = query(&mut cc, &spec(11));
        assert_eq!(
            after_kill, ref11,
            "answer diverged after kill -9 of a replica"
        );
        assert!(!after_kill.degraded, "R=2 must mask a single dead node");

        let dead = workers.addrs()[0].clone();
        cc.exchange(&format!("LEAVE addr={dead}")).expect("leave");
        assert_eq!(
            query(&mut cc, &spec(13)),
            ref13,
            "answer diverged after LEAVE + handoff"
        );

        cc.shutdown().expect("coordinator shutdown");
        mc.shutdown().expect("monolithic shutdown");
        std::fs::remove_file(csv).ok();
    }

    /// `t=0` is refused by core's own check on both paths, so the
    /// coordinator's reply line is byte-identical to the single
    /// process's.
    #[test]
    fn zero_signature_size_error_is_identical() {
        let csv = tmp("zero-t.csv");
        io::write_csv(&anticorrelated(500, 3, 93), &csv).expect("write csv");
        let path = csv.to_str().unwrap().to_string();
        let mut s = spec(5);
        s.t = 0;

        let mono = start_monolithic();
        let mut mc = Client::connect(mono.addr()).expect("connect monolithic");
        mc.load("d", &path).expect("monolithic load");
        let reference = mc.request(&s.to_line()).expect("monolithic reply");
        assert!(reference.starts_with("ERR "), "{reference}");

        let workers = spawn_workers(1);
        let coord = start_coordinator(&workers.addrs(), 1);
        let mut cc = Client::connect(coord.addr()).expect("connect coordinator");
        cc.load("d", &path).expect("cluster load");
        assert_eq!(cc.request(&s.to_line()).expect("cluster reply"), reference);

        cc.shutdown().expect("coordinator shutdown");
        mc.shutdown().expect("monolithic shutdown");
        std::fs::remove_file(csv).ok();
    }

    /// R=1 with a dead owner cannot mask the loss — the query must still
    /// answer (degraded, shard reported unavailable) instead of erroring
    /// or hanging.
    #[test]
    fn dead_owner_without_replica_degrades_gracefully() {
        let csv = tmp("degrade.csv");
        io::write_csv(&anticorrelated(2_000, 3, 92), &csv).expect("write csv");
        let path = csv.to_str().unwrap().to_string();

        let mut workers = spawn_workers(2);
        let coord = start_coordinator(&workers.addrs(), 1);
        let mut cc = Client::connect(coord.addr()).expect("connect coordinator");
        cc.load("d", &path).expect("cluster load");

        workers.kill(0);
        let mut degraded = query(&mut cc, &spec(21));
        if !degraded.degraded {
            // Rendezvous placement can (rarely) put every shard on
            // worker 1 — kill it too so a shard is certainly lost.
            workers.kill(1);
            degraded = query(&mut cc, &spec(22));
        }
        assert!(
            degraded.degraded,
            "lost shard must degrade the answer: {degraded:?}"
        );
        assert!(
            degraded.status.contains("unavailable"),
            "status must name the unreachable shard: {}",
            degraded.status
        );

        cc.shutdown().expect("coordinator shutdown");
        std::fs::remove_file(csv).ok();
    }
}
