//! Wire-level tests of the cold query path: the per-generation skyline
//! memo and the fold thread rule change no reply byte.
//!
//! An uncapped cold fold runs on every available core; a query with a
//! `max_dominance_tests` cap keeps the sequential row-order scan. Both
//! may start from a memoised skyline. The degraded payload of a capped
//! query must equal a single-threaded library run, skyline memo or not.

use skydiver::data::generators::anticorrelated;
use skydiver::data::ShardedDataset;
use skydiver::serve::protocol::{json_bool, json_u64, json_u64_array, Method, QuerySpec};
use skydiver::serve::{Client, Server, ServerConfig, ServerHandle};
use skydiver::{Preference, RunBudget, SkyDiver};

const T: usize = 64;

fn start() -> ServerHandle {
    let handle = Server::bind(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        threads: 1,
        cache_bytes: 64 << 20,
        ..ServerConfig::default()
    })
    .expect("bind")
    .spawn()
    .expect("spawn");
    handle
        .registry()
        .insert_dataset("ant", anticorrelated(20_000, 3, 33));
    handle
}

fn spec(k: usize, seed: u64) -> QuerySpec {
    let mut s = QuerySpec::new("ant", k);
    s.t = T;
    s.seed = seed;
    s
}

/// A reply minus its timing fields (`*_ms` vary run to run).
fn det_fields(reply: &str) -> String {
    reply
        .split(',')
        .filter(|part| !part.contains("_ms\":"))
        .collect::<Vec<_>>()
        .join(",")
}

fn stat(client: &mut Client, key: &str) -> u64 {
    let stats = client.stats().expect("stats");
    json_u64(&stats, key).unwrap_or_else(|| panic!("{key} missing from {stats}"))
}

/// The status string of a degraded reply.
fn status(reply: &str) -> &str {
    let open = "\"status\":\"";
    let start = reply.find(open).expect("status field") + open.len();
    &reply[start..start + reply[start..].find('"').expect("status close")]
}

#[test]
fn capped_payload_matches_a_single_threaded_run_with_or_without_the_memo() {
    let mut sd = ShardedDataset::new(3);
    sd.push_shard(anticorrelated(20_000, 3, 33));
    let prefs = Preference::all_min(3);
    let m = SkyDiver::new(2)
        .signature_size(T)
        .fingerprint_sharded(&sd, &prefs)
        .expect("reference")
        .fingerprint
        .m() as u64;
    let (k, seed) = (5, 6);

    for cap in [3 * m, 2_000 * m + 1] {
        let mut capped = spec(k, seed);
        capped.max_dominance_tests = Some(cap);

        // The capped query on a cold skyline...
        let cold = start();
        let mut client = Client::connect(cold.addr()).expect("connect");
        let cold_reply = client.query(&capped).expect("cold capped query");
        assert_eq!(stat(&mut client, "skyline_misses"), 1);
        client.shutdown().expect("shutdown");
        cold.join().expect("join");

        // ...and after an uncapped query memoised the skyline.
        let warm = start();
        let mut client = Client::connect(warm.addr()).expect("connect");
        client.query(&spec(k, seed + 1)).expect("warming query");
        let warm_reply = client.query(&capped).expect("warm capped query");
        assert_eq!(stat(&mut client, "skyline_hits"), 1, "cap {cap}");
        client.shutdown().expect("shutdown");
        warm.join().expect("join");

        assert_eq!(
            det_fields(&cold_reply),
            det_fields(&warm_reply),
            "cap {cap}"
        );

        // Both equal the library's single-threaded run under the cap.
        let budget = RunBudget::none().with_max_dominance_tests(cap);
        let run = SkyDiver::new(2)
            .signature_size(T)
            .hash_seed(seed)
            .threads(1)
            .budget(budget.clone())
            .fingerprint_sharded_with(&sd, &prefs, &[])
            .expect("library fingerprint");
        let want = SkyDiver::new(k)
            .signature_size(T)
            .hash_seed(seed)
            .threads(1)
            .budget(budget)
            .select_from(&run.fingerprint)
            .expect("library selection");
        assert!(want.degradation.is_degraded(), "cap {cap} must trip");
        assert_eq!(json_bool(&warm_reply, "degraded"), Some(true));
        assert_eq!(status(&warm_reply), want.degradation.summary(), "cap {cap}");
        assert_eq!(json_u64(&warm_reply, "skyline"), Some(m));
        assert_eq!(
            json_u64(&warm_reply, "dominance_tests"),
            Some(run.dominance_tests)
        );
        let selected: Vec<u64> = want.selected.iter().map(|&i| i as u64).collect();
        assert_eq!(json_u64_array(&warm_reply, "selected"), Some(selected));
    }
}

#[test]
fn fresh_seeds_and_greedy_read_the_memoised_skyline() {
    let handle = start();
    let mut client = Client::connect(handle.addr()).expect("connect");
    let direct = |seed: u64| {
        SkyDiver::new(5)
            .signature_size(T)
            .hash_seed(seed)
            .run(&anticorrelated(20_000, 3, 33), &Preference::all_min(3))
            .expect("direct run")
            .selected
            .iter()
            .map(|&i| i as u64)
            .collect::<Vec<_>>()
    };
    for seed in [11, 12, 13] {
        let reply = client.query(&spec(5, seed)).expect("query");
        assert_eq!(json_bool(&reply, "cached"), Some(false), "seed {seed}");
        assert_eq!(json_u64_array(&reply, "selected"), Some(direct(seed)));
    }
    assert_eq!(stat(&mut client, "skyline_misses"), 1);
    assert_eq!(stat(&mut client, "skyline_hits"), 2);

    // The exact greedy path answers from the same memo, identically to
    // a server that computes the skyline for it.
    let mut greedy = spec(4, 11);
    greedy.method = Method::Greedy;
    let warm = client.query(&greedy).expect("greedy query");
    assert_eq!(stat(&mut client, "skyline_hits"), 3);
    client.shutdown().expect("shutdown");
    handle.join().expect("join");

    let cold = start();
    let mut client = Client::connect(cold.addr()).expect("connect");
    let reply = client.query(&greedy).expect("cold greedy query");
    assert_eq!(stat(&mut client, "skyline_misses"), 1);
    client.shutdown().expect("shutdown");
    cold.join().expect("join");
    assert_eq!(det_fields(&warm), det_fields(&reply));
}
