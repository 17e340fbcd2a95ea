//! Tests of the benchmark itself: its inputs, its statistics, its span
//! arithmetic and its failure accounting.

use skydiver_data::ShardedDataset;
use skydiver_servebench::inputs::{self, ant, write_csv, QueryKey, Rng, WarmStream};
use skydiver_servebench::report::{Report, END_TO_END, PER_LAYER};
use skydiver_servebench::stats::{beyond, quantile, tail_percentile, TAIL_CANDIDATES};
use skydiver_servebench::trace::{self_times, Span, Tracer};
use skydiver_servebench::verify::{
    check_query_reply, reference_answer, reference_run, Answers, Failure, Tally,
};

fn tmp(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(name)
}

fn warm_lines(seed: u64, conn: u64, n: usize) -> Vec<String> {
    WarmStream::new(seed, conn)
        .take(n)
        .map(|k| k.line("ws"))
        .collect()
}

#[test]
fn same_seed_gives_byte_identical_datasets_and_request_lines() {
    for seed in [1u64, 7, 1 << 40] {
        let a = ant(2_000, 4, 0.5, &mut Rng::stream(seed, 10));
        let b = ant(2_000, 4, 0.5, &mut Rng::stream(seed, 10));
        let (pa, pb) = (tmp(&format!("a{seed}.csv")), tmp(&format!("b{seed}.csv")));
        write_csv(&pa, 4, &a).unwrap();
        write_csv(&pb, 4, &b).unwrap();
        assert_eq!(std::fs::read(&pa).unwrap(), std::fs::read(&pb).unwrap());
        assert_eq!(
            inputs::append_batch(seed, 3, 500, 4),
            inputs::append_batch(seed, 3, 500, 4)
        );
        assert_eq!(warm_lines(seed, 0, 2_000), warm_lines(seed, 0, 2_000));
        assert_eq!(inputs::hot_keys(seed), inputs::hot_keys(seed));
        assert_eq!(
            inputs::append_warm_ks(seed, 5),
            inputs::append_warm_ks(seed, 5)
        );
    }
    // Another seed, or another connection, is another stream.
    assert_ne!(warm_lines(1, 0, 100), warm_lines(2, 0, 100));
    assert_ne!(warm_lines(1, 0, 100), warm_lines(1, 1, 100));
}

#[test]
fn csv_round_trips_every_bit() {
    let flat = ant(500, 3, 0.5, &mut Rng::stream(3, 4));
    let path = tmp("round.csv");
    write_csv(&path, 3, &flat).unwrap();
    let back: Vec<f64> = std::fs::read_to_string(&path)
        .unwrap()
        .lines()
        .flat_map(|l| {
            l.split(',')
                .map(|v| v.parse::<f64>().unwrap())
                .collect::<Vec<_>>()
        })
        .collect();
    assert_eq!(
        flat.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        back.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
    );
}

#[test]
fn warm_stream_mixes_hot_and_fresh_keys() {
    let hot = inputs::hot_keys(9);
    assert_eq!(hot.len(), inputs::HOT_KEYS);
    let keys: Vec<QueryKey> = WarmStream::new(9, 0).take(20_000).collect();
    let hot_share = keys.iter().filter(|k| hot.contains(k)).count() as f64 / keys.len() as f64;
    assert!(
        (hot_share - inputs::HOT_SHARE).abs() < 0.02,
        "hot share {hot_share}"
    );
    let seeds = inputs::warm_seeds(9);
    assert!(keys
        .iter()
        .all(|k| seeds.contains(&k.seed) && (5..=200).contains(&k.k)));
    let distinct: std::collections::HashSet<_> = keys.iter().collect();
    assert!(
        distinct.len() > 256,
        "the key space must outgrow the selection memo"
    );
}

#[test]
fn fresh_seeds_never_repeat() {
    let seeds: std::collections::HashSet<u64> =
        (0..10_000).map(|i| inputs::fresh_seed(5, 22, i)).collect();
    assert_eq!(seeds.len(), 10_000);
}

#[test]
fn tail_rule_picks_the_highest_percentile_with_ten_beyond() {
    assert_eq!(beyond(1000, 0.99), 10);
    assert_eq!(beyond(999, 0.99), 9);
    assert_eq!(tail_percentile(1000, TAIL_CANDIDATES, 10), Some(0.99));
    assert_eq!(tail_percentile(999, TAIL_CANDIDATES, 10), Some(0.98));
    assert_eq!(tail_percentile(500, TAIL_CANDIDATES, 10), Some(0.98));
    assert_eq!(tail_percentile(100, TAIL_CANDIDATES, 10), Some(0.9));
    assert_eq!(tail_percentile(29, TAIL_CANDIDATES, 10), Some(0.65));
    assert_eq!(tail_percentile(15, TAIL_CANDIDATES, 10), None);
    // Exhaustively: the pick leaves ≥ 10 beyond, the next candidate up
    // does not.
    for n in 20..5_000 {
        let q = tail_percentile(n, TAIL_CANDIDATES, 10).unwrap();
        assert!(beyond(n, q) >= 10);
        if let Some(&up) = TAIL_CANDIDATES.iter().find(|&&c| c > q) {
            assert!(beyond(n, up) < 10, "n={n}: {up} also has 10 beyond");
        }
    }
    // The reported value is the nearest-rank quantile.
    let sample: Vec<f64> = (1..=1000).map(f64::from).collect();
    assert_eq!(quantile(&sample, 0.99), 990.0);
    assert_eq!(sample.iter().filter(|&&v| v > 990.0).count(), 10);
}

fn span(parent: Option<usize>, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
    Span {
        parent,
        req: 1,
        name,
        start_ns,
        end_ns,
        arg: 0,
    }
}

#[test]
fn self_time_subtracts_the_union_of_children() {
    let spans = vec![
        span(None, "replay", 0, 100),
        span(Some(0), "a", 10, 40),
        span(Some(0), "b", 30, 60), // overlaps a: the union counts once
        span(Some(1), "a.inner", 20, 25),
        span(Some(0), "late", 90, 130), // clipped to its parent's end
    ];
    assert_eq!(self_times(&spans), vec![100 - 50 - 10, 25, 30, 5, 40]);

    let mut tr = Tracer::new();
    for s in spans {
        tr.push(s);
    }
    let by_name = tr.self_by_name();
    assert_eq!(by_name["replay"], vec![40]);
    assert_eq!(by_name["a"], vec![25]);
}

#[test]
fn tracer_nests_spans_and_absorbs_another() {
    let mut tr = Tracer::new();
    let root = tr.begin(7, "replay");
    tr.leaf(7, "canonical", || std::hint::black_box(1 + 1));
    tr.end(root);
    let mut other = Tracer::new();
    let r2 = other.begin(8, "replay");
    other.leaf(8, "skyline.sfs", || ());
    other.end(r2);
    tr.absorb(other);
    let parents: Vec<Option<usize>> = tr.spans().iter().map(|s| s.parent).collect();
    assert_eq!(parents, vec![None, Some(0), None, Some(2)]);
    let selfs = self_times(tr.spans());
    for (i, s) in tr.spans().iter().enumerate() {
        assert!(selfs[i] <= s.end_ns - s.start_ns);
    }
}

fn reply_line(answer: &str, degraded: bool) -> String {
    format!(
        "OK {{\"dataset\":\"d\",\"k\":5,\"method\":\"mh\",\"cached\":true,\"skyline\":9,{answer},\
         \"fingerprint_ms\":0.000,\"selection_ms\":0.120,\"total_ms\":0.150,\"memory_bytes\":1,\
         \"dominance_tests\":0,\"degraded\":{degraded},\"status\":\"complete\"}}\n"
    )
}

#[test]
fn an_injected_wrong_answer_is_counted_as_failed() {
    let data = ant(600, 3, 0.5, &mut Rng::stream(2, 3));
    let sd = ShardedDataset::partition(&skydiver_data::Dataset::from_flat(3, data), 2);
    let key = QueryKey::mh(11, 5);
    let fp = reference_run(&sd, key.seed, &[], 1).fingerprint;
    let right = reference_answer(&fp, &key);

    let mut tally = Tally::default();
    let mut answers = Answers::default();
    let mut feed = |line: String| {
        tally.attempt();
        match check_query_reply(Ok(line)) {
            Ok(r) => answers.record(key, &r.answer),
            Err(f) => tally.fail(f, 1),
        }
    };
    for _ in 0..3 {
        feed(reply_line(&right, false));
    }
    // The same answer with its first two picks swapped: a wrong answer
    // injected here, in the test, not in the program.
    let mut ids: Vec<&str> = right["\"selected\":[".len()..right.find(']').unwrap()]
        .split(',')
        .collect();
    ids.swap(0, 1);
    let wrong = format!(
        "\"selected\":[{}]{}",
        ids.join(","),
        &right[right.find(']').unwrap() + 1..]
    );
    assert_ne!(wrong, right);
    feed(reply_line(&wrong, false));
    feed(reply_line(&right, true));
    feed("ERR unknown dataset\n".to_string());
    answers.verify(|_| right.clone(), &mut tally);
    tally.attempt();
    if let Err(f) = check_query_reply(Err(std::io::Error::other("connection reset"))) {
        tally.fail(f, 1);
    }

    assert_eq!(tally.attempted, 7);
    assert_eq!(tally.failed[&Failure::WrongAnswer], 1);
    assert_eq!(tally.failed[&Failure::Degraded], 1);
    assert_eq!(tally.failed[&Failure::ErrReply], 1);
    assert_eq!(tally.failed[&Failure::Transport], 1);
    assert_eq!(tally.failed_total(), 4);

    let mut report = Report {
        tally,
        ..Report::default()
    };
    report.set("failed_share", 4.0 / 7.0);
    let line = report.json(PER_LAYER, false);
    assert!(line.starts_with("{\"correct\": false, \"attempted\": 7, \"failed\": 4, "));
    assert!(line.contains("\"failed_share\": {\"value\": 0.5714285714285714, \"unit\": \"ratio\"}"));
}

#[test]
fn the_result_line_names_every_metric_with_its_unit() {
    let mut report = Report::default();
    report.tally.attempt();
    report.set("qps", 12.5);
    for list in [END_TO_END, PER_LAYER] {
        let line = report.json(list, true);
        for (name, unit) in list {
            assert!(
                line.contains(&format!("\"{name}\": {{\"value\": ")),
                "{name} missing from {line}"
            );
            assert!(line.contains(&format!("\"unit\": \"{unit}\"")));
        }
    }
    assert!(report
        .json(END_TO_END, true)
        .contains("\"qps\": {\"value\": 12.5, \"unit\": \"1/s\"}"));
    let names: std::collections::HashSet<&str> = END_TO_END
        .iter()
        .chain(PER_LAYER)
        .map(|(n, _)| *n)
        .collect();
    assert_eq!(
        names.len(),
        END_TO_END.len() + PER_LAYER.len(),
        "names are unique"
    );
}
