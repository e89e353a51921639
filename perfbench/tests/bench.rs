//! Tests of the benchmark itself: determinism of the generated stream,
//! the reported arithmetic, the ground-truth checks, and a short smoke
//! run of every workload against a real `bfd`.

use std::collections::HashSet;
use std::sync::OnceLock;

use browserflow::{ContainmentReceipt, ExfiltrationAlert, FlowEdge, FlowOperation};
use browserflow_daemon::{Reply, WireDecision};
use perfbench::check::{alert_segments, judge, AlertCheck, Ledger, Outcome};
use perfbench::gen::{Expect, Kind, Plan, Workload};
use perfbench::run::{build_bfd, run, Options};
use perfbench::stats::{failed_frac, median, percentile, ratio, Samples};

fn stream(workload: Workload, seed: u64) -> Vec<u8> {
    Plan::generate(workload, seed, 1, true)
        .request_bodies()
        .flatten()
        .collect()
}

#[test]
fn same_seed_gives_a_byte_identical_request_stream() {
    for workload in Workload::ALL {
        let a = stream(workload, 42);
        assert!(!a.is_empty());
        assert_eq!(a, stream(workload, 42), "{workload:?} is not reproducible");
        assert_ne!(a, stream(workload, 43), "{workload:?} ignores its seed");
    }
}

#[test]
fn full_size_plans_are_reproducible_and_sized_by_seconds() {
    let one = Plan::generate(Workload::Relay, 5, 1, false);
    let again = Plan::generate(Workload::Relay, 5, 1, false);
    assert!(one.request_bodies().eq(again.request_bodies()));
    let two = Plan::generate(Workload::Relay, 5, 2, false);
    assert_eq!(two.ops.len(), 2 * one.ops.len());
}

#[test]
fn every_workload_sends_every_request_kind() {
    for workload in Workload::ALL {
        let plan = Plan::generate(workload, 1, 1, true);
        for kind in Kind::ALL {
            assert!(
                plan.ops.iter().any(|op| op.kind == kind),
                "{workload:?} sends no {kind:?}"
            );
        }
        let blocks = plan
            .ops
            .iter()
            .filter(|op| matches!(&op.expect, Expect::Actions(a) if a.contains(&"block")))
            .count();
        assert!(blocks > 0, "{workload:?} never expects a block");
    }
}

#[test]
fn percentiles_interpolate_between_ranks() {
    assert_eq!(percentile(&[], 50.0), None);
    assert_eq!(percentile(&[7.0], 90.0), Some(7.0));
    assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 50.0), Some(2.5));
    assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 0.0), Some(1.0));
    assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 100.0), Some(4.0));
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    let p90 = percentile(&ten, 90.0).unwrap();
    assert!((p90 - 9.1).abs() < 1e-9, "p90 = {p90}");
    assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
    let mut samples = Samples::new();
    for v in [4.0, 1.0, 3.0, 2.0] {
        samples.push(v);
    }
    assert_eq!(samples.percentile(50.0), 2.5);
    assert_eq!(samples.mean(), 2.5);
    assert_eq!(samples.sum(), 10.0);
    assert_eq!(Samples::new().percentile(50.0), 0.0);
}

#[test]
fn ratios_and_failed_fraction() {
    assert_eq!(ratio(3.0, 4.0), 0.75);
    assert_eq!(ratio(3.0, 0.0), 0.0);
    assert_eq!(failed_frac(5, 20), 0.25);
    assert_eq!(failed_frac(0, 20), 0.0);
    assert_eq!(failed_frac(0, 0), 0.0);
}

fn decisions(actions: &[&str]) -> Reply {
    Reply::Decisions {
        decisions: actions
            .iter()
            .map(|a| WireDecision {
                action: a.to_string(),
                violations: Vec::new(),
            })
            .collect(),
        latency_us: 10,
    }
}

#[test]
fn replies_are_judged_against_ground_truth() {
    let want = Expect::Actions(vec!["allow", "block"]);
    assert_eq!(
        judge(&want, &decisions(&["allow", "block"])),
        Outcome::Correct
    );
    assert!(matches!(
        judge(&want, &decisions(&["allow", "allow"])),
        Outcome::Wrong(_)
    ));
    assert!(matches!(judge(&want, &Reply::Observed), Outcome::Error(_)));
    assert_eq!(judge(&Expect::Observed, &Reply::Observed), Outcome::Correct);
    assert_eq!(judge(&want, &Reply::Superseded), Outcome::Superseded);
}

#[test]
fn the_ledger_counts_every_reply() {
    let mut ledger = Ledger::default();
    ledger.record(true, &Outcome::Correct);
    ledger.record(true, &Outcome::Wrong("x".into()));
    ledger.record(true, &Outcome::Superseded);
    ledger.record(true, &Outcome::Backpressure);
    ledger.record(false, &Outcome::Correct);
    assert!(ledger.holds());
    assert_eq!(ledger.sent, 4);
    ledger.record(true, &Outcome::Error("gone".into()));
    assert!(!ledger.holds(), "an error reply is not a decision");
}

fn alert(id: u64, segment: &str) -> ExfiltrationAlert {
    let hop = |source: &str, into: &str| FlowEdge {
        source: source.split('/').next().unwrap().to_string(),
        sink: into.split('/').next().unwrap().to_string(),
        segment: source.to_string(),
        into: into.to_string(),
        operation: FlowOperation::Check,
        clock: id,
    };
    ExfiltrationAlert {
        id,
        sink: "gdocs".into(),
        segment: segment.into(),
        missing_tags: vec!["ti".into()],
        disclosure: 1.0,
        hops: vec![
            hop("itool/src#p0", "wiki/page#p0"),
            hop("wiki/page#p0", segment),
        ],
        clock: id,
        receipt: ContainmentReceipt {
            alert_id: id,
            action: "block".into(),
            hop_clocks: vec![1, 2],
            warning_index: 0,
            audit_len: 0,
        },
    }
}

#[test]
fn alert_segments_are_read_from_the_encoded_reply() {
    let reply = Reply::Alerts {
        alerts: vec![alert(1, "gdocs/r0#p1"), alert(2, "gdocs/r2#p1")],
    };
    let body = serde_json::to_vec(&reply).unwrap();
    let segments = alert_segments(&body).expect("an Alerts reply");
    assert!(segments.contains("gdocs/r0#p1"));
    assert!(segments.contains("gdocs/r2#p1"));
    assert!(!segments.contains("gdocs/r1#p1"));
    let other = serde_json::to_vec(&Reply::Observed).unwrap();
    assert!(alert_segments(&other).is_none());

    let mut check = AlertCheck::new(1);
    check.expect(0, "gdocs/r0#p1".into());
    check.expect(0, "gdocs/r1#p1".into());
    check.verify_segments(0, &segments);
    assert_eq!((check.found, check.missing), (1, 1));
    assert!(check.tenants_pending().is_empty());
}

/// Names listed in one section of the repository's `BENCHMARK.json`.
fn listed(section: &str) -> HashSet<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the package");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let end = body.find(']').expect("section closes");
    body[..end]
        .split("\"name\"")
        .skip(1)
        .map(|rest| {
            let rest = &rest[rest.find('"').unwrap() + 1..];
            rest[..rest.find('"').unwrap()].to_string()
        })
        .collect()
}

fn bfd() -> std::path::PathBuf {
    static BFD: OnceLock<std::path::PathBuf> = OnceLock::new();
    BFD.get_or_init(|| build_bfd().expect("bfd builds")).clone()
}

fn smoke(workload: Workload, trace: bool) {
    let report = run(&Options {
        workload,
        seed: 3,
        seconds: 1,
        trace,
        smoke: true,
        bfd: bfd(),
    })
    .expect("smoke run completes");
    assert!(report.correct, "{workload:?}: {:?}", report.notes);
    assert_eq!(report.failed, 0);
    assert!(report.attempted > 0);
    let json = report.json();
    let section = if trace { "per_layer" } else { "end_to_end" };
    let names = listed(section);
    assert!(!names.is_empty());
    for name in &names {
        assert!(
            json.contains(&format!("\"{name}\": {{\"value\"")),
            "{workload:?} does not report {name}"
        );
    }
    let reported = json.matches("\"value\"").count();
    assert_eq!(
        reported,
        names.len(),
        "{workload:?} reports unlisted metrics"
    );
}

#[test]
fn smoke_typing() {
    smoke(Workload::Typing, false);
    smoke(Workload::Typing, true);
}

#[test]
fn smoke_ingest() {
    smoke(Workload::Ingest, false);
    smoke(Workload::Ingest, true);
}

#[test]
fn smoke_relay() {
    smoke(Workload::Relay, false);
    smoke(Workload::Relay, true);
}
