//! Integration tests for the asynchronous decision pipeline: coalescing
//! equivalence under keystroke storms, backpressure reachability and
//! recovery, batch/sequential decision equivalence through the decider,
//! shutdown-vs-drop reply semantics, and the timeout path.

use browserflow::{
    AsyncDecider, BrowserFlow, CheckRequest, DeciderConfig, DeciderError, EnforcementMode,
    TrySubmitError, UploadAction,
};
use browserflow_corpus::TextGen;
use browserflow_tdm::{Service, Tag, TagSet};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

const SECRET: &str = "the candidate interview rubric weighs distributed systems depth \
                      heavily and must never leave the evaluation tool";

fn flow() -> BrowserFlow {
    let ti = Tag::new("ti").unwrap();
    BrowserFlow::builder()
        .mode(EnforcementMode::Block)
        .service(
            Service::new("itool", "Interview Tool")
                .with_privilege(TagSet::from_iter([ti.clone()]))
                .with_confidentiality(TagSet::from_iter([ti])),
        )
        .service(Service::new("gdocs", "Google Docs"))
        .build()
        .unwrap()
}

fn flow_with_secret() -> BrowserFlow {
    let flow = flow();
    flow.observe_paragraph(&"itool".into(), "eval", 0, SECRET)
        .unwrap();
    flow
}

// A keystroke burst editing one paragraph slot. Whatever interleaving of
// coalescing, supersession and queue pressure happens inside the
// pipeline, the burst's *final* decision must equal the decision a
// sequential replay of the same keystrokes produces — the only state
// that matters is the newest text.
proptest! {
    #[test]
    fn coalesced_burst_matches_sequential_replay(
        // Each keystroke leaves between one byte and all of the secret
        // typed, plus an optional harmless closing edit.
        cuts in proptest::collection::vec(1usize..=SECRET.len(), 1..24),
        leak_last in any::<bool>(),
    ) {
        let mut keystrokes: Vec<String> = cuts
            .iter()
            .map(|&cut| {
                let mut end = cut;
                while !SECRET.is_char_boundary(end) {
                    end += 1;
                }
                SECRET[..end].to_string()
            })
            .collect();
        if !leak_last {
            keystrokes.push("a perfectly harmless closing sentence".to_string());
        }

        // Sequential replay: only the final keystroke's decision matters.
        let sequential = flow_with_secret();
        let mut replay_action = None;
        for text in &keystrokes {
            let decision = sequential
                .check_one(&CheckRequest::paragraph("gdocs", "draft", 0, text.as_str()))
                .unwrap();
            replay_action = Some(decision.action);
        }

        // Pipeline burst: fire every keystroke through the coalescing
        // path, then wait for all receipts. Exactly the checks that ran
        // report decisions; the newest-submitted check always runs, so
        // the last decision observed equals the replay's final decision.
        let decider = AsyncDecider::spawn(flow_with_secret());
        let receipts: Vec<_> = keystrokes
            .iter()
            .map(|text| {
                decider
                    .submit_keystroke("gdocs", "draft", 0, text.as_str())
                    .expect("default queue holds a short burst")
            })
            .collect();
        let mut last_decided = None;
        for receipt in receipts {
            match receipt.wait() {
                Ok(timed) => last_decided = Some(timed.decisions[0].action),
                Err(DeciderError::Superseded) => {}
                Err(other) => panic!("unexpected pipeline error: {other:?}"),
            }
        }
        prop_assert_eq!(last_decided, replay_action);
        let stats = decider.stats();
        prop_assert_eq!(
            stats.completed + stats.coalesced,
            keystrokes.len() as u64
        );
    }
}

/// A batch request through the decider returns exactly the decisions the
/// synchronous middleware produces for the same paragraphs, in order.
#[test]
fn decider_batch_matches_synchronous_middleware() {
    let mut gen = TextGen::new(7);
    let mut texts: Vec<String> = (0..8).map(|_| gen.paragraph(4)).collect();
    texts[3] = SECRET.to_string();
    texts[6] = SECRET.to_string();

    let sync_flow = flow_with_secret();
    let expected = sync_flow
        .check(&CheckRequest::batch(
            "gdocs",
            "draft",
            texts.iter().map(String::as_str),
        ))
        .unwrap();

    let decider = AsyncDecider::spawn(flow_with_secret());
    let batch = decider
        .check_request(CheckRequest::batch(
            "gdocs",
            "draft",
            texts.iter().map(String::as_str),
        ))
        .unwrap();
    assert_eq!(batch.decisions, expected);
    assert_eq!(batch.decisions[3].action, UploadAction::Block);
    assert_eq!(batch.decisions[6].action, UploadAction::Block);
    assert_eq!(decider.stats().max_batch, 8);
}

/// Backpressure is reachable from concurrent submitters against a tiny
/// queue, refused submissions are counted, and the pipeline keeps serving
/// requests afterwards.
#[test]
fn queue_full_is_reachable_and_recoverable_under_contention() {
    let decider = Arc::new(AsyncDecider::spawn_with(
        flow(),
        DeciderConfig {
            queue_capacity: 2,
            check_timeout: None,
        },
    ));
    // Occupy the worker with an expensive check so submitters outpace it.
    let stall = decider
        .submit(CheckRequest::paragraph(
            "gdocs",
            "stall",
            0,
            "q ".repeat(100_000),
        ))
        .unwrap();

    let mut rejected_total = 0u32;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let decider = Arc::clone(&decider);
                scope.spawn(move || {
                    let mut rejected = 0u32;
                    for i in 0..50 {
                        match decider.try_submit(CheckRequest::paragraph(
                            "gdocs",
                            "burst",
                            t * 50 + i,
                            "short text",
                        )) {
                            // Drop the receipt: fire-and-forget checks.
                            Ok(_pending) => {}
                            Err(TrySubmitError::QueueFull) => rejected += 1,
                            Err(TrySubmitError::Closed) => {
                                panic!("pipeline closed mid-test")
                            }
                        }
                    }
                    rejected
                })
            })
            .collect();
        for handle in handles {
            rejected_total += handle.join().unwrap();
        }
    });

    assert!(
        rejected_total > 0,
        "200 submissions against a 2-slot queue behind a stalled worker \
         must hit QueueFull"
    );
    assert_eq!(decider.stats().rejected, u64::from(rejected_total));
    stall.wait().unwrap();

    // Recovery: the queue drains and new work is accepted and served.
    let timed = decider.check("gdocs", "after", 0, "fresh text").unwrap();
    assert_eq!(timed.decision.action, UploadAction::Allow);
    let stats = decider.stats();
    assert_eq!(stats.queue_depth, 0);
    assert!(stats.submitted > 0);
}

/// Dropping the decider mid-request resolves in-flight receivers with a
/// clean `Closed` (or a served decision) — never a hang or panic.
#[test]
fn drop_mid_request_resolves_receivers_with_closed() {
    let decider = AsyncDecider::spawn(flow());
    let stall = decider
        .submit(CheckRequest::paragraph(
            "gdocs",
            "stall",
            0,
            "d ".repeat(100_000),
        ))
        .unwrap();
    let pending: Vec<_> = (0..6)
        .map(|i| {
            decider
                .submit(CheckRequest::paragraph("gdocs", "draft", i, "text"))
                .unwrap()
        })
        .collect();
    drop(decider);
    // The stalled check either completed before the close flag was seen
    // or resolves as Closed; it must not hang.
    match stall.wait() {
        Ok(_) | Err(DeciderError::Closed) => {}
        Err(other) => panic!("unexpected error: {other:?}"),
    }
    for receipt in pending {
        match receipt.wait() {
            Ok(_) | Err(DeciderError::Closed) => {}
            Err(other) => panic!("unexpected error: {other:?}"),
        }
    }
}

/// Graceful shutdown serves every queued request before returning the
/// middleware, and submissions after shutdown fail typed.
#[test]
fn shutdown_drains_and_returns_middleware_state() {
    let decider = AsyncDecider::spawn(flow_with_secret());
    let receipts: Vec<_> = (0..5)
        .map(|i| {
            decider
                .submit(CheckRequest::paragraph("gdocs", "draft", i, SECRET))
                .unwrap()
        })
        .collect();
    let flow = decider.shutdown().unwrap();
    for receipt in receipts {
        let batch = receipt.wait().unwrap();
        assert_eq!(batch.decisions[0].action, UploadAction::Block);
    }
    // The drained middleware kept its state: five block warnings.
    assert_eq!(flow.warnings().len(), 5);
}

/// The configured check timeout fires while the worker is busy and is
/// counted in the pipeline stats.
#[test]
fn configured_timeout_fires_and_is_counted() {
    let decider = AsyncDecider::spawn_with(
        flow(),
        DeciderConfig {
            queue_capacity: 16,
            check_timeout: Some(Duration::from_micros(1)),
        },
    );
    let _stall = decider
        .submit(CheckRequest::paragraph(
            "gdocs",
            "stall",
            0,
            "t ".repeat(100_000),
        ))
        .unwrap();
    let err = decider.check("gdocs", "draft", 0, "text").unwrap_err();
    assert_eq!(err, DeciderError::Timeout);
    assert!(decider.stats().timeouts >= 1);
}
