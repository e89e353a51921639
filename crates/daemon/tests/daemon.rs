//! End-to-end tests for `bfd`: tenant isolation, backpressure-correct
//! admission, and graceful drain with sealed per-tenant persistence.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::thread;
use std::time::{Duration, Instant};

use browserflow::test_hooks;
use browserflow_daemon::{Daemon, DaemonClient, DaemonConfig, ParagraphSlot, Reply, Request};
use browserflow_store::StoreKey;
use browserflow_tdm::{Policy, Service, Tag, TagSet};

const SECRET: &str = "the confidential interview rubric awards extra points for \
                      candidates who ask incisive clarifying questions early";

static NEXT_SOCKET: AtomicU32 = AtomicU32::new(0);

fn socket_path(tag: &str) -> PathBuf {
    let n = NEXT_SOCKET.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("bfd-test-{tag}-{}-{n}.sock", std::process::id()))
}

fn policy_json() -> String {
    let ti = Tag::new("interview-data").unwrap();
    let mut policy = Policy::new();
    policy
        .register(
            Service::new("itool", "Interview Tool")
                .with_privilege(TagSet::from_iter([ti.clone()]))
                .with_confidentiality(TagSet::from_iter([ti])),
        )
        .unwrap();
    policy
        .register(Service::new("gdocs", "Google Docs"))
        .unwrap();
    serde_json::to_string(&policy).unwrap()
}

/// Binds a daemon on a fresh socket, runs it on a background thread,
/// and waits until the socket accepts connections.
fn start_daemon(
    config: DaemonConfig,
) -> (
    PathBuf,
    thread::JoinHandle<Vec<browserflow_daemon::WireDrainReport>>,
) {
    let socket = config.socket_path.clone();
    let daemon = Daemon::bind(config).expect("bind");
    let handle = thread::spawn(move || daemon.run().expect("daemon run"));
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        match DaemonClient::connect(&socket) {
            Ok(mut client) => {
                client.ping().expect("ping");
                break;
            }
            Err(_) if Instant::now() < deadline => thread::sleep(Duration::from_millis(10)),
            Err(e) => panic!("daemon never came up: {e}"),
        }
    }
    (socket, handle)
}

fn create_tenant(client: &mut DaemonClient, tenant: &str, queue_capacity: u64) {
    let reply = client
        .request(&Request::TenantCreate {
            tenant: tenant.to_string(),
            mode: "block".to_string(),
            policy_json: policy_json(),
            max_in_flight: 0,
            queue_capacity,
        })
        .expect("tenant create");
    assert!(
        matches!(reply, Reply::TenantCreated { tenant: ref t } if t == tenant),
        "unexpected reply: {reply:?}"
    );
}

fn drain(client: &mut DaemonClient) -> Vec<browserflow_daemon::WireDrainReport> {
    match client.request(&Request::Drain).expect("drain") {
        Reply::Drained { reports } => reports,
        other => panic!("expected Drained, got {other:?}"),
    }
}

#[test]
fn tenants_are_isolated_end_to_end() {
    let (socket, handle) = start_daemon(DaemonConfig::new(socket_path("isolation")));
    let mut client = DaemonClient::connect(&socket).unwrap();
    create_tenant(&mut client, "alice", 0);
    create_tenant(&mut client, "bob", 0);

    // Alice's secret lives only in Alice's store.
    client.observe("alice", "itool", "eval", 0, SECRET).unwrap();

    let slot = vec![ParagraphSlot {
        index: 0,
        text: SECRET.to_string(),
    }];
    match client
        .check("alice", "gdocs", "draft", slot.clone())
        .unwrap()
    {
        Reply::Decisions { decisions, .. } => {
            assert_eq!(decisions[0].action, "block");
            assert!(!decisions[0].violations.is_empty());
            assert_eq!(decisions[0].violations[0].source, "itool/eval#p0");
        }
        other => panic!("expected Decisions, got {other:?}"),
    }
    // Bob uploading the identical text is clean: isolation, not policy.
    match client.check("bob", "gdocs", "draft", slot).unwrap() {
        Reply::Decisions { decisions, .. } => assert_eq!(decisions[0].action, "allow"),
        other => panic!("expected Decisions, got {other:?}"),
    }

    // Tenant listing sees both, sorted.
    match client.request(&Request::TenantList).unwrap() {
        Reply::Tenants { tenants } => {
            let names: Vec<&str> = tenants.iter().map(|t| t.tenant.as_str()).collect();
            assert_eq!(names, ["alice", "bob"]);
        }
        other => panic!("expected Tenants, got {other:?}"),
    }

    drain(&mut client);
    handle.join().unwrap();
}

#[test]
fn observe_batch_lands_a_whole_document_in_one_frame() {
    let (socket, handle) = start_daemon(DaemonConfig::new(socket_path("observe-batch")));
    let mut client = DaemonClient::connect(&socket).unwrap();
    create_tenant(&mut client, "alice", 0);

    // A three-paragraph document goes over the wire as a single frame;
    // the secret sits in the middle slot.
    let closing = "please return written feedback on every candidate within two \
                   business days so the committee can calibrate before debrief";
    let paragraphs = vec![
        ParagraphSlot {
            index: 0,
            text: "welcome to the interview packet for this hiring cycle; read \
                   the rubric below before scheduling any phone screens"
                .to_string(),
        },
        ParagraphSlot {
            index: 1,
            text: SECRET.to_string(),
        },
        ParagraphSlot {
            index: 2,
            text: closing.to_string(),
        },
    ];
    client
        .observe_batch("alice", "itool", "eval", paragraphs)
        .unwrap();

    // Every batched slot is attributable: the secret paragraph blocks
    // with its batch-assigned provenance, the benign ones stay allowed.
    let probe = vec![ParagraphSlot {
        index: 0,
        text: SECRET.to_string(),
    }];
    match client.check("alice", "gdocs", "draft", probe).unwrap() {
        Reply::Decisions { decisions, .. } => {
            assert_eq!(decisions[0].action, "block");
            assert_eq!(decisions[0].violations[0].source, "itool/eval#p1");
        }
        other => panic!("expected Decisions, got {other:?}"),
    }
    let benign = vec![ParagraphSlot {
        index: 0,
        text: closing.to_string(),
    }];
    match client.check("alice", "gdocs", "draft", benign).unwrap() {
        Reply::Decisions { decisions, .. } => {
            // Short benign text observed at itool is itool-owned too, but it
            // carries no confidential tags the destination lacks.
            assert_eq!(decisions[0].action, "block");
            assert_eq!(decisions[0].violations[0].source, "itool/eval#p2");
        }
        other => panic!("expected Decisions, got {other:?}"),
    }

    drain(&mut client);
    handle.join().unwrap();
}

#[test]
fn queue_full_is_a_backpressure_reply_with_zero_silent_drops() {
    let _hooks = test_hooks::lock();
    let (socket, handle) = start_daemon(DaemonConfig::new(socket_path("backpressure")));
    let mut client = DaemonClient::connect(&socket).unwrap();
    create_tenant(&mut client, "alice", 1);

    // Stall the tenant's worker on a marker paragraph so the bounded
    // queue (capacity 1) fills deterministically.
    test_hooks::set_delay_ms_on_marker(400);
    let stall_socket = socket.clone();
    let staller = thread::spawn(move || {
        let mut stall_client = DaemonClient::connect(&stall_socket).unwrap();
        let text = format!("stall {}", test_hooks::FAULT_MARKER);
        stall_client
            .check(
                "alice",
                "gdocs",
                "stall-doc",
                vec![ParagraphSlot { index: 0, text }],
            )
            .unwrap()
    });

    // Give the worker a moment to dequeue the stall request so the
    // queue slot is genuinely free for exactly one more check.
    thread::sleep(Duration::from_millis(100));

    // The protocol is strict request→reply, so pressure needs parallel
    // connections: fan out concurrent checks while the worker is stalled.
    let hammers: Vec<_> = (0..6)
        .map(|index| {
            let socket = socket.clone();
            thread::spawn(move || {
                let mut client = DaemonClient::connect(&socket).unwrap();
                client
                    .check(
                        "alice",
                        "gdocs",
                        "doc",
                        vec![ParagraphSlot {
                            index,
                            text: "harmless text".to_string(),
                        }],
                    )
                    .unwrap()
            })
        })
        .collect();
    let replies: Vec<Reply> = hammers.into_iter().map(|h| h.join().unwrap()).collect();
    test_hooks::set_delay_ms_on_marker(0);

    let mut decisions = 0u32;
    let mut refusals = Vec::new();
    for reply in replies {
        match reply {
            Reply::Decisions { .. } => decisions += 1,
            Reply::Backpressure {
                reason,
                limit,
                retry_after_ms,
                terminal,
                ..
            } => refusals.push((reason, limit, retry_after_ms, terminal)),
            other => panic!("unexpected reply: {other:?}"),
        }
    }
    // Every concurrent check got exactly one structured answer: a real
    // decision or a backpressure refusal — nothing vanished.
    assert_eq!(decisions as usize + refusals.len(), 6);
    assert!(!refusals.is_empty(), "bounded queue never refused");
    for (reason, limit, retry_after_ms, terminal) in &refusals {
        assert_eq!(reason, "queue-full");
        assert_eq!(*limit, 1);
        assert!(*retry_after_ms > 0, "refusal must carry a retry hint");
        assert!(
            !terminal,
            "a full queue is transient backpressure, not a terminal refusal"
        );
    }

    // Zero silent drops: the stalled check also produced its decision.
    match staller.join().unwrap() {
        Reply::Decisions { .. } => {}
        other => panic!("stalled check lost: {other:?}"),
    }
    // And the refused check succeeds on retry once pressure clears.
    let retry = client
        .check(
            "alice",
            "gdocs",
            "doc",
            vec![ParagraphSlot {
                index: 999,
                text: "harmless text".to_string(),
            }],
        )
        .unwrap();
    assert!(
        matches!(retry, Reply::Decisions { .. }),
        "retry failed: {retry:?}"
    );
    let _ = decisions;

    drain(&mut client);
    handle.join().unwrap();
}

#[test]
fn draining_refusal_is_terminal_with_a_real_backoff_hint() {
    let _hooks = test_hooks::lock();
    let (socket, handle) = start_daemon(DaemonConfig::new(socket_path("draining")));
    let mut client = DaemonClient::connect(&socket).unwrap();
    create_tenant(&mut client, "alice", 0);

    // Stall the tenant's worker so the drain (which waits for queued
    // work) holds the tenant in its "decider taken, not yet drained"
    // window long enough to probe it.
    test_hooks::set_delay_ms_on_marker(400);
    let stall_socket = socket.clone();
    let staller = thread::spawn(move || {
        let mut stall_client = DaemonClient::connect(&stall_socket).unwrap();
        let text = format!("stall {}", test_hooks::FAULT_MARKER);
        stall_client
            .check(
                "alice",
                "gdocs",
                "stall-doc",
                vec![ParagraphSlot { index: 0, text }],
            )
            .unwrap()
    });
    thread::sleep(Duration::from_millis(100));
    let drain_socket = socket.clone();
    let drainer = thread::spawn(move || {
        let mut drain_client = DaemonClient::connect(&drain_socket).unwrap();
        drain(&mut drain_client)
    });
    thread::sleep(Duration::from_millis(100));

    // Admission during the drain: the refusal must say so terminally —
    // a retry against this instance can never succeed — and still carry
    // a non-zero pacing hint (a zero hint invites a busy loop).
    let reply = client
        .check(
            "alice",
            "gdocs",
            "draft",
            vec![ParagraphSlot {
                index: 0,
                text: "harmless".to_string(),
            }],
        )
        .unwrap();
    match reply {
        Reply::Backpressure {
            reason,
            retry_after_ms,
            terminal,
            ..
        } => {
            assert_eq!(reason, "draining");
            assert!(terminal, "draining must be flagged terminal");
            assert!(
                retry_after_ms > 0,
                "draining must not advertise an immediate retry"
            );
        }
        other => panic!("expected draining backpressure, got {other:?}"),
    }
    test_hooks::set_delay_ms_on_marker(0);

    // Zero silent drops even across the drain: the stalled check still
    // resolved with a real decision.
    assert!(matches!(staller.join().unwrap(), Reply::Decisions { .. }));
    drainer.join().unwrap();
    handle.join().unwrap();
}

#[test]
fn snapshot_sweep_persists_tenants_without_drain() {
    let state_root = std::env::temp_dir().join(format!("bfd-snap-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state_root);
    std::fs::create_dir_all(&state_root).unwrap();
    let key = StoreKey::from_bytes([0x17; 32]);

    let mut config = DaemonConfig::new(socket_path("sweep"));
    config.state_root = Some(state_root.clone());
    config.store_key = key.clone();
    config.snapshot_interval = Some(Duration::from_millis(50));
    let (socket, handle) = start_daemon(config);
    let mut client = DaemonClient::connect(&socket).unwrap();
    create_tenant(&mut client, "alice", 0);
    client.observe("alice", "itool", "eval", 0, SECRET).unwrap();

    // Wait out a few sweep intervals; the daemon keeps serving — no
    // drain — yet the state root must become a loadable snapshot. This
    // is the `kill -9` durability bound: at most one interval is lost.
    let deadline = Instant::now() + Duration::from_secs(5);
    let restored = loop {
        match browserflow::BrowserFlow::load_from_dir(key.clone(), &state_root.join("alice")) {
            Ok((flow, report)) if report.is_complete() => break flow,
            _ if Instant::now() < deadline => thread::sleep(Duration::from_millis(25)),
            Ok(_) => panic!("snapshot stayed incomplete past the deadline"),
            Err(e) => panic!("no loadable snapshot appeared: {e}"),
        }
    };
    let decision = restored
        .check_one(&browserflow::CheckRequest::paragraph(
            "gdocs", "d", 0, SECRET,
        ))
        .unwrap();
    assert_eq!(decision.action, browserflow::UploadAction::Block);

    // The daemon never stopped serving while sweeping.
    client.ping().unwrap();
    drain(&mut client);
    handle.join().unwrap();
    let _ = std::fs::remove_dir_all(&state_root);
}

#[test]
fn drain_persists_tenants_and_a_new_daemon_restores_them() {
    let state_root = std::env::temp_dir().join(format!("bfd-state-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state_root);
    std::fs::create_dir_all(&state_root).unwrap();
    let key = StoreKey::from_bytes([0x42; 32]);

    let mut config = DaemonConfig::new(socket_path("drain-a"));
    config.state_root = Some(state_root.clone());
    config.store_key = key.clone();
    let (socket, handle) = start_daemon(config);
    let mut client = DaemonClient::connect(&socket).unwrap();
    create_tenant(&mut client, "alice", 0);
    client.observe("alice", "itool", "eval", 0, SECRET).unwrap();

    let reports = drain(&mut client);
    assert_eq!(reports.len(), 1);
    assert_eq!(reports[0].tenant, "alice");
    assert!(
        reports[0].error.is_empty(),
        "drain error: {}",
        reports[0].error
    );
    assert!(reports[0].persisted_to.ends_with("/alice"));
    handle.join().unwrap();
    assert!(state_root.join("alice").is_dir());

    // A fresh daemon over the same state root restores the tenant with
    // its fingerprints intact.
    let mut config = DaemonConfig::new(socket_path("drain-b"));
    config.state_root = Some(state_root.clone());
    config.store_key = key;
    let (socket, handle) = start_daemon(config);
    let mut client = DaemonClient::connect(&socket).unwrap();
    match client
        .check(
            "alice",
            "gdocs",
            "draft",
            vec![ParagraphSlot {
                index: 0,
                text: SECRET.to_string(),
            }],
        )
        .unwrap()
    {
        Reply::Decisions { decisions, .. } => assert_eq!(decisions[0].action, "block"),
        other => panic!("expected Decisions after restore, got {other:?}"),
    }
    drain(&mut client);
    handle.join().unwrap();
    let _ = std::fs::remove_dir_all(&state_root);
}

fn three_service_policy_json() -> String {
    let ti = Tag::new("interview-data").unwrap();
    let mut policy = Policy::new();
    policy
        .register(
            Service::new("itool", "Interview Tool")
                .with_privilege(TagSet::from_iter([ti.clone()]))
                .with_confidentiality(TagSet::from_iter([ti])),
        )
        .unwrap();
    policy
        .register(Service::new("gdocs", "Google Docs"))
        .unwrap();
    policy
        .register(Service::new("wiki", "Company Wiki"))
        .unwrap();
    serde_json::to_string(&policy).unwrap()
}

#[test]
fn lineage_and_alerts_survive_drain_and_restore_over_the_wire() {
    let state_root = std::env::temp_dir().join(format!("bfd-lineage-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state_root);
    std::fs::create_dir_all(&state_root).unwrap();
    let key = StoreKey::from_bytes([0x29; 32]);

    let mut config = DaemonConfig::new(socket_path("lineage-a"));
    config.state_root = Some(state_root.clone());
    config.store_key = key.clone();
    let (socket, handle) = start_daemon(config);
    let mut client = DaemonClient::connect(&socket).unwrap();
    let reply = client
        .request(&Request::TenantCreate {
            tenant: "alice".to_string(),
            mode: "block".to_string(),
            policy_json: three_service_policy_json(),
            max_in_flight: 0,
            queue_capacity: 0,
        })
        .unwrap();
    assert!(matches!(reply, Reply::TenantCreated { .. }));

    // A covert chain: the secret is born in the interview tool, drafted
    // (with the user's own framing — that is what makes the middle hop
    // authoritative) in Google Docs, then pasted into the wiki.
    client.observe("alice", "itool", "eval", 0, SECRET).unwrap();
    let draft = format!(
        "{SECRET} — drafting notes: summarise this rubric for the hiring \
         committee and circulate before the next debrief"
    );
    client
        .observe("alice", "gdocs", "draft", 0, &draft)
        .unwrap();
    match client
        .check(
            "alice",
            "wiki",
            "page",
            vec![ParagraphSlot {
                index: 0,
                text: draft.clone(),
            }],
        )
        .unwrap()
    {
        Reply::Decisions { decisions, .. } => assert_eq!(decisions[0].action, "block"),
        other => panic!("expected Decisions, got {other:?}"),
    }

    // The lineage reply carries the cross-service edges and the alerts
    // reply the confirmed multi-hop chain with its receipt.
    let (edges, clock) = client.lineage("alice").unwrap();
    assert!(clock >= 2, "expected at least two recorded edges");
    assert!(edges
        .iter()
        .any(|e| e.source == "itool" && e.sink == "gdocs"));
    assert!(edges
        .iter()
        .any(|e| e.source == "gdocs" && e.sink == "wiki"));
    let alerts = client.alerts("alice").unwrap();
    assert_eq!(alerts.len(), 1, "alerts: {alerts:?}");
    assert!(alerts[0].hops.len() >= 2);
    assert_eq!(alerts[0].receipt.action, "block");

    drain(&mut client);
    handle.join().unwrap();

    // A fresh daemon restores the tenant with graph and alerts intact.
    let mut config = DaemonConfig::new(socket_path("lineage-b"));
    config.state_root = Some(state_root.clone());
    config.store_key = key;
    let (socket, handle) = start_daemon(config);
    let mut client = DaemonClient::connect(&socket).unwrap();
    let (restored_edges, restored_clock) = client.lineage("alice").unwrap();
    assert_eq!(restored_edges, edges);
    assert_eq!(restored_clock, clock);
    let restored_alerts = client.alerts("alice").unwrap();
    assert_eq!(restored_alerts, alerts);
    drain(&mut client);
    handle.join().unwrap();
    let _ = std::fs::remove_dir_all(&state_root);
}

#[test]
fn admission_after_drain_is_draining_backpressure() {
    let (socket, handle) = start_daemon(DaemonConfig::new(socket_path("post-drain")));
    let mut client = DaemonClient::connect(&socket).unwrap();
    create_tenant(&mut client, "alice", 0);

    // A second connection drains the daemon while the first stays open.
    let mut drainer = DaemonClient::connect(&socket).unwrap();
    drain(&mut drainer);
    handle.join().unwrap();
    // The daemon has exited; the first client's next request fails at
    // the transport (socket gone), which the client reports as an error
    // rather than hanging.
    let result = client.check(
        "alice",
        "gdocs",
        "draft",
        vec![ParagraphSlot {
            index: 0,
            text: "text".to_string(),
        }],
    );
    assert!(result.is_err() || !matches!(result, Ok(Reply::Decisions { .. })));
}

#[test]
fn malformed_and_hostile_frames_get_typed_errors() {
    use std::io::Write;
    let (socket, handle) = start_daemon(DaemonConfig::new(socket_path("hostile")));

    // Malformed JSON body: typed error reply, connection stays usable.
    {
        let mut stream = std::os::unix::net::UnixStream::connect(&socket).unwrap();
        let body = b"{definitely not json";
        stream
            .write_all(&(body.len() as u32).to_le_bytes())
            .unwrap();
        stream.write_all(body).unwrap();
        let reply = browserflow_daemon::protocol::read_reply(&mut stream)
            .unwrap()
            .unwrap();
        assert!(matches!(reply, Reply::Error { .. }), "got {reply:?}");
    }

    // Hostile length prefix: typed error, then hangup (stream position
    // is unrecoverable).
    {
        let mut stream = std::os::unix::net::UnixStream::connect(&socket).unwrap();
        stream.write_all(&u32::MAX.to_le_bytes()).unwrap();
        stream.write_all(b"junk").unwrap();
        let reply = browserflow_daemon::protocol::read_reply(&mut stream)
            .unwrap()
            .unwrap();
        assert!(matches!(reply, Reply::Error { .. }), "got {reply:?}");
        assert!(browserflow_daemon::protocol::read_reply(&mut stream)
            .unwrap()
            .is_none());
    }

    let mut client = DaemonClient::connect(&socket).unwrap();
    drain(&mut client);
    handle.join().unwrap();
}

#[test]
fn deeply_nested_frame_is_a_typed_error_and_the_connection_survives() {
    use browserflow_daemon::protocol::{read_reply, write_frame, write_request};
    let (socket, handle) = start_daemon(DaemonConfig::new(socket_path("nested")));

    // 10,000 unclosed arrays: a typed error reply rather than a stack
    // overflow that kills the daemon, and the same connection keeps
    // serving.
    let mut stream = std::os::unix::net::UnixStream::connect(&socket).unwrap();
    write_frame(&mut stream, &[b'['; 10_000]).unwrap();
    let reply = read_reply(&mut stream).unwrap().unwrap();
    assert!(
        matches!(reply, Reply::Error { ref message } if message.contains("recursion limit")),
        "got {reply:?}"
    );
    write_request(&mut stream, &Request::Ping).unwrap();
    let reply = read_reply(&mut stream).unwrap().unwrap();
    assert!(matches!(reply, Reply::Pong { .. }), "got {reply:?}");

    let mut client = DaemonClient::connect(&socket).unwrap();
    drain(&mut client);
    handle.join().unwrap();
}

#[test]
fn unknown_tenant_and_bad_create_are_typed_errors() {
    let (socket, handle) = start_daemon(DaemonConfig::new(socket_path("errors")));
    let mut client = DaemonClient::connect(&socket).unwrap();

    let reply = client
        .check(
            "ghost",
            "gdocs",
            "draft",
            vec![ParagraphSlot {
                index: 0,
                text: "text".to_string(),
            }],
        )
        .unwrap();
    assert!(matches!(reply, Reply::Error { ref message } if message.contains("ghost")));

    let reply = client
        .request(&Request::TenantCreate {
            tenant: "../escape".to_string(),
            mode: "block".to_string(),
            policy_json: policy_json(),
            max_in_flight: 0,
            queue_capacity: 0,
        })
        .unwrap();
    assert!(matches!(reply, Reply::Error { ref message } if message.contains("tenant id")));

    let reply = client
        .request(&Request::TenantCreate {
            tenant: "alice".to_string(),
            mode: "block".to_string(),
            policy_json: "{broken".to_string(),
            max_in_flight: 0,
            queue_capacity: 0,
        })
        .unwrap();
    assert!(matches!(reply, Reply::Error { ref message } if message.contains("policy")));

    create_tenant(&mut client, "alice", 0);
    let reply = client
        .request(&Request::TenantCreate {
            tenant: "alice".to_string(),
            mode: "block".to_string(),
            policy_json: policy_json(),
            max_in_flight: 0,
            queue_capacity: 0,
        })
        .unwrap();
    assert!(matches!(reply, Reply::Error { ref message } if message.contains("exists")));

    drain(&mut client);
    handle.join().unwrap();
}
