//! The traced run: the same seeded stream replayed in-process against one
//! `BrowserFlow` per tenant, with spans around each layer's public calls.
//!
//! Each request runs its main path exactly as the daemon would
//! (`protocol::read_request` → the middleware call the daemon's worker
//! makes → `protocol::write_reply`). When tracing, probes then time the
//! lower layers' public functions on the same inputs: the fingerprinter,
//! Algorithm 1 on the tenant's paragraph store, the TDM release check,
//! the lineage graph and the sentinel. Probes only read the tenant's
//! state (or write to shadow copies), so the main path of the next
//! request sees exactly what it would see untraced.

use std::time::Instant;

use browserflow::{
    BrowserFlow, CheckRequest, DocKey, EnforcementMode, ExfiltrationSentinel, FlowOperation,
    LineageGraph, ParagraphStatus, SegmentKey, UploadAction, UploadDecision,
};
use browserflow_daemon::protocol::{read_request, write_reply};
use browserflow_daemon::{ParagraphSlot, Reply, Request, WireDecision, WireViolation};
use browserflow_fingerprint::Fingerprint;
use browserflow_store::{FingerprintStore, SegmentId, StoreKey};
use browserflow_tdm::ServiceId;

use crate::check::{judge, AlertCheck, Outcome};
use crate::gen::{policy, Kind, Op, Plan};
use crate::trace::Tracer;

/// Decode span names, by [`Kind`].
pub const DECODE_SPANS: [&str; 3] = [
    "daemon.decode.keystroke",
    "daemon.decode.check",
    "daemon.decode.observe",
];

/// What one replay measured and counted.
#[derive(Debug)]
pub struct ReplayResult {
    /// The recorded spans (empty when untraced).
    pub tracer: Tracer,
    /// Total time of the requests' main paths, in ns.
    pub main_ns: u128,
    /// Wrong, refused or errored replies.
    pub wrong: u64,
    /// Alert ground truth.
    pub alerts: AlertCheck,
    /// Decision-cache hits and misses across tenants.
    pub cache_hits: u64,
    /// See `cache_hits`.
    pub cache_misses: u64,
    /// Lineage edges across tenants at the end.
    pub lineage_edges: u64,
    /// Alerts raised across tenants (including ones the ring dropped).
    pub alerts_raised: u64,
    /// Warnings recorded across tenants.
    pub warnings: u64,
    /// Paragraph-store segments and first-sighting hashes at the end.
    pub store_segments: u64,
    /// See `store_segments`.
    pub store_hashes: u64,
    /// Paragraph-store stripe-lock round-trips of batched ingest.
    pub batch_lock_acquisitions: u64,
    /// Paragraph-store lock acquisitions that waited.
    pub hash_lock_contention: u64,
    /// Fingerprint probe totals: texts, bytes, hashes.
    pub fingerprinted: (u64, u64, u64),
    /// Algorithm 1 probe totals: calls and reports.
    pub algorithm1: (u64, u64),
    /// Paragraphs sent through the shadow store's `observe_batch`.
    pub batch_paragraphs: u64,
}

/// Both replays of one stream.
#[derive(Debug)]
pub struct ReplayPair {
    /// The untraced replay (no spans, no probes).
    pub untraced: ReplayResult,
    /// The traced replay.
    pub traced: ReplayResult,
}

/// Replays `plan` twice from freshly seeded states, untraced and traced,
/// in lockstep, alternating which goes first. Both run every request's
/// main path and then its probes (the untraced run without recording),
/// so both see the same host conditions and the same cache effects of
/// the probes, and their `main_ns` differ only by what recording spans
/// costs. `frames[i]` is the wire frame (length prefix and body) of
/// `plan.ops[i].request`.
pub fn replay(plan: &Plan, frames: &[Vec<u8>]) -> ReplayPair {
    let mut untraced = Run::new(plan, false);
    let mut traced = Run::new(plan, true);
    for (seed_id, request) in plan.seed_frames.iter().enumerate() {
        untraced.seed(seed_id as u32, request);
        traced.seed(seed_id as u32, request);
    }
    let offset = plan.seed_frames.len() as u32;
    for (index, (op, frame)) in plan.ops.iter().zip(frames).enumerate() {
        let id = offset + index as u32;
        let (first, second) = if index % 2 == 0 {
            (&mut traced, &mut untraced)
        } else {
            (&mut untraced, &mut traced)
        };
        let (request, answer) = first.step(id, op, frame);
        let (request2, answer2) = second.step(id, op, frame);
        first.probe(id, op.tenant, &request, &answer);
        second.probe(id, op.tenant, &request2, &answer2);
    }
    ReplayPair {
        untraced: untraced.finish(),
        traced: traced.finish(),
    }
}

/// The middleware's answer to one request.
enum Answer {
    Decisions(Vec<UploadDecision>),
    Observed(Option<ParagraphStatus>),
    Failed(String),
}

struct Run<'p> {
    plan: &'p Plan,
    flows: Vec<BrowserFlow>,
    tracer: Tracer,
    main_ns: u128,
    wrong: u64,
    alerts: AlertCheck,
    sentinel: ExfiltrationSentinel,
    shadow_store: FingerprintStore,
    shadow_lineage: LineageGraph,
    next_shadow_id: u64,
    fingerprinted: (u64, u64, u64),
    algorithm1: (u64, u64),
    batch_paragraphs: u64,
}

impl<'p> Run<'p> {
    fn new(plan: &'p Plan, traced: bool) -> Self {
        let flows = plan
            .tenants
            .iter()
            .map(|_| {
                BrowserFlow::builder()
                    .mode(EnforcementMode::Block)
                    .policy(policy())
                    .store_key(StoreKey::from_bytes([0u8; 32]))
                    .build()
                    .expect("the benchmark policy builds")
            })
            .collect();
        Self {
            plan,
            flows,
            tracer: Tracer::new(traced),
            main_ns: 0,
            wrong: 0,
            alerts: AlertCheck::new(plan.tenants.len()),
            sentinel: ExfiltrationSentinel::default(),
            shadow_store: FingerprintStore::new(),
            shadow_lineage: LineageGraph::new(),
            next_shadow_id: 0,
            fingerprinted: (0, 0, 0),
            algorithm1: (0, 0),
            batch_paragraphs: 0,
        }
    }

    fn tenant(&self, name: &str) -> usize {
        self.plan
            .tenants
            .iter()
            .position(|t| t == name)
            .expect("requests name generated tenants")
    }

    /// Lands one starting-store frame, as the daemon's set-up does.
    fn seed(&mut self, id: u32, request: &Request) {
        let Request::ObserveBatch {
            tenant,
            service,
            document,
            paragraphs,
        } = request
        else {
            unreachable!("seed frames are ObserveBatch requests");
        };
        let flow = &self.flows[self.tenant(tenant)];
        let items: Vec<(usize, &str)> = paragraphs.iter().map(|s| (s.index, &s.text[..])).collect();
        flow.observe_paragraphs(&ServiceId::from(service.as_str()), document, &items)
            .expect("seed services exist");
        let prints: Vec<Fingerprint> = paragraphs
            .iter()
            .map(|s| flow.engine().fingerprinter().fingerprint(&s.text))
            .collect();
        self.shadow_observe_batch(id, &prints);
    }

    /// Serves one load request and checks the reply against ground truth.
    fn step(&mut self, id: u32, op: &Op, frame: &[u8]) -> (Request, Answer) {
        let start = Instant::now();
        let (request, answer, reply) = self.main_path(id, op.kind, frame);
        self.main_ns += start.elapsed().as_nanos();
        if !matches!(judge(&op.expect, &reply), Outcome::Correct) {
            self.wrong += 1;
        }
        if let Some(segment) = &op.alert {
            if self.alerts.expect(op.tenant, segment.clone()) {
                let alerts = self.flows[op.tenant].alerts();
                self.alerts.verify(op.tenant, &alerts);
            }
        }
        (request, answer)
    }

    /// Decode → middleware → encode, as the daemon serves the request.
    fn main_path(&mut self, id: u32, kind: Kind, frame: &[u8]) -> (Request, Answer, Reply) {
        let plan = self.plan;
        let flows = &self.flows;
        self.tracer.span("request", id, |tr| {
            let request = tr
                .span(DECODE_SPANS[kind.index()], id, |_| {
                    read_request(&mut &frame[..])
                })
                .expect("generated frames decode")
                .expect("a frame per request");
            let tenant = match &request {
                Request::Keystroke { tenant, .. }
                | Request::Check { tenant, .. }
                | Request::Observe { tenant, .. }
                | Request::ObserveBatch { tenant, .. } => tenant,
                other => unreachable!("not a load request: {other:?}"),
            };
            let flow = &flows[plan
                .tenants
                .iter()
                .position(|t| t == tenant)
                .expect("requests name generated tenants")];
            let answer = serve(tr, id, flow, &request);
            let reply = wire_reply(&answer);
            let mut encoded = Vec::new();
            tr.span("daemon.encode", id, |_| write_reply(&mut encoded, &reply))
                .expect("replies encode");
            std::hint::black_box(&encoded);
            (request, answer, reply)
        })
    }

    /// Times the lower layers' public calls on the request's inputs.
    fn probe(&mut self, id: u32, tenant: usize, request: &Request, answer: &Answer) {
        let (service, document, slots, checks) = request_slots(request);
        let service = ServiceId::from(service);
        let flow = &self.flows[tenant];
        let engine = flow.engine();
        let tr = &mut self.tracer;
        let mut prints = Vec::with_capacity(slots.len());
        for &(index, text) in &slots {
            let print = tr.span("fingerprint.fingerprint", id, |_| {
                engine.fingerprinter().fingerprint(text)
            });
            self.fingerprinted.0 += 1;
            self.fingerprinted.1 += text.len() as u64;
            self.fingerprinted.2 += print.len() as u64;
            if checks {
                let key = SegmentKey::paragraph(DocKey::new(service.clone(), document), index);
                let target = engine.segment_id(&key);
                let store = engine.paragraph_store();
                let reports = tr.span("store.algorithm1", id, |_| {
                    store.disclosing_sources_of_sorted(target, print.distinct_hashes())
                });
                self.algorithm1.0 += 1;
                self.algorithm1.1 += reports.len() as u64;
            }
            prints.push(print);
        }
        let mut edges = Vec::new();
        match answer {
            Answer::Decisions(decisions) => {
                for (&(index, _), decision) in slots.iter().zip(decisions) {
                    let into = SegmentKey::paragraph(DocKey::new(service.clone(), document), index)
                        .to_string();
                    let policy = flow.policy();
                    let labels: Vec<_> = if decision.violations.is_empty() {
                        vec![policy.initial_label(&service).expect("service exists")]
                    } else {
                        decision
                            .violations
                            .iter()
                            .filter_map(|v| flow.segment_label(&v.source))
                            .collect()
                    };
                    for label in &labels {
                        tr.span("tdm.check_release", id, |_| {
                            policy.check_release(label, &service)
                        })
                        .expect("service exists");
                    }
                    for violation in &decision.violations {
                        let source = violation.source.doc.service.as_str();
                        if source == service.as_str() {
                            continue;
                        }
                        edges.push((
                            source.to_string(),
                            service.as_str().to_string(),
                            violation.source.to_string(),
                            into.clone(),
                            FlowOperation::Check,
                        ));
                    }
                }
            }
            Answer::Observed(Some(status)) => {
                let into =
                    SegmentKey::paragraph(DocKey::new(service.clone(), document), slots[0].0)
                        .to_string();
                for m in status
                    .matches
                    .iter()
                    .filter(|m| m.source.doc.service != service)
                {
                    edges.push((
                        m.source.doc.service.as_str().to_string(),
                        service.as_str().to_string(),
                        m.source.to_string(),
                        into.clone(),
                        FlowOperation::Observe,
                    ));
                }
            }
            Answer::Observed(None) | Answer::Failed(_) => {}
        }
        if !edges.is_empty() {
            let shadow = &self.shadow_lineage;
            let batch = edges.clone();
            tr.span("lineage.record_batch", id, |_| shadow.record_batch(batch));
        }
        // Each violating check edge is a hop the middleware traced back.
        let lineage = flow.lineage();
        let sentinel = &self.sentinel;
        for (source, sink, segment, into, operation) in &edges {
            if *operation != FlowOperation::Check {
                continue;
            }
            if let Some(final_hop) = lineage.lookup(source, sink, segment, into, *operation) {
                tr.span("lineage.trace", id, |_| sentinel.trace(lineage, &final_hop));
            }
        }
        if matches!(request, Request::ObserveBatch { .. }) {
            self.shadow_observe_batch(id, &prints);
        }
    }

    /// Times `observe_batch` of `prints` on the shadow paragraph store.
    fn shadow_observe_batch(&mut self, id: u32, prints: &[Fingerprint]) {
        let threshold = self.flows[0].engine().config().default_tpar;
        let entries: Vec<(SegmentId, &Fingerprint, f64)> = prints
            .iter()
            .map(|print| {
                self.next_shadow_id += 1;
                (SegmentId::new(self.next_shadow_id), print, threshold)
            })
            .collect();
        let store = &self.shadow_store;
        self.tracer
            .span("store.observe_batch", id, |_| store.observe_batch(&entries));
        self.batch_paragraphs += entries.len() as u64;
    }

    fn finish(mut self) -> ReplayResult {
        for tenant in self.alerts.tenants_pending() {
            let alerts = self.flows[tenant].alerts();
            self.alerts.verify(tenant, &alerts);
        }
        let mut result = ReplayResult {
            tracer: self.tracer,
            main_ns: self.main_ns,
            wrong: self.wrong,
            alerts: self.alerts,
            cache_hits: 0,
            cache_misses: 0,
            lineage_edges: 0,
            alerts_raised: 0,
            warnings: 0,
            store_segments: 0,
            store_hashes: 0,
            batch_lock_acquisitions: 0,
            hash_lock_contention: 0,
            fingerprinted: self.fingerprinted,
            algorithm1: self.algorithm1,
            batch_paragraphs: self.batch_paragraphs,
        };
        for flow in &self.flows {
            let (hits, misses) = flow.engine().cache_stats();
            result.cache_hits += hits;
            result.cache_misses += misses;
            result.lineage_edges += flow.lineage().len() as u64;
            result.alerts_raised += flow.alerts().iter().map(|a| a.id).max().unwrap_or(0);
            result.warnings += flow.warnings().len() as u64;
            let stats = flow.engine().paragraph_store().stats();
            result.store_segments += stats.segment_shard_sizes.iter().sum::<usize>() as u64;
            result.store_hashes += stats.hash_shard_sizes.iter().sum::<usize>() as u64;
            result.batch_lock_acquisitions += stats.batch_lock_acquisitions;
            result.hash_lock_contention += stats.hash_lock_contention;
        }
        result
    }
}

/// Runs the middleware call the daemon's tenant worker makes.
fn serve(tr: &mut Tracer, id: u32, flow: &BrowserFlow, request: &Request) -> Answer {
    let (service, document, slots, checks) = request_slots(request);
    let service = ServiceId::from(service);
    if checks {
        let mut check = CheckRequest::new(service, document);
        for &(index, text) in &slots {
            check = check.with_paragraph(index, text);
        }
        return match tr.span("middleware.check", id, |_| flow.check(&check)) {
            Ok(decisions) => Answer::Decisions(decisions),
            Err(e) => Answer::Failed(e.to_string()),
        };
    }
    let result = tr.span("middleware.observe", id, |_| match request {
        Request::Observe { .. } => {
            let (index, text) = slots[0];
            flow.observe_paragraph(&service, document, index, text)
                .map(Some)
        }
        _ => flow
            .observe_paragraphs(&service, document, &slots)
            .map(|_| None),
    });
    match result {
        Ok(status) => Answer::Observed(status),
        Err(e) => Answer::Failed(e.to_string()),
    }
}

/// `(service, document, slots, is a decision request)` of a load request.
fn request_slots(request: &Request) -> (&str, &str, Vec<(usize, &str)>, bool) {
    fn of(slots: &[ParagraphSlot]) -> Vec<(usize, &str)> {
        slots.iter().map(|s| (s.index, s.text.as_str())).collect()
    }
    match request {
        Request::Keystroke {
            service,
            document,
            index,
            text,
            ..
        } => (service, document, vec![(*index, text.as_str())], true),
        Request::Check {
            service,
            document,
            paragraphs,
            ..
        } => (service, document, of(paragraphs), true),
        Request::Observe {
            service,
            document,
            index,
            text,
            ..
        } => (service, document, vec![(*index, text.as_str())], false),
        Request::ObserveBatch {
            service,
            document,
            paragraphs,
            ..
        } => (service, document, of(paragraphs), false),
        other => unreachable!("not a load request: {other:?}"),
    }
}

/// The reply the daemon would send for `answer`.
fn wire_reply(answer: &Answer) -> Reply {
    match answer {
        Answer::Decisions(decisions) => Reply::Decisions {
            decisions: decisions.iter().map(wire_decision).collect(),
            latency_us: 0,
        },
        Answer::Observed(_) => Reply::Observed,
        Answer::Failed(message) => Reply::Error {
            message: message.clone(),
        },
    }
}

fn wire_decision(decision: &UploadDecision) -> WireDecision {
    WireDecision {
        action: match decision.action {
            UploadAction::Allow => "allow",
            UploadAction::Warn => "warn",
            UploadAction::Block => "block",
            UploadAction::Encrypt => "encrypt",
        }
        .to_string(),
        violations: decision
            .violations
            .iter()
            .map(|v| WireViolation {
                source: v.source.to_string(),
                disclosure: v.disclosure,
                missing_tags: v.missing_tags.iter().map(|t| t.to_string()).collect(),
                matching_spans: v.matching_spans.iter().map(|r| (r.start, r.end)).collect(),
            })
            .collect(),
    }
}
