//! Seeded generation of each workload's requests and their ground truth.
//!
//! A [`Plan`] is a pure function of `(workload, seed, seconds, smoke)`:
//! the starting store (sent as `ObserveBatch` frames during set-up) and
//! the load-phase request stream, each request with the reply it must
//! get. The amount of work is fixed by those arguments, never by how
//! fast the daemon answers, so a faster layer cannot change what the
//! other layers are given.
//!
//! Quantities the daemon's cost depends on (paragraph lengths, frame
//! sizes, which sessions leak) are drawn by stratified sampling: the
//! multiset of values is the same for every seed and only their order
//! and the text change. Runs with different seeds then differ in content,
//! not in how much work they ask for.

use browserflow_corpus::TextGen;
use browserflow_daemon::{ParagraphSlot, Request};
use browserflow_tdm::{Policy, Service, Tag, TagSet};

/// The confidential origin service.
pub const ITOOL: &str = "itool";
/// The internal, privileged relay service.
pub const WIKI: &str = "wiki";
/// The external destination service.
pub const GDOCS: &str = "gdocs";

/// Paragraphs per `ObserveBatch` frame while seeding the starting store.
const SEED_FRAME_PARAGRAPHS: usize = 10;

/// One named traffic mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Editing sessions in `gdocs`: keystrokes, rechecks and saves.
    Typing,
    /// Bulk provisioning through large `ObserveBatch` frames.
    Ingest,
    /// itool → wiki → gdocs copy chains that must raise alerts.
    Relay,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 3] = [Workload::Typing, Workload::Ingest, Workload::Relay];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Typing => "typing",
            Workload::Ingest => "ingest",
            Workload::Relay => "relay",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The request kinds whose round trips are reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `Request::Keystroke`.
    Keystroke,
    /// `Request::Check`.
    Check,
    /// `Request::Observe` or `Request::ObserveBatch`.
    Observe,
}

impl Kind {
    /// Every kind, in reporting order.
    pub const ALL: [Kind; 3] = [Kind::Keystroke, Kind::Check, Kind::Observe];

    /// The kind's name in metric names.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Keystroke => "keystroke",
            Kind::Check => "check",
            Kind::Observe => "observe",
        }
    }

    /// Position in [`Kind::ALL`].
    pub fn index(self) -> usize {
        self as usize
    }
}

/// The reply a request must get.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expect {
    /// `Reply::Observed`.
    Observed,
    /// `Reply::Decisions` with these actions, in paragraph order.
    Actions(Vec<&'static str>),
}

/// One load-phase request with its ground truth.
#[derive(Debug, Clone)]
pub struct Op {
    /// Which round-trip series the request belongs to.
    pub kind: Kind,
    /// Index into [`Plan::tenants`].
    pub tenant: usize,
    /// The request as sent.
    pub request: Request,
    /// The reply it must get.
    pub expect: Expect,
    /// A sink segment (`service/document#pN`) on which this request must
    /// raise an exfiltration alert.
    pub alert: Option<String>,
}

/// A workload instance: tenants, starting store and request stream.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The workload generated.
    pub workload: Workload,
    /// Tenant ids.
    pub tenants: Vec<String>,
    /// The policy every tenant is created with, as JSON.
    pub policy_json: String,
    /// `ObserveBatch` frames that build the starting store.
    pub seed_frames: Vec<Request>,
    /// Paragraphs across `seed_frames`.
    pub seed_paragraphs: usize,
    /// The load-phase requests, in sending order.
    pub ops: Vec<Op>,
}

impl Plan {
    /// Generates `workload` at `seed`. `seconds` sizes the load phase (it
    /// lasts about that long on a 2-core x86-64 host); `smoke` shrinks
    /// everything to a few requests for self-tests.
    pub fn generate(workload: Workload, seed: u64, seconds: u64, smoke: bool) -> Self {
        let mut gen = Gen::new(workload, seed);
        let scale = Scale::of(workload, seconds, smoke);
        let tenants: Vec<String> = (0..scale.tenants).map(|t| format!("t{t}")).collect();
        let mut plan = Plan {
            workload,
            policy_json: policy_json(),
            seed_frames: Vec::new(),
            seed_paragraphs: 0,
            ops: Vec::new(),
            tenants,
        };
        let secrets = gen.seed_store(&mut plan, &scale);
        match workload {
            Workload::Typing => gen.typing(&mut plan, &scale, &secrets),
            Workload::Ingest => gen.ingest(&mut plan, &scale, secrets),
            Workload::Relay => gen.relay(&mut plan, &scale),
        }
        plan
    }

    /// Every seed frame and load request serialised as request bodies, in
    /// sending order: the exact bytes the daemon receives.
    pub fn request_bodies(&self) -> impl Iterator<Item = Vec<u8>> + '_ {
        self.seed_frames
            .iter()
            .chain(self.ops.iter().map(|op| &op.request))
            .map(|request| serde_json::to_vec(request).expect("requests serialise"))
    }
}

/// The tenants' shared policy: `itool` confidential, `wiki` internal and
/// privileged for itool text, `gdocs` external.
pub fn policy() -> Policy {
    let ti = Tag::new("ti").expect("static tag");
    let tw = Tag::new("tw").expect("static tag");
    let mut policy = Policy::new();
    for service in [
        Service::new(ITOOL, "Interview Tool")
            .with_privilege(TagSet::from_iter([ti.clone()]))
            .with_confidentiality(TagSet::from_iter([ti.clone()])),
        Service::new(WIKI, "Internal Wiki")
            .with_privilege(TagSet::from_iter([ti, tw.clone()]))
            .with_confidentiality(TagSet::from_iter([tw])),
        Service::new(GDOCS, "External Docs"),
    ] {
        policy.register(service).expect("unique service ids");
    }
    policy
}

fn policy_json() -> String {
    serde_json::to_string(&policy()).expect("policy serialises")
}

/// Work amounts per workload.
struct Scale {
    tenants: usize,
    /// Confidential itool paragraphs per tenant in the starting store.
    seed_secrets: usize,
    /// Background wiki and gdocs paragraphs per tenant.
    seed_background: usize,
    /// Sessions (typing), documents (ingest) or copy chains (relay).
    units: usize,
}

impl Scale {
    fn of(workload: Workload, seconds: u64, smoke: bool) -> Self {
        // Units per second of load on a 2-core x86-64 host.
        let (tenants, seed_secrets, seed_background, per_second) = match workload {
            Workload::Typing => (4, 400, 800, 70.0),
            Workload::Ingest => (4, 400, 600, 25.0),
            Workload::Relay => (2, 500, 1000, 500.0),
        };
        if smoke {
            return Self {
                tenants,
                seed_secrets: 20,
                seed_background: 20,
                units: 10,
            };
        }
        Self {
            tenants,
            seed_secrets,
            seed_background,
            units: ((seconds.max(1) as f64) * per_second).ceil() as usize,
        }
    }
}

/// SplitMix64: small, seedable and identical on every platform.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    /// Uniform in `lo..=hi`.
    fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next() % (hi - lo + 1) as u64) as usize
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }

    /// `n` values evenly spread over `lo..=hi`, in seeded order.
    fn stratified(&mut self, n: usize, lo: usize, hi: usize) -> Vec<usize> {
        let span = (hi - lo) as f64;
        let mut values: Vec<usize> = (0..n)
            .map(|i| lo + (span * (2 * i + 1) as f64 / (2 * n) as f64).round() as usize)
            .collect();
        self.shuffle(&mut values);
        values
    }

    /// `n` flags of which `round(n * share)` are set, in seeded order.
    fn flags(&mut self, n: usize, share: f64) -> Vec<bool> {
        let set = (n as f64 * share).round() as usize;
        let mut flags: Vec<bool> = (0..n).map(|i| i < set).collect();
        self.shuffle(&mut flags);
        flags
    }
}

struct Gen {
    rng: Rng,
    text: TextGen,
}

fn slot(index: usize, text: &str) -> ParagraphSlot {
    ParagraphSlot {
        index,
        text: text.to_string(),
    }
}

fn slots(paragraphs: &[String]) -> Vec<ParagraphSlot> {
    paragraphs
        .iter()
        .enumerate()
        .map(|(index, text)| slot(index, text))
        .collect()
}

fn action(block: bool) -> &'static str {
    if block {
        "block"
    } else {
        "allow"
    }
}

impl Gen {
    fn new(workload: Workload, seed: u64) -> Self {
        let mut rng = Rng(seed ^ (workload as u64).wrapping_mul(0xA076_1D64_78BD_642F));
        let text = TextGen::new(rng.next());
        Self { rng, text }
    }

    /// Prose of at least `chars` bytes, ending on a sentence.
    fn prose(&mut self, chars: usize) -> String {
        let mut out = String::new();
        while out.len() < chars {
            if !out.is_empty() {
                out.push(' ');
            }
            out.push_str(&self.text.sentence());
        }
        out
    }

    fn prose_between(&mut self, lo: usize, hi: usize) -> String {
        let chars = self.rng.range(lo, hi);
        self.prose(chars)
    }

    /// Builds the starting store and returns each tenant's confidential
    /// itool paragraphs.
    fn seed_store(&mut self, plan: &mut Plan, scale: &Scale) -> Vec<Vec<String>> {
        let mut secrets = Vec::new();
        for tenant in &plan.tenants {
            let itool: Vec<String> = (0..scale.seed_secrets)
                .map(|_| self.prose_between(300, 600))
                .collect();
            let half = scale.seed_background / 2;
            let wiki: Vec<String> = (0..half).map(|_| self.prose_between(200, 800)).collect();
            let gdocs: Vec<String> = (0..scale.seed_background - half)
                .map(|_| self.prose_between(200, 800))
                .collect();
            for (service, paragraphs) in [(ITOOL, &itool), (WIKI, &wiki), (GDOCS, &gdocs)] {
                for (doc, chunk) in paragraphs.chunks(SEED_FRAME_PARAGRAPHS).enumerate() {
                    plan.seed_paragraphs += chunk.len();
                    plan.seed_frames.push(Request::ObserveBatch {
                        tenant: tenant.clone(),
                        service: service.to_string(),
                        document: format!("seed-{doc}"),
                        paragraphs: slots(chunk),
                    });
                }
            }
            secrets.push(itool);
        }
        secrets
    }

    /// Editing sessions in gdocs: per session 15 keystrokes on one
    /// paragraph, 4 whole-document rechecks and 1 save (75 / 20 / 5 %).
    /// A tenth of the sessions paste one of the tenant's secrets at the
    /// sixth keystroke and must block from then on.
    fn typing(&mut self, plan: &mut Plan, scale: &Scale, secrets: &[Vec<String>]) {
        const KEYSTROKES: usize = 15;
        const PASTE_AT: usize = 5;
        const CHECK_AFTER: [usize; 4] = [3, 7, 11, 14];
        let n = scale.units;
        let paragraph_counts = self.rng.stratified(n, 3, 5);
        let long_active = self.rng.flags(n, 0.2);
        let long_lengths = self.rng.stratified(n, 4_000, 16_000);
        let short_lengths = self.rng.stratified(n, 200, 800);
        let leaky = self.rng.flags(n, 0.1);
        for s in 0..n {
            let tenant = s % plan.tenants.len();
            let name = plan.tenants[tenant].clone();
            let document = format!("s{s}");
            let active = self.rng.range(0, paragraph_counts[s] - 1);
            let mut paragraphs: Vec<String> = (0..paragraph_counts[s])
                .map(|i| {
                    if i != active {
                        self.prose_between(200, 800)
                    } else if long_active[s] {
                        self.prose(long_lengths[s])
                    } else {
                        self.prose(short_lengths[s])
                    }
                })
                .collect();
            let pool = &secrets[tenant];
            let secret = &pool[self.rng.range(0, pool.len() - 1)];
            let mut pasted = false;
            for k in 0..KEYSTROKES {
                let addition = if leaky[s] && k == PASTE_AT {
                    pasted = true;
                    secret.clone()
                } else {
                    self.text.word()
                };
                paragraphs[active].push(' ');
                paragraphs[active].push_str(&addition);
                plan.ops.push(Op {
                    kind: Kind::Keystroke,
                    tenant,
                    request: Request::Keystroke {
                        tenant: name.clone(),
                        service: GDOCS.to_string(),
                        document: document.clone(),
                        index: active,
                        text: paragraphs[active].clone(),
                    },
                    expect: Expect::Actions(vec![action(pasted)]),
                    alert: None,
                });
                if CHECK_AFTER.contains(&k) {
                    let expect = (0..paragraphs.len())
                        .map(|i| action(pasted && i == active))
                        .collect();
                    plan.ops.push(Op {
                        kind: Kind::Check,
                        tenant,
                        request: Request::Check {
                            tenant: name.clone(),
                            service: GDOCS.to_string(),
                            document: document.clone(),
                            paragraphs: slots(&paragraphs),
                        },
                        expect: Expect::Actions(expect),
                        alert: None,
                    });
                }
            }
            plan.ops.push(Op {
                kind: Kind::Observe,
                tenant,
                request: Request::ObserveBatch {
                    tenant: name,
                    service: GDOCS.to_string(),
                    document,
                    paragraphs: slots(&paragraphs),
                },
                expect: Expect::Observed,
                alert: None,
            });
        }
    }

    /// Provisioning: per document one `ObserveBatch` frame of 20–200
    /// paragraphs (itool, wiki or gdocs), two keystrokes in a gdocs
    /// draft and, for three documents in five, an upload check of a fresh
    /// gdocs document. A third of those checks copy a confidential
    /// paragraph ingested earlier and must block.
    fn ingest(&mut self, plan: &mut Plan, scale: &Scale, mut confidential: Vec<Vec<String>>) {
        const KEYSTROKES_PER_DOC: usize = 2;
        const KEYSTROKES_PER_DRAFT: usize = 20;
        let n = scale.units;
        let tenants = plan.tenants.len();
        let frame_sizes = self.rng.stratified(n, 20, 200);
        // 0–3 itool, 4–6 wiki, 7–9 gdocs.
        let services = self.rng.stratified(n, 0, 9);
        let checks = self.rng.flags(n, 0.6);
        let check_count = checks.iter().filter(|&&c| c).count();
        let mut leaky = self.rng.flags(check_count, 1.0 / 3.0).into_iter();
        // Per tenant: draft number, its text, keystrokes typed into it.
        let mut drafts: Vec<(usize, String, usize)> = vec![(0, String::new(), 0); tenants];
        for d in 0..n {
            let tenant = d % tenants;
            let name = plan.tenants[tenant].clone();
            let service = match services[d] {
                0..=3 => ITOOL,
                4..=6 => WIKI,
                _ => GDOCS,
            };
            let paragraphs: Vec<String> = (0..frame_sizes[d])
                .map(|_| self.prose_between(120, 360))
                .collect();
            if service != GDOCS {
                // Keep a few per document as copy sources for later checks.
                confidential[tenant].extend(paragraphs.iter().take(3).cloned());
            }
            plan.ops.push(Op {
                kind: Kind::Observe,
                tenant,
                request: Request::ObserveBatch {
                    tenant: name.clone(),
                    service: service.to_string(),
                    document: format!("i{d}"),
                    paragraphs: slots(&paragraphs),
                },
                expect: Expect::Observed,
                alert: None,
            });
            for _ in 0..KEYSTROKES_PER_DOC {
                let (number, text, typed) = &mut drafts[tenant];
                if typed.is_multiple_of(KEYSTROKES_PER_DRAFT) {
                    *number += 1;
                    *text = self.prose_between(200, 400);
                }
                *typed += 1;
                text.push(' ');
                text.push_str(&self.text.word());
                plan.ops.push(Op {
                    kind: Kind::Keystroke,
                    tenant,
                    request: Request::Keystroke {
                        tenant: name.clone(),
                        service: GDOCS.to_string(),
                        document: format!("draft-{number}"),
                        index: 0,
                        text: text.clone(),
                    },
                    expect: Expect::Actions(vec!["allow"]),
                    alert: None,
                });
            }
            if checks[d] {
                let mut upload: Vec<String> =
                    (0..4).map(|_| self.prose_between(200, 600)).collect();
                let copies = leaky.next().expect("one flag per check");
                if copies {
                    let pool = &confidential[tenant];
                    let source = pool[self.rng.range(0, pool.len() - 1)].clone();
                    let extra = self.prose_between(40, 80);
                    upload[1] = format!("{source} {extra}");
                }
                plan.ops.push(Op {
                    kind: Kind::Check,
                    tenant,
                    request: Request::Check {
                        tenant: name,
                        service: GDOCS.to_string(),
                        document: format!("u{d}"),
                        paragraphs: slots(&upload),
                    },
                    expect: Expect::Actions((0..4).map(|i| action(copies && i == 1)).collect()),
                    alert: None,
                });
            }
        }
    }

    /// Copy chains: per chain a fresh itool paragraph is observed, a wiki
    /// page observes it with its own framing, and a gdocs draft types
    /// three words, pastes the framed page (which must block and raise
    /// an alert), types once more and is rechecked.
    fn relay(&mut self, plan: &mut Plan, scale: &Scale) {
        const TYPED_BEFORE: usize = 3;
        let secret_lengths = self.rng.stratified(scale.units, 300, 600);
        for (c, secret_length) in secret_lengths.into_iter().enumerate() {
            let tenant = c % plan.tenants.len();
            let name = plan.tenants[tenant].clone();
            let secret = self.prose(secret_length);
            let framed = format!(
                "{} {secret} {}",
                self.prose_between(60, 120),
                self.prose_between(60, 120)
            );
            for (service, document, text) in [
                (ITOOL, format!("src{c}"), secret),
                (WIKI, format!("page{c}"), framed.clone()),
            ] {
                plan.ops.push(Op {
                    kind: Kind::Observe,
                    tenant,
                    request: Request::Observe {
                        tenant: name.clone(),
                        service: service.to_string(),
                        document,
                        index: 0,
                        text,
                    },
                    expect: Expect::Observed,
                    alert: None,
                });
            }
            let document = format!("r{c}");
            let intro = self.prose_between(200, 400);
            let mut draft = self.prose_between(100, 200);
            for k in 0..=TYPED_BEFORE + 1 {
                let paste = k == TYPED_BEFORE;
                let addition = if paste {
                    framed.clone()
                } else {
                    self.text.word()
                };
                draft.push(' ');
                draft.push_str(&addition);
                plan.ops.push(Op {
                    kind: Kind::Keystroke,
                    tenant,
                    request: Request::Keystroke {
                        tenant: name.clone(),
                        service: GDOCS.to_string(),
                        document: document.clone(),
                        index: 1,
                        text: draft.clone(),
                    },
                    expect: Expect::Actions(vec![action(k >= TYPED_BEFORE)]),
                    alert: paste.then(|| format!("{GDOCS}/{document}#p1")),
                });
            }
            plan.ops.push(Op {
                kind: Kind::Check,
                tenant,
                request: Request::Check {
                    tenant: name,
                    service: GDOCS.to_string(),
                    document,
                    paragraphs: vec![slot(0, &intro), slot(1, &draft)],
                },
                expect: Expect::Actions(vec!["allow", "block"]),
                alert: None,
            });
        }
    }
}
