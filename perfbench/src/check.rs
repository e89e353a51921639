//! Ground truth: comparing replies with what the generator expects, the
//! zero-silent-drop ledger, and the alert check.

use std::collections::HashSet;

use browserflow::ExfiltrationAlert;
use browserflow_daemon::Reply;

use crate::gen::Expect;

/// Alerts a tenant may owe before they are checked. The daemon keeps
/// only the newest 1024 alerts per tenant, so checks must come sooner.
pub const ALERT_CHECK_EVERY: usize = 256;

/// How one reply compares with its expectation.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// The expected reply.
    Correct,
    /// A reply of the right shape with the wrong content.
    Wrong(String),
    /// An admission refusal.
    Backpressure,
    /// A newer keystroke superseded the check (coalescing).
    Superseded,
    /// An error reply, or a reply of the wrong shape.
    Error(String),
}

/// Compares `reply` with `expect`.
pub fn judge(expect: &Expect, reply: &Reply) -> Outcome {
    match (expect, reply) {
        (_, Reply::Backpressure { .. }) => Outcome::Backpressure,
        (_, Reply::Superseded) => Outcome::Superseded,
        (_, Reply::Error { message }) => Outcome::Error(message.clone()),
        (Expect::Observed, Reply::Observed) => Outcome::Correct,
        (Expect::Actions(wanted), Reply::Decisions { decisions, .. }) => {
            let got: Vec<&str> = decisions.iter().map(|d| d.action.as_str()).collect();
            if got == *wanted {
                Outcome::Correct
            } else {
                Outcome::Wrong(format!("expected {wanted:?}, got {got:?}"))
            }
        }
        (expect, other) => Outcome::Error(format!("expected {expect:?}, got {other:?}")),
    }
}

/// Reply counts for the zero-silent-drop ledger.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ledger {
    /// Keystroke and check requests sent.
    pub sent: u64,
    /// ... answered with decisions.
    pub decisions: u64,
    /// ... answered as superseded.
    pub superseded: u64,
    /// ... refused with backpressure.
    pub backpressure: u64,
    /// Requests of any kind answered with an error or a wrong-shaped reply.
    pub errors: u64,
    /// Observe requests sent.
    pub observes_sent: u64,
    /// ... answered `Observed`.
    pub observed: u64,
}

impl Ledger {
    /// Records one reply to a decision request (`decides`) or an observe.
    pub fn record(&mut self, decides: bool, outcome: &Outcome) {
        if !decides {
            self.observes_sent += 1;
            match outcome {
                Outcome::Correct => self.observed += 1,
                _ => self.errors += 1,
            }
            return;
        }
        self.sent += 1;
        match outcome {
            Outcome::Correct | Outcome::Wrong(_) => self.decisions += 1,
            Outcome::Superseded => self.superseded += 1,
            Outcome::Backpressure => self.backpressure += 1,
            Outcome::Error(_) => self.errors += 1,
        }
    }

    /// Every request came back as a decision, a supersession or a
    /// refusal; every observe as `Observed`.
    pub fn holds(&self) -> bool {
        self.sent == self.decisions + self.superseded + self.backpressure
            && self.observes_sent == self.observed
    }
}

/// Sink segments that must each have raised an alert, per tenant.
#[derive(Debug, Clone, Default)]
pub struct AlertCheck {
    pending: Vec<Vec<String>>,
    /// Alerts checked and found.
    pub found: u64,
    /// Alerts checked and missing.
    pub missing: u64,
}

impl AlertCheck {
    /// A check over `tenants` tenants.
    pub fn new(tenants: usize) -> Self {
        Self {
            pending: vec![Vec::new(); tenants],
            ..Self::default()
        }
    }

    /// Notes that `segment` of `tenant` must have raised an alert; returns
    /// whether the tenant's alerts are due for checking.
    pub fn expect(&mut self, tenant: usize, segment: String) -> bool {
        self.pending[tenant].push(segment);
        self.pending[tenant].len() >= ALERT_CHECK_EVERY
    }

    /// Tenants with alerts still to check.
    pub fn tenants_pending(&self) -> Vec<usize> {
        (0..self.pending.len())
            .filter(|&t| !self.pending[t].is_empty())
            .collect()
    }

    /// Checks `tenant`'s pending segments against its current alerts.
    pub fn verify(&mut self, tenant: usize, alerts: &[ExfiltrationAlert]) {
        let segments: HashSet<&str> = alerts.iter().map(|a| a.segment.as_str()).collect();
        self.verify_segments(tenant, &segments);
    }

    /// Checks `tenant`'s pending segments against a set of alerted ones.
    pub fn verify_segments(&mut self, tenant: usize, alerted: &HashSet<&str>) {
        for segment in self.pending[tenant].drain(..) {
            if alerted.contains(segment.as_str()) {
                self.found += 1;
            } else {
                self.missing += 1;
            }
        }
    }
}

/// Every `"segment"` string value in an encoded `Reply::Alerts` body, or
/// `None` when the body is not one. Alert segments are among them; the
/// others are hop sources, which never name a sink segment.
///
/// A full decode of a 1024-alert reply with the vendored JSON parser
/// takes seconds, which would make verification dominate the run.
pub fn alert_segments(body: &[u8]) -> Option<HashSet<&str>> {
    let text = std::str::from_utf8(body).ok()?;
    if !text.trim_start().starts_with("{\"Alerts\"") {
        return None;
    }
    let mut segments = HashSet::new();
    let key = "\"segment\"";
    let mut rest = text;
    while let Some(at) = rest.find(key) {
        rest = rest[at + key.len()..].trim_start();
        rest = rest.strip_prefix(':')?.trim_start();
        rest = rest.strip_prefix('"')?;
        let end = rest.find(['"', '\\'])?;
        if rest.as_bytes()[end] == b'\\' {
            // Generated segment names never need escapes.
            return None;
        }
        segments.insert(&rest[..end]);
        rest = &rest[end + 1..];
    }
    Some(segments)
}
