//! Multi-tenant admission over the asynchronous pipeline (§5 deployment).
//!
//! A disclosure daemon serves many users from one process. Each tenant
//! owns an isolated [`BrowserFlow`] — its own stores, labels and audit
//! trail — behind its own [`AsyncDecider`], so one tenant's fingerprints
//! can never match another tenant's uploads and one tenant's queue
//! pressure never stalls another tenant's keystrokes.
//!
//! The layer this module adds is *admission control*: every check enters
//! through [`Tenant::try_check`], which enforces a per-tenant in-flight
//! quota and converts the decider's bounded-queue refusal
//! ([`TrySubmitError::QueueFull`]) into a typed [`AdmissionError`]. The
//! caller (the `bfd` daemon front-end) turns that into a structured
//! backpressure reply — overload is *reported*, never silently dropped.
//!
//! [`TenantRegistry::drain_all`] implements graceful shutdown: each
//! decider drains its queue ([`AsyncDecider::shutdown`]), pending callers
//! get real decisions, and the recovered [`BrowserFlow`] is persisted as
//! a sealed state directory per tenant.

use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use crate::asynchronous::{
    AsyncDecider, DeciderConfig, DeciderError, PendingBatch, PipelineStats, TrySubmitError,
};
use crate::middleware::BrowserFlow;
use crate::request::CheckRequest;
use crate::state::StateError;

// --- Tenant identity ------------------------------------------------------

/// A validated tenant name.
///
/// Tenant ids become directory names under the daemon's state root and
/// appear verbatim in audit output, so the alphabet is restricted to
/// `[A-Za-z0-9._-]`, the first byte must be alphanumeric, and the length
/// is capped at 64 bytes.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TenantId(String);

/// Why a tenant name was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TenantIdError {
    /// The name was empty.
    Empty,
    /// The name exceeded 64 bytes.
    TooLong,
    /// The name contained a byte outside `[A-Za-z0-9._-]`, or did not
    /// start with an alphanumeric byte.
    BadCharacter,
}

impl fmt::Display for TenantIdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Empty => f.write_str("tenant id is empty"),
            Self::TooLong => f.write_str("tenant id exceeds 64 bytes"),
            Self::BadCharacter => {
                f.write_str("tenant id must start alphanumeric and use only [A-Za-z0-9._-]")
            }
        }
    }
}

impl std::error::Error for TenantIdError {}

impl TenantId {
    /// Validates and wraps a tenant name.
    ///
    /// # Errors
    ///
    /// Returns [`TenantIdError`] when the name is empty, longer than 64
    /// bytes, or contains a byte outside the directory-safe alphabet.
    pub fn new(name: impl Into<String>) -> Result<Self, TenantIdError> {
        let name = name.into();
        if name.is_empty() {
            return Err(TenantIdError::Empty);
        }
        if name.len() > 64 {
            return Err(TenantIdError::TooLong);
        }
        let mut bytes = name.bytes();
        let first = bytes.next().expect("checked non-empty");
        if !first.is_ascii_alphanumeric() {
            return Err(TenantIdError::BadCharacter);
        }
        if !bytes.all(|b| b.is_ascii_alphanumeric() || matches!(b, b'.' | b'_' | b'-')) {
            return Err(TenantIdError::BadCharacter);
        }
        Ok(Self(name))
    }

    /// The validated name.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::str::FromStr for TenantId {
    type Err = TenantIdError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Self::new(s)
    }
}

// --- Admission ------------------------------------------------------------

/// Per-tenant pipeline tunables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantConfig {
    /// Maximum checks a tenant may have in flight (admitted but not yet
    /// decided) before admission refuses with
    /// [`AdmissionError::QuotaExceeded`].
    pub max_in_flight: usize,
    /// Tunables for the tenant's private [`AsyncDecider`].
    pub decider: DeciderConfig,
}

impl Default for TenantConfig {
    fn default() -> Self {
        Self {
            max_in_flight: 64,
            decider: DeciderConfig::default(),
        }
    }
}

/// Why a request was refused at the admission boundary.
///
/// Every variant is *backpressure, not loss*: the caller learns exactly
/// why the check did not run and can retry; nothing is silently dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum AdmissionError {
    /// The tenant is at its in-flight quota.
    QuotaExceeded {
        /// Checks currently in flight for this tenant.
        in_flight: usize,
        /// The tenant's quota.
        max_in_flight: usize,
    },
    /// The tenant's decider queue is at capacity
    /// ([`TrySubmitError::QueueFull`]).
    QueueFull {
        /// The decider's configured queue capacity.
        queue_capacity: usize,
    },
    /// The tenant is draining (or drained) and accepts no new work.
    Draining,
}

impl fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::QuotaExceeded {
                in_flight,
                max_in_flight,
            } => write!(
                f,
                "tenant quota exceeded: {in_flight} of {max_in_flight} checks in flight"
            ),
            Self::QueueFull { queue_capacity } => {
                write!(f, "tenant queue full (capacity {queue_capacity})")
            }
            Self::Draining => f.write_str("tenant is draining"),
        }
    }
}

impl std::error::Error for AdmissionError {}

/// An admitted check's slot in the tenant's in-flight accounting.
///
/// Dropping the permit releases the slot; hold it until the decision has
/// been delivered (or abandoned) so the quota reflects real outstanding
/// work.
#[derive(Debug)]
pub struct InFlightPermit {
    in_flight: Arc<AtomicUsize>,
}

impl InFlightPermit {
    fn acquire(in_flight: &Arc<AtomicUsize>, max_in_flight: usize) -> Result<Self, AdmissionError> {
        let mut current = in_flight.load(Ordering::Relaxed);
        loop {
            if current >= max_in_flight {
                return Err(AdmissionError::QuotaExceeded {
                    in_flight: current,
                    max_in_flight,
                });
            }
            match in_flight.compare_exchange_weak(
                current,
                current + 1,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    return Ok(Self {
                        in_flight: Arc::clone(in_flight),
                    })
                }
                Err(observed) => current = observed,
            }
        }
    }
}

impl Drop for InFlightPermit {
    fn drop(&mut self) {
        self.in_flight.fetch_sub(1, Ordering::AcqRel);
    }
}

// --- Tenant ---------------------------------------------------------------

/// One tenant: an isolated [`BrowserFlow`] behind its own decider, plus
/// the admission state guarding it.
pub struct Tenant {
    id: TenantId,
    config: TenantConfig,
    decider: RwLock<Option<AsyncDecider>>,
    in_flight: Arc<AtomicUsize>,
}

impl Tenant {
    fn spawn(id: TenantId, flow: BrowserFlow, config: TenantConfig) -> Self {
        Self {
            id,
            config,
            decider: RwLock::new(Some(AsyncDecider::spawn_with(flow, config.decider))),
            in_flight: Arc::new(AtomicUsize::new(0)),
        }
    }

    /// The tenant's validated id.
    pub fn id(&self) -> &TenantId {
        &self.id
    }

    /// The tenant's admission configuration.
    pub fn config(&self) -> TenantConfig {
        self.config
    }

    /// Checks currently admitted but not yet released.
    pub fn in_flight(&self) -> usize {
        self.in_flight.load(Ordering::Relaxed)
    }

    /// Admits a check: quota first, then the decider's bounded queue.
    ///
    /// On success the caller holds both the pending decision and the
    /// in-flight permit; the permit must outlive the wait.
    ///
    /// # Errors
    ///
    /// Returns [`AdmissionError`] when the quota or queue refuses — the
    /// request has *not* been enqueued and the caller must reply with
    /// backpressure, not drop the check on the floor.
    pub fn try_check(
        &self,
        request: CheckRequest<'_>,
    ) -> Result<(PendingBatch, InFlightPermit), AdmissionError> {
        self.admit(|decider| decider.try_submit(request))
    }

    /// Admits a coalescing keystroke check (same quota and queue gates as
    /// [`Tenant::try_check`]; superseded keystrokes release their permits
    /// when the caller drops them).
    ///
    /// # Errors
    ///
    /// Returns [`AdmissionError`] when the quota or queue refuses.
    pub fn try_keystroke(
        &self,
        service: impl Into<browserflow_tdm::ServiceId>,
        document: impl Into<String>,
        index: usize,
        text: impl Into<String>,
    ) -> Result<(PendingBatch, InFlightPermit), AdmissionError> {
        self.admit(|decider| decider.submit_keystroke(service, document, index, text))
    }

    /// The admission gates shared by [`Tenant::try_check`] and
    /// [`Tenant::try_keystroke`]: quota first, then `submit` against the
    /// decider's bounded queue, with either refusal mapped to an
    /// [`AdmissionError`].
    fn admit(
        &self,
        submit: impl FnOnce(&AsyncDecider) -> Result<PendingBatch, TrySubmitError>,
    ) -> Result<(PendingBatch, InFlightPermit), AdmissionError> {
        let guard = self.decider.read();
        let decider = guard.as_ref().ok_or(AdmissionError::Draining)?;
        let permit = InFlightPermit::acquire(&self.in_flight, self.config.max_in_flight)?;
        match submit(decider) {
            Ok(pending) => Ok((pending, permit)),
            Err(TrySubmitError::QueueFull) => Err(AdmissionError::QueueFull {
                queue_capacity: self.config.decider.queue_capacity,
            }),
            Err(TrySubmitError::Closed) => Err(AdmissionError::Draining),
        }
    }

    /// Observes a paragraph (stores its fingerprint) on the tenant's
    /// worker, waiting for completion.
    ///
    /// # Errors
    ///
    /// [`DeciderError::Closed`] when the tenant is draining; otherwise
    /// whatever the pipeline reports.
    pub fn observe(
        &self,
        service: impl Into<browserflow_tdm::ServiceId>,
        document: impl Into<String>,
        index: usize,
        text: impl Into<String>,
    ) -> Result<(), DeciderError> {
        let guard = self.decider.read();
        let decider = guard.as_ref().ok_or(DeciderError::Closed)?;
        decider.observe(service.into(), document.into(), index, text.into())
    }

    /// Bulk-ingests a document's paragraph slots on the tenant's worker
    /// in one queue round-trip
    /// ([`AsyncDecider::observe_batch`](crate::AsyncDecider::observe_batch)),
    /// waiting for completion. Returns the number of paragraphs observed.
    ///
    /// # Errors
    ///
    /// [`DeciderError::Closed`] when the tenant is draining; otherwise
    /// whatever the pipeline reports.
    pub fn observe_batch(
        &self,
        service: impl Into<browserflow_tdm::ServiceId>,
        document: impl Into<String>,
        paragraphs: Vec<(usize, String)>,
    ) -> Result<usize, DeciderError> {
        let guard = self.decider.read();
        let decider = guard.as_ref().ok_or(DeciderError::Closed)?;
        decider.observe_batch(service.into(), document.into(), paragraphs)
    }

    /// Runs a read-only closure against the tenant's [`BrowserFlow`] on
    /// its worker thread, in queue order with the pending checks, and
    /// returns the closure's result.
    ///
    /// This is the daemon's inspection hook: lineage queries, alert
    /// listings and background snapshots all go through here so they see
    /// a consistent flow without draining the tenant.
    ///
    /// # Errors
    ///
    /// [`DeciderError::Closed`] when the tenant is draining.
    pub fn with_flow<T: Send + 'static>(
        &self,
        f: impl FnOnce(&BrowserFlow) -> T + Send + 'static,
    ) -> Result<T, DeciderError> {
        let guard = self.decider.read();
        let decider = guard.as_ref().ok_or(DeciderError::Closed)?;
        decider.with_flow(f)
    }

    /// Persists the tenant's current state to `dir` *without* draining:
    /// the snapshot runs on the worker thread in queue order, so it is a
    /// consistent cut, and the tenant keeps serving afterwards.
    ///
    /// # Errors
    ///
    /// [`StateError::Unsupported`] when the tenant is draining; otherwise
    /// whatever persistence reports.
    pub fn snapshot_to(&self, dir: &Path, tiered: bool) -> Result<(), StateError> {
        let dir = dir.to_path_buf();
        self.with_flow(move |flow| persist_tenant(flow, &dir, tiered))
            .map_err(|_| StateError::Unsupported("tenant is draining"))?
    }

    /// A snapshot of the tenant's pipeline counters, or `None` once the
    /// tenant has drained.
    pub fn stats(&self) -> Option<PipelineStats> {
        self.decider.read().as_ref().map(AsyncDecider::stats)
    }

    /// Takes the decider out of the tenant (subsequent admissions see
    /// [`AdmissionError::Draining`]) and drains it gracefully.
    fn drain(&self) -> Option<(PipelineStats, Result<BrowserFlow, DeciderError>)> {
        let decider = self.decider.write().take()?;
        let stats = decider.stats();
        Some((stats, decider.shutdown()))
    }
}

impl fmt::Debug for Tenant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tenant")
            .field("id", &self.id)
            .field("in_flight", &self.in_flight())
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

// --- Registry -------------------------------------------------------------

/// Why a registry operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RegistryError {
    /// A tenant with this id already exists.
    DuplicateTenant(TenantId),
    /// No tenant with this id exists.
    UnknownTenant(String),
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::DuplicateTenant(id) => write!(f, "tenant {id} already exists"),
            Self::UnknownTenant(name) => write!(f, "no tenant named {name}"),
        }
    }
}

impl std::error::Error for RegistryError {}

/// What happened to one tenant during [`TenantRegistry::drain_all`].
#[derive(Debug)]
pub struct TenantDrainReport {
    /// The tenant.
    pub tenant: TenantId,
    /// Final pipeline counters at the moment the drain began.
    pub stats: PipelineStats,
    /// Where the tenant's sealed state directory was written, when a
    /// state root was supplied and persistence succeeded.
    pub persisted_to: Option<PathBuf>,
    /// The first error hit while draining or persisting, if any. The
    /// drain continues past failures so every tenant gets its chance.
    pub error: Option<String>,
}

/// The daemon's tenant table: id → isolated pipeline.
#[derive(Debug, Default)]
pub struct TenantRegistry {
    tenants: RwLock<HashMap<TenantId, Arc<Tenant>>>,
}

impl TenantRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a tenant around `flow`, spawning its private decider.
    ///
    /// # Errors
    ///
    /// [`RegistryError::DuplicateTenant`] if the id is taken.
    pub fn create(
        &self,
        id: TenantId,
        flow: BrowserFlow,
        config: TenantConfig,
    ) -> Result<Arc<Tenant>, RegistryError> {
        let mut tenants = self.tenants.write();
        if tenants.contains_key(&id) {
            return Err(RegistryError::DuplicateTenant(id));
        }
        let tenant = Arc::new(Tenant::spawn(id.clone(), flow, config));
        tenants.insert(id, Arc::clone(&tenant));
        Ok(tenant)
    }

    /// Looks a tenant up by name.
    pub fn get(&self, name: &str) -> Option<Arc<Tenant>> {
        let id = TenantId::new(name).ok()?;
        self.tenants.read().get(&id).cloned()
    }

    /// All tenant ids, sorted.
    pub fn list(&self) -> Vec<TenantId> {
        let mut ids: Vec<TenantId> = self.tenants.read().keys().cloned().collect();
        ids.sort();
        ids
    }

    /// Number of registered tenants.
    pub fn len(&self) -> usize {
        self.tenants.read().len()
    }

    /// Whether no tenants are registered.
    pub fn is_empty(&self) -> bool {
        self.tenants.read().is_empty()
    }

    /// Drains every tenant: queues finish ([`AsyncDecider::shutdown`]),
    /// pending callers get decisions, and — when `state_root` is given —
    /// each recovered [`BrowserFlow`] is persisted to
    /// `state_root/<tenant-id>` as a sealed state directory.
    ///
    /// Failures are per-tenant and recorded in the reports; one tenant's
    /// broken persistence never aborts another tenant's drain.
    pub fn drain_all(&self, state_root: Option<&Path>) -> Vec<TenantDrainReport> {
        self.drain_all_with(state_root, false)
    }

    /// Like [`TenantRegistry::drain_all`], but when `tiered` is set each
    /// tenant's fingerprint stores are persisted as plain v3 tiered
    /// directories ([`BrowserFlow::persist_tiered_to_dir`]), so the next
    /// daemon bind maps the cold shards in place instead of decoding
    /// every fingerprint up front.
    pub fn drain_all_with(
        &self,
        state_root: Option<&Path>,
        tiered: bool,
    ) -> Vec<TenantDrainReport> {
        let tenants: Vec<Arc<Tenant>> = {
            let mut table = self.tenants.write();
            let mut entries: Vec<_> = table.drain().map(|(_, tenant)| tenant).collect();
            entries.sort_by(|a, b| a.id.cmp(&b.id));
            entries
        };
        tenants
            .into_iter()
            .filter_map(|tenant| {
                let (stats, flow) = tenant.drain()?;
                let mut report = TenantDrainReport {
                    tenant: tenant.id.clone(),
                    stats,
                    persisted_to: None,
                    error: None,
                };
                match flow {
                    Ok(flow) => {
                        if let Some(root) = state_root {
                            let dir = root.join(tenant.id.as_str());
                            match persist_tenant(&flow, &dir, tiered) {
                                Ok(()) => report.persisted_to = Some(dir),
                                Err(e) => report.error = Some(e.to_string()),
                            }
                        }
                    }
                    Err(e) => report.error = Some(e.to_string()),
                }
                Some(report)
            })
            .collect()
    }

    /// Snapshots every live tenant to `state_root/<tenant-id>` *without*
    /// draining anyone: each snapshot runs on that tenant's worker in
    /// queue order, so every cut is internally consistent and service
    /// continues uninterrupted.
    ///
    /// Tenants that are mid-drain are skipped (their drain persists them).
    /// Failures are per-tenant; one tenant's broken persistence never
    /// blocks another's snapshot.
    pub fn snapshot_all_with(
        &self,
        state_root: &Path,
        tiered: bool,
    ) -> Vec<(TenantId, Result<PathBuf, StateError>)> {
        let tenants: Vec<Arc<Tenant>> = {
            let table = self.tenants.read();
            let mut entries: Vec<_> = table.values().cloned().collect();
            entries.sort_by(|a, b| a.id.cmp(&b.id));
            entries
        };
        tenants
            .into_iter()
            .filter_map(|tenant| {
                let dir = state_root.join(tenant.id.as_str());
                match tenant.snapshot_to(&dir, tiered) {
                    Ok(()) => Some((tenant.id.clone(), Ok(dir))),
                    Err(StateError::Unsupported(_)) => None,
                    Err(e) => Some((tenant.id.clone(), Err(e))),
                }
            })
            .collect()
    }
}

fn persist_tenant(flow: &BrowserFlow, dir: &Path, tiered: bool) -> Result<(), StateError> {
    std::fs::create_dir_all(dir)?;
    if tiered {
        flow.persist_tiered_to_dir(dir)
    } else {
        flow.persist_to_dir(dir)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::middleware::{EnforcementMode, UploadAction};
    use browserflow_store::StoreKey;
    use browserflow_tdm::{Service, Tag, TagSet};

    const SECRET: &str = "a long enough confidential paragraph about interview scoring \
                          criteria to produce a solid fingerprint for matching";

    fn flow() -> BrowserFlow {
        let ti = Tag::new("ti").unwrap();
        BrowserFlow::builder()
            .mode(EnforcementMode::Block)
            .store_key(StoreKey::from_bytes([5u8; 32]))
            .service(
                Service::new("itool", "Interview Tool")
                    .with_privilege(TagSet::from_iter([ti.clone()]))
                    .with_confidentiality(TagSet::from_iter([ti])),
            )
            .service(Service::new("gdocs", "Google Docs"))
            .build()
            .unwrap()
    }

    fn tid(name: &str) -> TenantId {
        TenantId::new(name).unwrap()
    }

    #[test]
    fn tenant_id_validation() {
        assert!(TenantId::new("alice").is_ok());
        assert!(TenantId::new("team-a.prod_2").is_ok());
        assert_eq!(TenantId::new(""), Err(TenantIdError::Empty));
        assert_eq!(TenantId::new("a".repeat(65)), Err(TenantIdError::TooLong));
        assert_eq!(TenantId::new("../etc"), Err(TenantIdError::BadCharacter));
        assert_eq!(TenantId::new("-dash"), Err(TenantIdError::BadCharacter));
        assert_eq!(TenantId::new("a/b"), Err(TenantIdError::BadCharacter));
        assert_eq!(TenantId::new("a b"), Err(TenantIdError::BadCharacter));
    }

    #[test]
    fn tenants_are_isolated() {
        let registry = TenantRegistry::new();
        let alice = registry
            .create(tid("alice"), flow(), TenantConfig::default())
            .unwrap();
        let bob = registry
            .create(tid("bob"), flow(), TenantConfig::default())
            .unwrap();

        // Alice's secret is observed only in Alice's store.
        alice.observe("itool", "eval", 0, SECRET).unwrap();

        let (pending, _permit) = alice
            .try_check(CheckRequest::paragraph("gdocs", "draft", 0, SECRET))
            .unwrap();
        let timed = pending.wait().unwrap();
        assert_eq!(timed.decisions[0].action, UploadAction::Block);

        // Bob uploading the same text sees nothing: his store never saw it.
        let (pending, _permit) = bob
            .try_check(CheckRequest::paragraph("gdocs", "draft", 0, SECRET))
            .unwrap();
        let timed = pending.wait().unwrap();
        assert_eq!(timed.decisions[0].action, UploadAction::Allow);
    }

    #[test]
    fn duplicate_tenant_is_refused() {
        let registry = TenantRegistry::new();
        registry
            .create(tid("alice"), flow(), TenantConfig::default())
            .unwrap();
        assert!(matches!(
            registry.create(tid("alice"), flow(), TenantConfig::default()),
            Err(RegistryError::DuplicateTenant(_))
        ));
        assert_eq!(registry.len(), 1);
    }

    #[test]
    fn quota_refuses_with_structured_backpressure() {
        let registry = TenantRegistry::new();
        let tenant = registry
            .create(
                tid("alice"),
                flow(),
                TenantConfig {
                    max_in_flight: 2,
                    ..TenantConfig::default()
                },
            )
            .unwrap();

        // In-flight accounting is permit-based: the two admitted checks
        // occupy quota slots until *we* release their permits, however
        // fast the worker replies.
        let a = tenant
            .try_check(CheckRequest::paragraph("gdocs", "d", 0, "first"))
            .unwrap();
        let b = tenant
            .try_check(CheckRequest::paragraph("gdocs", "d", 1, "second"))
            .unwrap();
        assert_eq!(tenant.in_flight(), 2);

        let refused = tenant
            .try_check(CheckRequest::paragraph("gdocs", "d", 2, "text"))
            .unwrap_err();
        assert_eq!(
            refused,
            AdmissionError::QuotaExceeded {
                in_flight: 2,
                max_in_flight: 2
            }
        );

        // Releasing a permit frees the slot.
        let (batch, permit) = a;
        batch.wait().unwrap();
        drop(permit);
        drop(b);
        assert_eq!(tenant.in_flight(), 0);
        tenant
            .try_check(CheckRequest::paragraph("gdocs", "d", 2, "text"))
            .unwrap();
    }

    #[test]
    fn queue_full_is_reported_not_dropped() {
        let registry = TenantRegistry::new();
        let tenant = registry
            .create(
                tid("alice"),
                flow(),
                TenantConfig {
                    max_in_flight: 64,
                    decider: DeciderConfig {
                        queue_capacity: 1,
                        check_timeout: None,
                    },
                },
            )
            .unwrap();

        // One stalled check occupies the worker; the queue holds one more.
        let _guard = crate::engine::test_hooks::lock();
        crate::engine::test_hooks::set_delay_ms_on_marker(200);
        let marker = crate::engine::test_hooks::FAULT_MARKER;
        let stall = format!("stall {marker}");
        let _a = tenant
            .try_check(CheckRequest::paragraph("gdocs", "d", 0, stall))
            .unwrap();
        // Fill the queue slot (may take a moment for the worker to pick
        // up the first request).
        let mut admitted = Vec::new();
        let mut saw_queue_full = false;
        for index in 1..50 {
            match tenant.try_check(CheckRequest::paragraph("gdocs", "d", index, "text")) {
                Ok(pending) => admitted.push(pending),
                Err(AdmissionError::QueueFull { queue_capacity }) => {
                    assert_eq!(queue_capacity, 1);
                    saw_queue_full = true;
                    break;
                }
                Err(other) => panic!("unexpected admission error: {other}"),
            }
        }
        crate::engine::test_hooks::set_delay_ms_on_marker(0);
        assert!(saw_queue_full, "bounded queue never refused");
        // Every admitted check resolves — zero silent drops.
        for (batch, permit) in admitted {
            batch.wait().unwrap();
            drop(permit);
        }
    }

    #[test]
    fn drain_persists_every_tenant_and_refuses_new_work() {
        let registry = TenantRegistry::new();
        let alice = registry
            .create(tid("alice"), flow(), TenantConfig::default())
            .unwrap();
        let bob = registry
            .create(tid("bob"), flow(), TenantConfig::default())
            .unwrap();
        alice.observe("itool", "eval", 0, SECRET).unwrap();

        let root = std::env::temp_dir().join(format!("bf-tenancy-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let reports = registry.drain_all(Some(&root));
        assert_eq!(reports.len(), 2);
        for report in &reports {
            assert!(report.error.is_none(), "drain failed: {:?}", report.error);
            assert!(report.persisted_to.as_deref().unwrap().is_dir());
        }
        assert!(registry.is_empty());

        // New work on a retained handle sees Draining.
        assert!(matches!(
            alice.try_check(CheckRequest::paragraph("gdocs", "d", 0, "text")),
            Err(AdmissionError::Draining)
        ));
        assert!(bob.stats().is_none());

        // The persisted state round-trips: Alice's secret still blocks.
        let (restored, report) =
            BrowserFlow::load_from_dir(StoreKey::from_bytes([5u8; 32]), &root.join("alice"))
                .unwrap();
        assert!(report.is_complete());
        let decision = restored
            .check_one(&CheckRequest::paragraph("gdocs", "d", 0, SECRET))
            .unwrap();
        assert_eq!(decision.action, UploadAction::Block);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn tiered_drain_persists_cold_mappable_state() {
        let registry = TenantRegistry::new();
        let alice = registry
            .create(tid("alice"), flow(), TenantConfig::default())
            .unwrap();
        alice.observe("itool", "eval", 0, SECRET).unwrap();

        let root = std::env::temp_dir().join(format!("bf-tenancy-tiered-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let reports = registry.drain_all_with(Some(&root), true);
        assert_eq!(reports.len(), 1);
        assert!(reports[0].error.is_none(), "{:?}", reports[0].error);

        // The restored flow serves Alice's fingerprints from mapped cold
        // shards, and verdicts are unchanged.
        let (restored, report) =
            BrowserFlow::load_from_dir(StoreKey::from_bytes([5u8; 32]), &root.join("alice"))
                .unwrap();
        assert!(report.is_complete());
        assert!(restored.engine().paragraph_store().stats().cold_shards > 0);
        let decision = restored
            .check_one(&CheckRequest::paragraph("gdocs", "d", 0, SECRET))
            .unwrap();
        assert_eq!(decision.action, UploadAction::Block);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn background_snapshot_persists_without_draining() {
        let registry = TenantRegistry::new();
        let alice = registry
            .create(tid("alice"), flow(), TenantConfig::default())
            .unwrap();
        alice.observe("itool", "eval", 0, SECRET).unwrap();

        let root = std::env::temp_dir().join(format!("bf-tenancy-snap-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let results = registry.snapshot_all_with(&root, false);
        assert_eq!(results.len(), 1);
        assert!(results[0].1.is_ok(), "{:?}", results[0].1);

        // The tenant keeps serving: snapshot is non-destructive.
        let (pending, _permit) = alice
            .try_check(CheckRequest::paragraph("gdocs", "draft", 0, SECRET))
            .unwrap();
        assert_eq!(
            pending.wait().unwrap().decisions[0].action,
            UploadAction::Block
        );

        // The snapshot alone round-trips the observation.
        let (restored, report) =
            BrowserFlow::load_from_dir(StoreKey::from_bytes([5u8; 32]), &root.join("alice"))
                .unwrap();
        assert!(report.is_complete());
        let decision = restored
            .check_one(&CheckRequest::paragraph("gdocs", "d", 0, SECRET))
            .unwrap();
        assert_eq!(decision.action, UploadAction::Block);

        // A second sweep overwrites in place (periodic operation), and a
        // drained tenant is skipped rather than reported as a failure.
        let results = registry.snapshot_all_with(&root, false);
        assert_eq!(results.len(), 1);
        assert!(results[0].1.is_ok(), "{:?}", results[0].1);
        registry.drain_all(None);
        assert!(alice.snapshot_to(&root.join("alice"), false).is_err());
        let _ = std::fs::remove_dir_all(&root);
    }
}
