//! The `bfd` daemon: a Unix-socket front-end over a [`TenantRegistry`].
//!
//! One OS thread per connection, strict request→reply framing
//! ([`crate::protocol`]), and a poll-based accept loop so a SIGTERM (or
//! an in-band [`Request::Drain`]) can stop admissions, drain every
//! tenant's decider gracefully, persist per-tenant sealed snapshots and
//! exit without abandoning a single in-flight check.

use std::io::{self, Read};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

use browserflow::tenancy::{AdmissionError, Tenant, TenantConfig, TenantId, TenantRegistry};
use browserflow::{
    BrowserFlow, CheckRequest, DeciderConfig, DeciderError, EnforcementMode, TimedBatch,
    UploadAction, UploadDecision, Violation,
};
use browserflow_store::StoreKey;
use browserflow_tdm::Policy;

use crate::protocol::{
    read_frame, write_reply, FrameError, Reply, Request, WireDecision, WireDrainReport, WireTenant,
    WireViolation, PROTOCOL_VERSION,
};

/// How often blocked waits (accept loop, idle connections) re-check the
/// shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// Suggested client retry delay for a quota refusal.
const QUOTA_RETRY_MS: u64 = 10;
/// Suggested client retry delay for a full decider queue.
const QUEUE_RETRY_MS: u64 = 25;
/// Suggested delay before probing for a *restarted* daemon after a
/// terminal `draining` refusal: a retry against this instance can never
/// succeed, so the hint is deliberately coarse.
const DRAIN_RETRY_MS: u64 = 1000;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Where to bind the Unix socket.
    pub socket_path: PathBuf,
    /// Root directory for per-tenant sealed state. Existing
    /// `state_root/<tenant>` directories are restored at startup; every
    /// tenant is persisted back on drain. `None` runs stateless.
    pub state_root: Option<PathBuf>,
    /// The key sealing all tenant state.
    pub store_key: StoreKey,
    /// Persist drained tenants as tiered (plain v3) store directories
    /// whose cold shards the next bind maps in place, instead of fully
    /// sealed snapshots that must be decoded up front. Restores
    /// auto-detect the layout either way, so flipping this flag between
    /// restarts is safe.
    pub tiered_state: bool,
    /// Admission defaults for tenants that do not override them.
    pub default_tenant: TenantConfig,
    /// When set (and a state root is configured), every live tenant is
    /// snapshotted to the state root at this interval *without*
    /// draining — a `kill -9` then loses at most one interval of
    /// observations instead of everything since the last drain. Tiered
    /// stores also get their idle shards demoted to cold files during
    /// the sweep.
    pub snapshot_interval: Option<Duration>,
}

impl DaemonConfig {
    /// A config with defaults for everything but the socket path.
    pub fn new(socket_path: impl Into<PathBuf>) -> Self {
        Self {
            socket_path: socket_path.into(),
            state_root: None,
            store_key: StoreKey::from_bytes([0u8; 32]),
            tiered_state: false,
            default_tenant: TenantConfig::default(),
            snapshot_interval: None,
        }
    }
}

struct Shared {
    registry: TenantRegistry,
    config: DaemonConfig,
    /// Set to begin the drain (SIGTERM bridge, or an in-band `Drain`).
    shutdown: AtomicBool,
    /// Set once the drain completed; idle connections exit.
    closed: AtomicBool,
    /// The drain runs exactly once; later callers get the cached reports.
    drain_reports: Mutex<Option<Vec<WireDrainReport>>>,
}

/// A running (bound but not yet serving) daemon.
pub struct Daemon {
    listener: UnixListener,
    shared: Arc<Shared>,
    /// Tenants restored from the state root at bind time.
    restored: Vec<String>,
}

impl Daemon {
    /// Binds the socket and restores any persisted tenants from the
    /// state root.
    ///
    /// # Errors
    ///
    /// Propagates socket/bind failures. Per-tenant restore failures are
    /// *not* fatal — a corrupt tenant directory must not keep every
    /// other tenant offline — they are reported on stderr and the
    /// tenant is skipped.
    pub fn bind(config: DaemonConfig) -> io::Result<Self> {
        // A stale socket file from a killed daemon would fail the bind.
        let _ = std::fs::remove_file(&config.socket_path);
        let listener = UnixListener::bind(&config.socket_path)?;
        listener.set_nonblocking(true)?;
        let shared = Arc::new(Shared {
            registry: TenantRegistry::new(),
            config,
            shutdown: AtomicBool::new(false),
            closed: AtomicBool::new(false),
            drain_reports: Mutex::new(None),
        });
        let restored = restore_tenants(&shared);
        Ok(Self {
            listener,
            shared,
            restored,
        })
    }

    /// Tenant ids restored from the state root at bind time.
    pub fn restored_tenants(&self) -> &[String] {
        &self.restored
    }

    /// A handle that initiates graceful drain when set (wire a SIGTERM
    /// bridge to this).
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Serves until drained (by SIGTERM bridge or an in-band
    /// [`Request::Drain`]), then returns the per-tenant drain reports.
    ///
    /// # Errors
    ///
    /// Fatal accept-loop transport errors only; per-connection errors
    /// end that connection.
    pub fn run(self) -> io::Result<Vec<WireDrainReport>> {
        let mut handlers: Vec<thread::JoinHandle<()>> = Vec::new();
        let mut last_sweep = std::time::Instant::now();
        while !self.shared.shutdown.load(Ordering::SeqCst) {
            match self.listener.accept() {
                Ok((stream, _addr)) => {
                    let shared = Arc::clone(&self.shared);
                    handlers.push(thread::spawn(move || serve_connection(stream, &shared)));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    thread::sleep(POLL_INTERVAL);
                }
                Err(e) => return Err(e),
            }
            handlers.retain(|h| !h.is_finished());
            if let Some(interval) = self.shared.config.snapshot_interval {
                if last_sweep.elapsed() >= interval {
                    snapshot_sweep(&self.shared);
                    last_sweep = std::time::Instant::now();
                }
            }
        }
        // Stop admitting, drain every tenant (queued work finishes, so
        // handler threads blocked on pending decisions get real replies),
        // then release idle connections and join.
        let reports = drain_once(&self.shared);
        self.shared.closed.store(true, Ordering::SeqCst);
        for handler in handlers {
            let _ = handler.join();
        }
        let _ = std::fs::remove_file(&self.shared.config.socket_path);
        Ok(reports)
    }
}

/// Sets the daemon's shutdown flag from another thread.
#[derive(Clone)]
pub struct ShutdownHandle {
    shared: Arc<Shared>,
}

impl ShutdownHandle {
    /// Initiates graceful drain.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
    }
}

fn restore_tenants(shared: &Arc<Shared>) -> Vec<String> {
    let Some(root) = shared.config.state_root.as_deref() else {
        return Vec::new();
    };
    let Ok(entries) = std::fs::read_dir(root) else {
        return Vec::new();
    };
    let mut restored = Vec::new();
    let mut names: Vec<_> = entries
        .filter_map(|entry| entry.ok())
        .filter(|entry| entry.path().is_dir())
        .filter_map(|entry| entry.file_name().into_string().ok())
        .collect();
    names.sort();
    for name in names {
        let Ok(id) = TenantId::new(name.as_str()) else {
            eprintln!("bfd: skipping state directory {name:?}: not a valid tenant id");
            continue;
        };
        let dir = root.join(id.as_str());
        match BrowserFlow::load_from_dir(shared.config.store_key.clone(), &dir) {
            Ok((flow, report)) => {
                if !report.is_complete() {
                    eprintln!("bfd: tenant {id} restored with losses: {report:?}");
                }
                match shared
                    .registry
                    .create(id.clone(), flow, shared.config.default_tenant)
                {
                    Ok(_) => restored.push(id.as_str().to_string()),
                    Err(e) => eprintln!("bfd: tenant {id} not registered: {e}"),
                }
            }
            Err(e) => eprintln!("bfd: tenant {id} not restored: {e}"),
        }
    }
    restored
}

fn drain_once(shared: &Shared) -> Vec<WireDrainReport> {
    let mut cached = shared
        .drain_reports
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    if let Some(reports) = cached.as_ref() {
        return reports.clone();
    }
    let reports: Vec<WireDrainReport> = shared
        .registry
        .drain_all_with(
            shared.config.state_root.as_deref(),
            shared.config.tiered_state,
        )
        .into_iter()
        .map(|report| WireDrainReport {
            tenant: report.tenant.as_str().to_string(),
            completed: report.stats.completed,
            persisted_to: report
                .persisted_to
                .map(|path| path.display().to_string())
                .unwrap_or_default(),
            error: report.error.unwrap_or_default(),
        })
        .collect();
    *cached = Some(reports.clone());
    reports
}

/// One periodic durability sweep: snapshots every live tenant to the
/// state root without draining (each cut runs on that tenant's worker in
/// queue order, so it is internally consistent), and — for tiered stores
/// with an attached cold tier — demotes idle shards to cold files so hot
/// memory tracks the working set instead of the tenant's history.
fn snapshot_sweep(shared: &Shared) {
    let Some(root) = shared.config.state_root.as_deref() else {
        return;
    };
    for (tenant, result) in shared
        .registry
        .snapshot_all_with(root, shared.config.tiered_state)
    {
        if let Err(e) = result {
            eprintln!("bfd: snapshot of tenant {tenant} failed: {e}");
        }
    }
    if shared.config.tiered_state {
        for id in shared.registry.list() {
            let Some(tenant) = shared.registry.get(id.as_str()) else {
                continue;
            };
            // Unsupported (no tier attached — e.g. a tenant created hot
            // this run) is the normal case to skip silently; the full
            // snapshot above already covered it.
            let _ = tenant.with_flow(|flow| {
                let engine = flow.engine();
                for store in [engine.paragraph_store(), engine.document_store()] {
                    let _ = store.demote_idle_shards(store.now());
                }
            });
        }
    }
}

// --- Connection handling --------------------------------------------------

/// A reader that tolerates read timeouts while *waiting* for a frame
/// (so idle connections can notice the daemon closing) but treats a
/// timeout mid-frame as "keep waiting" — a slow writer is not a
/// truncated one.
struct PatientReader<'a> {
    stream: &'a UnixStream,
    closed: &'a AtomicBool,
    mid_frame: bool,
}

impl Read for PatientReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        // `Read` is implemented for `&UnixStream`, so no clone is needed.
        let mut stream = self.stream;
        loop {
            match stream.read(buf) {
                Ok(0) => return Ok(0),
                Ok(n) => {
                    self.mid_frame = true;
                    return Ok(n);
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    if self.closed.load(Ordering::SeqCst) && !self.mid_frame {
                        // Daemon is done and no frame is in progress:
                        // report a clean EOF so the handler exits.
                        return Ok(0);
                    }
                    continue;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }
}

fn serve_connection(stream: UnixStream, shared: &Shared) {
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    loop {
        let mut reader = PatientReader {
            stream: &stream,
            closed: &shared.closed,
            mid_frame: false,
        };
        let request = match read_frame(&mut reader) {
            Ok(None) => return,
            Ok(Some(body)) => match serde_json::from_slice::<Request>(&body) {
                Ok(request) => request,
                Err(e) => {
                    // A malformed frame gets a typed error reply; the
                    // framing itself is still in sync, so keep serving.
                    let reply = Reply::Error {
                        message: format!("malformed request: {e}"),
                    };
                    if write_reply(&mut writer, &reply).is_err() {
                        return;
                    }
                    continue;
                }
            },
            Err(FrameError::TooLarge { declared }) => {
                // Oversized length prefix: reply, then hang up — the
                // stream position is unrecoverable.
                let _ = write_reply(
                    &mut writer,
                    &Reply::Error {
                        message: format!("frame length {declared} exceeds the protocol limit"),
                    },
                );
                // Discard already-buffered bytes so the close sends an
                // orderly EOF (closing with unread data resets the
                // connection and the peer may never see the reply).
                let mut sink = [0u8; 8192];
                let mut stream_ref = &stream;
                while matches!(stream_ref.read(&mut sink), Ok(n) if n > 0) {}
                return;
            }
            Err(_) => return,
        };
        let drain_requested = matches!(request, Request::Drain);
        let reply = handle_request(shared, request);
        if write_reply(&mut writer, &reply).is_err() {
            return;
        }
        if drain_requested {
            return;
        }
    }
}

fn handle_request(shared: &Shared, request: Request) -> Reply {
    match request {
        Request::Ping => Reply::Pong {
            version: PROTOCOL_VERSION.to_string(),
        },
        Request::TenantCreate {
            tenant,
            mode,
            policy_json,
            max_in_flight,
            queue_capacity,
        } => tenant_create(
            shared,
            &tenant,
            &mode,
            &policy_json,
            max_in_flight,
            queue_capacity,
        ),
        Request::TenantList => {
            let tenants = shared
                .registry
                .list()
                .into_iter()
                .filter_map(|id| shared.registry.get(id.as_str()))
                .map(|tenant| WireTenant {
                    tenant: tenant.id().as_str().to_string(),
                    in_flight: tenant.in_flight() as u64,
                    max_in_flight: tenant.config().max_in_flight as u64,
                })
                .collect();
            Reply::Tenants { tenants }
        }
        Request::Observe {
            tenant,
            service,
            document,
            index,
            text,
        } => with_tenant(shared, &tenant, |tenant| {
            match tenant.observe(service.as_str(), document, index, text) {
                Ok(()) => Reply::Observed,
                Err(DeciderError::Closed) => draining_reply(),
                Err(e) => error_reply(&e),
            }
        }),
        Request::ObserveBatch {
            tenant,
            service,
            document,
            paragraphs,
        } => with_tenant(shared, &tenant, |tenant| {
            let slots: Vec<(usize, String)> = paragraphs
                .into_iter()
                .map(|slot| (slot.index, slot.text))
                .collect();
            match tenant.observe_batch(service.as_str(), document, slots) {
                Ok(_) => Reply::Observed,
                Err(DeciderError::Closed) => draining_reply(),
                Err(e) => error_reply(&e),
            }
        }),
        Request::Check {
            tenant,
            service,
            document,
            paragraphs,
        } => with_tenant(shared, &tenant, |tenant| {
            let mut request = CheckRequest::new(service.as_str(), document);
            for slot in &paragraphs {
                request = request.with_paragraph(slot.index, slot.text.as_str());
            }
            match tenant.try_check(request) {
                Ok((batch, _permit)) => match batch.wait() {
                    Ok(timed) => decisions_reply(timed),
                    Err(e) => error_reply(&e),
                },
                Err(refusal) => backpressure_reply(tenant, refusal),
            }
        }),
        Request::Keystroke {
            tenant,
            service,
            document,
            index,
            text,
        } => with_tenant(shared, &tenant, |tenant| {
            match tenant.try_keystroke(service.as_str(), document, index, text) {
                Ok((pending, _permit)) => match pending.wait() {
                    Ok(timed) => decisions_reply(timed),
                    Err(DeciderError::Superseded) => Reply::Superseded,
                    Err(e) => error_reply(&e),
                },
                Err(refusal) => backpressure_reply(tenant, refusal),
            }
        }),
        Request::Stats { tenant } => with_tenant(shared, &tenant, |tenant| match tenant.stats() {
            Some(pipeline) => Reply::Stats {
                pipeline,
                in_flight: tenant.in_flight() as u64,
                max_in_flight: tenant.config().max_in_flight as u64,
            },
            None => draining_reply(),
        }),
        Request::Lineage { tenant } => with_tenant(shared, &tenant, |tenant| {
            match tenant.with_flow(|flow| (flow.lineage().edges(), flow.lineage().clock())) {
                Ok((edges, clock)) => Reply::Lineage { edges, clock },
                Err(_) => draining_reply(),
            }
        }),
        Request::Alerts { tenant } => with_tenant(shared, &tenant, |tenant| {
            match tenant.with_flow(BrowserFlow::alerts) {
                Ok(alerts) => Reply::Alerts { alerts },
                Err(_) => draining_reply(),
            }
        }),
        Request::Drain => {
            shared.shutdown.store(true, Ordering::SeqCst);
            Reply::Drained {
                reports: drain_once(shared),
            }
        }
    }
}

fn tenant_create(
    shared: &Shared,
    tenant: &str,
    mode: &str,
    policy_json: &str,
    max_in_flight: u64,
    queue_capacity: u64,
) -> Reply {
    let id = match TenantId::new(tenant) {
        Ok(id) => id,
        Err(e) => {
            return Reply::Error {
                message: format!("invalid tenant id: {e}"),
            }
        }
    };
    let mode = match parse_mode(mode) {
        Some(mode) => mode,
        None => {
            return Reply::Error {
                message: format!("unknown mode {mode:?}; expected advisory, block or encrypt"),
            }
        }
    };
    let policy: Policy = match serde_json::from_str(policy_json) {
        Ok(policy) => policy,
        Err(e) => {
            return Reply::Error {
                message: format!("invalid policy JSON: {e}"),
            }
        }
    };
    let flow = match BrowserFlow::builder()
        .mode(mode)
        .policy(policy)
        .store_key(shared.config.store_key.clone())
        .build()
    {
        Ok(flow) => flow,
        Err(e) => {
            return Reply::Error {
                message: format!("policy rejected: {e}"),
            }
        }
    };
    let defaults = shared.config.default_tenant;
    let config = TenantConfig {
        max_in_flight: if max_in_flight == 0 {
            defaults.max_in_flight
        } else {
            max_in_flight as usize
        },
        decider: DeciderConfig {
            queue_capacity: if queue_capacity == 0 {
                defaults.decider.queue_capacity
            } else {
                queue_capacity as usize
            },
            ..defaults.decider
        },
    };
    match shared.registry.create(id, flow, config) {
        Ok(tenant) => Reply::TenantCreated {
            tenant: tenant.id().as_str().to_string(),
        },
        Err(e) => Reply::Error {
            message: e.to_string(),
        },
    }
}

fn with_tenant(shared: &Shared, name: &str, op: impl FnOnce(&Tenant) -> Reply) -> Reply {
    match shared.registry.get(name) {
        Some(tenant) => op(&tenant),
        // The drain empties the tenant table, so a miss during shutdown
        // is the drain, not a typo: answer with the terminal refusal
        // instead of a misleading "no tenant" error.
        None if shared.shutdown.load(Ordering::SeqCst) => draining_reply(),
        None => Reply::Error {
            message: format!("no tenant named {name}"),
        },
    }
}

fn parse_mode(mode: &str) -> Option<EnforcementMode> {
    match mode {
        "advisory" => Some(EnforcementMode::Advisory),
        "block" => Some(EnforcementMode::Block),
        "encrypt" => Some(EnforcementMode::Encrypt),
        _ => None,
    }
}

fn decisions_reply(timed: TimedBatch) -> Reply {
    Reply::Decisions {
        decisions: timed.decisions.into_iter().map(wire_decision).collect(),
        latency_us: timed.latency.as_micros().min(u128::from(u64::MAX)) as u64,
    }
}

fn wire_decision(decision: UploadDecision) -> WireDecision {
    WireDecision {
        action: action_str(decision.action).to_string(),
        violations: decision
            .violations
            .into_iter()
            .map(wire_violation)
            .collect(),
    }
}

fn wire_violation(violation: Violation) -> WireViolation {
    WireViolation {
        source: violation.source.to_string(),
        disclosure: violation.disclosure,
        missing_tags: violation
            .missing_tags
            .iter()
            .map(|tag| tag.to_string())
            .collect(),
        matching_spans: violation
            .matching_spans
            .into_iter()
            .map(|range| (range.start, range.end))
            .collect(),
    }
}

fn action_str(action: UploadAction) -> &'static str {
    match action {
        UploadAction::Allow => "allow",
        UploadAction::Warn => "warn",
        UploadAction::Block => "block",
        UploadAction::Encrypt => "encrypt",
    }
}

fn backpressure_reply(tenant: &Tenant, refusal: AdmissionError) -> Reply {
    match refusal {
        AdmissionError::QuotaExceeded {
            in_flight,
            max_in_flight,
        } => Reply::Backpressure {
            reason: "quota-exceeded".to_string(),
            in_flight: in_flight as u64,
            limit: max_in_flight as u64,
            retry_after_ms: QUOTA_RETRY_MS,
            terminal: false,
        },
        AdmissionError::QueueFull { queue_capacity } => Reply::Backpressure {
            reason: "queue-full".to_string(),
            in_flight: tenant.in_flight() as u64,
            limit: queue_capacity as u64,
            retry_after_ms: QUEUE_RETRY_MS,
            terminal: false,
        },
        AdmissionError::Draining => draining_reply(),
        // `AdmissionError` is non-exhaustive from outside the core
        // crate; any future refusal is still backpressure.
        _ => Reply::Backpressure {
            reason: "refused".to_string(),
            in_flight: tenant.in_flight() as u64,
            limit: 0,
            retry_after_ms: QUEUE_RETRY_MS,
            terminal: false,
        },
    }
}

fn draining_reply() -> Reply {
    // Draining is terminal for this instance: `terminal` tells honest
    // clients to stop retrying here, and the non-zero hint paces the
    // ones that instead poll for a restarted daemon. (A zero hint used
    // to invite an immediate-retry busy loop against a dying socket.)
    Reply::Backpressure {
        reason: "draining".to_string(),
        in_flight: 0,
        limit: 0,
        retry_after_ms: DRAIN_RETRY_MS,
        terminal: true,
    }
}

fn error_reply(error: &dyn std::fmt::Display) -> Reply {
    Reply::Error {
        message: error.to_string(),
    }
}
