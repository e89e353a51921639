//! Driving a `bfd` child process over its Unix socket: set-up (spawn,
//! tenants, seeding, drain, restore) and the closed-loop load phase.

use std::fs::File;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread;
use std::time::{Duration, Instant};

use browserflow::PipelineStats;
use browserflow_daemon::protocol::{read_frame, read_reply, read_request, write_frame};
use browserflow_daemon::{Reply, Request};

use crate::check::{alert_segments, judge, AlertCheck, Ledger, Outcome};
use crate::gen::{Kind, Plan};
use crate::stats::Samples;

/// How long a daemon may take to start answering or to exit.
const DAEMON_DEADLINE: Duration = Duration::from_secs(60);

/// A running `bfd` child; killed and reaped on drop.
pub struct Daemon {
    child: Child,
    socket: PathBuf,
}

impl Daemon {
    /// Starts `bin` with its socket and state under `dir`, stderr to
    /// `dir/bfd.log`.
    pub fn spawn(bin: &Path, dir: &Path) -> Result<Self, String> {
        let socket = dir.join("bfd.sock");
        let state = dir.join("state");
        std::fs::create_dir_all(&state).map_err(|e| format!("create {state:?}: {e}"))?;
        let log = File::options()
            .create(true)
            .append(true)
            .open(dir.join("bfd.log"))
            .map_err(|e| format!("open bfd log: {e}"))?;
        let child = Command::new(bin)
            .arg("--socket")
            .arg(&socket)
            .arg("--state-dir")
            .arg(&state)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("spawn {bin:?}: {e}"))?;
        Ok(Self { child, socket })
    }

    /// Connects once the daemon answers `Ping`.
    pub fn connect(&mut self) -> Result<Conn, String> {
        let start = Instant::now();
        loop {
            if let Some(status) = self.child.try_wait().map_err(|e| e.to_string())? {
                return Err(format!("bfd exited during start-up: {status}"));
            }
            if let Ok(stream) = UnixStream::connect(&self.socket) {
                let mut conn = Conn { stream };
                return match conn.request(&Request::Ping)? {
                    Reply::Pong { .. } => Ok(conn),
                    other => Err(format!("expected Pong, got {other:?}")),
                };
            }
            if start.elapsed() > DAEMON_DEADLINE {
                return Err("bfd did not open its socket in time".to_string());
            }
            thread::sleep(Duration::from_micros(500));
        }
    }

    /// Waits for the daemon to exit on its own (after a drain).
    pub fn wait_exit(&mut self) -> Result<(), String> {
        let start = Instant::now();
        loop {
            if let Some(status) = self.child.try_wait().map_err(|e| e.to_string())? {
                return if status.success() {
                    Ok(())
                } else {
                    Err(format!("bfd exited with {status} after drain"))
                };
            }
            if start.elapsed() > DAEMON_DEADLINE {
                return Err("bfd did not exit after drain".to_string());
            }
            thread::sleep(Duration::from_micros(500));
        }
    }

    /// Peak resident set size (`VmHWM`) of the child, in MiB.
    pub fn rss_peak_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
        status
            .lines()
            .find_map(|line| line.strip_prefix("VmHWM:"))
            .and_then(|rest| {
                rest.trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| format!("no VmHWM in {path}"))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One client connection.
pub struct Conn {
    stream: UnixStream,
}

impl Conn {
    /// Sends one pre-encoded request body and reads the reply.
    pub fn call(&mut self, body: &[u8]) -> Result<Reply, String> {
        write_frame(&mut self.stream, body).map_err(|e| e.to_string())?;
        read_reply(&mut self.stream)
            .map_err(|e| e.to_string())?
            .ok_or_else(|| "bfd hung up before replying".to_string())
    }

    /// Encodes and sends one request.
    pub fn request(&mut self, request: &Request) -> Result<Reply, String> {
        self.call(&serde_json::to_vec(request).map_err(|e| e.to_string())?)
    }
}

/// Timings of one set-up.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    /// Spawn to first `Pong` after the restore.
    pub total_s: f64,
    /// Sending the starting store.
    pub seed_s: f64,
    /// The `Drain` round trip (persisting every tenant).
    pub persist_s: f64,
    /// Respawn to first `Pong`.
    pub restore_s: f64,
    /// Bytes in the state directory after the drain.
    pub state_bytes: u64,
}

/// Spawns `bfd` in `dir`, creates the tenants, seeds the starting store,
/// drains, respawns on the persisted state and waits for its `Pong`.
pub fn setup(
    bin: &Path,
    dir: &Path,
    plan: &Plan,
    seed_bodies: &[Vec<u8>],
) -> Result<(Daemon, Conn, SetupTimes), String> {
    let start = Instant::now();
    let mut daemon = Daemon::spawn(bin, dir)?;
    let mut conn = daemon.connect()?;
    for tenant in &plan.tenants {
        let reply = conn.request(&Request::TenantCreate {
            tenant: tenant.clone(),
            mode: "block".to_string(),
            policy_json: plan.policy_json.clone(),
            max_in_flight: 0,
            queue_capacity: 0,
        })?;
        if !matches!(reply, Reply::TenantCreated { .. }) {
            return Err(format!("tenant {tenant} not created: {reply:?}"));
        }
    }
    let seed_start = Instant::now();
    for body in seed_bodies {
        match conn.call(body)? {
            Reply::Observed => {}
            other => return Err(format!("seed frame refused: {other:?}")),
        }
    }
    let seed_s = seed_start.elapsed().as_secs_f64();
    let drain_start = Instant::now();
    match conn.request(&Request::Drain)? {
        Reply::Drained { reports } if reports.iter().all(|r| r.error.is_empty()) => {}
        other => return Err(format!("drain failed: {other:?}")),
    }
    let persist_s = drain_start.elapsed().as_secs_f64();
    drop(conn);
    daemon.wait_exit()?;
    let restore_start = Instant::now();
    let mut daemon = Daemon::spawn(bin, dir)?;
    let mut conn = daemon.connect()?;
    let restore_s = restore_start.elapsed().as_secs_f64();
    let total_s = start.elapsed().as_secs_f64();
    match conn.request(&Request::TenantList)? {
        Reply::Tenants { tenants } if tenants.len() == plan.tenants.len() => {}
        other => return Err(format!("tenants not restored: {other:?}")),
    }
    Ok((
        daemon,
        conn,
        SetupTimes {
            total_s,
            seed_s,
            persist_s,
            restore_s,
            state_bytes: dir_bytes(&dir.join("state")),
        },
    ))
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .filter_map(Result::ok)
        .map(|entry| match entry.file_type() {
            Ok(kind) if kind.is_dir() => dir_bytes(&entry.path()),
            _ => entry.metadata().map_or(0, |m| m.len()),
        })
        .sum()
}

/// What the load phase measured.
#[derive(Debug, Default)]
pub struct LoadResult {
    /// Client round trips in µs, by [`Kind`].
    pub round_trip_us: [Samples; 3],
    /// The daemon's queue-to-decision `latency_us`, keystroke and check.
    pub decider_us: [Samples; 2],
    /// Round trip minus `latency_us`, keystroke and check.
    pub outside_decider_us: [Samples; 2],
    /// Request bytes, by [`Kind`].
    pub request_bytes: [Samples; 3],
    /// Per observe request: in-process decode time of its frame ÷ its
    /// round trip (only with `pair_decode`).
    pub decode_share: Samples,
    /// Requests attempted.
    pub attempted: u64,
    /// Requests that failed: refused, errored, unsent or wrong.
    pub failed: u64,
    /// Wrong decisions.
    pub wrong: u64,
    /// Reply ledger.
    pub ledger: Ledger,
    /// Alert ground truth.
    pub alerts: AlertCheck,
    /// Load-phase wall time, excluding alert checks.
    pub wall_s: f64,
    /// Peak RSS of the daemon at the end of the load phase.
    pub rss_peak_mb: f64,
    /// Summed pipeline counters of every tenant.
    pub pipeline: PipelineStats,
    /// The first few mismatches, for the log.
    pub mismatches: Vec<String>,
    /// Transport failure that ended the phase early.
    pub aborted: Option<String>,
}

/// Sends every load request in order, one at a time, and checks each
/// reply; `bodies[i]` is the encoded `plan.ops[i].request`. With
/// `pair_decode`, each observe round trip is followed by an in-process
/// `read_request` of the same frame, timed for `decode_share`.
pub fn run_load(
    daemon: &Daemon,
    conn: &mut Conn,
    plan: &Plan,
    bodies: &[Vec<u8>],
    pair_decode: bool,
) -> LoadResult {
    let mut result = LoadResult {
        alerts: AlertCheck::new(plan.tenants.len()),
        ..LoadResult::default()
    };
    // Alert checks and decode pairing are not load.
    let mut off_clock = Duration::ZERO;
    let start = Instant::now();
    for (op, body) in plan.ops.iter().zip(bodies) {
        result.attempted += 1;
        let kind = op.kind.index();
        result.request_bytes[kind].push(body.len() as f64);
        let sent = Instant::now();
        let reply = match conn.call(body) {
            Ok(reply) => reply,
            Err(e) => {
                result.failed += 1;
                result.aborted = Some(e);
                break;
            }
        };
        let round_trip_us = sent.elapsed().as_nanos() as f64 / 1e3;
        let outcome = judge(&op.expect, &reply);
        result.ledger.record(op.kind != Kind::Observe, &outcome);
        match &outcome {
            Outcome::Correct => result.round_trip_us[kind].push(round_trip_us),
            Outcome::Superseded => {}
            Outcome::Wrong(detail) | Outcome::Error(detail) => {
                if matches!(outcome, Outcome::Wrong(_)) {
                    result.wrong += 1;
                }
                result.failed += 1;
                if result.mismatches.len() < 5 {
                    result
                        .mismatches
                        .push(format!("{:?}: {detail}", op.request));
                }
            }
            Outcome::Backpressure => result.failed += 1,
        }
        if let (Reply::Decisions { latency_us, .. }, Some(series)) =
            (&reply, decider_series(op.kind))
        {
            let latency_us = *latency_us as f64;
            result.decider_us[series].push(latency_us);
            result.outside_decider_us[series].push(round_trip_us - latency_us);
        }
        let paused = Instant::now();
        if pair_decode && op.kind == Kind::Observe {
            result
                .decode_share
                .push(decode_us(body) / round_trip_us.max(f64::MIN_POSITIVE));
        }
        if let Some(segment) = &op.alert {
            if result.alerts.expect(op.tenant, segment.clone()) {
                if let Err(e) = check_alerts(conn, plan, &mut result.alerts, op.tenant) {
                    result.aborted = Some(e);
                    break;
                }
            }
        }
        off_clock += paused.elapsed();
    }
    result.wall_s = (start.elapsed() - off_clock).as_secs_f64();
    result.failed += plan.ops.len() as u64 - result.attempted;
    result.attempted = plan.ops.len() as u64;
    if result.aborted.is_some() {
        return result;
    }
    match daemon.rss_peak_mb() {
        Ok(mb) => result.rss_peak_mb = mb,
        Err(e) => result.aborted = Some(e),
    }
    for tenant in result.alerts.tenants_pending() {
        if let Err(e) = check_alerts(conn, plan, &mut result.alerts, tenant) {
            result.aborted = Some(e);
            return result;
        }
    }
    for tenant in &plan.tenants {
        match conn.request(&Request::Stats {
            tenant: tenant.clone(),
        }) {
            Ok(Reply::Stats { pipeline, .. }) => add_stats(&mut result.pipeline, &pipeline),
            Ok(other) => result.aborted = Some(format!("expected Stats, got {other:?}")),
            Err(e) => result.aborted = Some(e),
        }
    }
    result
}

/// Microseconds `protocol::read_request` takes on the frame of `body`.
fn decode_us(body: &[u8]) -> f64 {
    let mut frame = Vec::with_capacity(body.len() + 4);
    write_frame(&mut frame, body).expect("load frames fit the protocol limit");
    let start = Instant::now();
    let request = read_request(&mut &frame[..]);
    let elapsed = start.elapsed();
    assert!(matches!(request, Ok(Some(_))), "load frames decode");
    elapsed.as_nanos() as f64 / 1e3
}

fn decider_series(kind: Kind) -> Option<usize> {
    match kind {
        Kind::Keystroke => Some(0),
        Kind::Check => Some(1),
        Kind::Observe => None,
    }
}

fn check_alerts(
    conn: &mut Conn,
    plan: &Plan,
    alerts: &mut AlertCheck,
    tenant: usize,
) -> Result<(), String> {
    let request = Request::Alerts {
        tenant: plan.tenants[tenant].clone(),
    };
    let body = serde_json::to_vec(&request).map_err(|e| e.to_string())?;
    write_frame(&mut conn.stream, &body).map_err(|e| e.to_string())?;
    let reply = read_frame(&mut conn.stream)
        .map_err(|e| e.to_string())?
        .ok_or("bfd hung up before replying")?;
    let segments = alert_segments(&reply).ok_or_else(|| {
        let head = String::from_utf8_lossy(&reply[..reply.len().min(200)]).into_owned();
        format!("expected an Alerts reply, got {head}")
    })?;
    alerts.verify_segments(tenant, &segments);
    Ok(())
}

fn add_stats(total: &mut PipelineStats, one: &PipelineStats) {
    total.submitted += one.submitted;
    total.completed += one.completed;
    total.coalesced += one.coalesced;
    total.rejected += one.rejected;
    total.timeouts += one.timeouts;
    total.batches += one.batches;
    total.batch_paragraphs += one.batch_paragraphs;
    total.max_batch = total.max_batch.max(one.max_batch);
    total.failed += one.failed;
}
