//! One benchmark run: build or locate `bfd`, set up, load, optionally
//! replay traced, and turn the measurements into named metrics.

use std::fmt::Write as _;
use std::fs::File;
use std::io::BufWriter;
use std::path::{Component, Path, PathBuf};
use std::process::{Command, Stdio};

use browserflow_daemon::protocol::write_frame;

use crate::affinity::pin_to_one_cpu;
use crate::gen::{Kind, Plan, Workload};
use crate::replay::{replay, ReplayPair, ReplayResult, DECODE_SPANS};
use crate::stats::{failed_frac, median, ratio};
use crate::wire::{run_load, setup, LoadResult, SetupTimes};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Scratch space, relative to the working directory (the checkout root).
pub const RUN_ROOT: &str = ".perfbench-run";

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// The traffic mix.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Sizes the load phase (about this long on a 2-core x86-64 host).
    pub seconds: u64,
    /// Report per-layer metrics from a traced run instead of end-to-end ones.
    pub trace: bool,
    /// A few requests only, one set-up: a self-test, not a measurement.
    pub smoke: bool,
    /// The `bfd` binary to drive.
    pub bfd: PathBuf,
}

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Samples behind the value, when it summarises several.
    pub samples: Option<u64>,
}

/// The outcome of one run.
#[derive(Debug, Clone)]
pub struct Report {
    /// `key=value` facts about where and how the run happened.
    pub context: Vec<(String, String)>,
    /// Whether every reply matched ground truth and the ledger held.
    pub correct: bool,
    /// Load requests attempted.
    pub attempted: u64,
    /// Load requests refused, errored, unsent or answered wrongly.
    pub failed: u64,
    /// The reported metrics.
    pub metrics: Vec<Metric>,
    /// Extra lines for the log (mismatches, span summary).
    pub notes: Vec<String>,
}

impl Report {
    /// The human-readable lines followed by the one-line JSON result.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (key, value) in &self.context {
            let _ = writeln!(out, "context {key}={value}");
        }
        for note in &self.notes {
            let _ = writeln!(out, "note {note}");
        }
        for m in &self.metrics {
            let samples = m.samples.map_or_else(String::new, |n| format!(" n={n}"));
            let _ = writeln!(out, "metric {} {} {}{samples}", m.name, m.value, m.unit);
        }
        out.push_str(&self.json());
        out.push('\n');
        out
    }

    /// `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .filter(|m| is_listed(&m.name))
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "0.0".to_string()
    }
}

/// Builds the release `bfd` from the repository this package sits in and
/// returns its path (honouring `CARGO_TARGET_DIR`).
pub fn build_bfd() -> Result<PathBuf, String> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .ok_or("the benchmark package has no parent directory")?;
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--release", "--quiet", "--offline"])
        .args(["-p", "browserflow-daemon", "--bin", "bfd"])
        .current_dir(root)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building bfd failed: {status}"));
    }
    let target = match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => root.join(dir),
        None => root.join("target"),
    };
    Ok(target.join("release").join("bfd"))
}

/// Refuses a `bfd` from a debug profile directory.
pub fn check_release_binary(bfd: &Path) -> Result<(), String> {
    if bfd
        .components()
        .any(|c| c == Component::Normal("debug".as_ref()))
    {
        return Err(format!("refusing to time a debug build of bfd: {bfd:?}"));
    }
    if !bfd.is_file() {
        return Err(format!("no bfd binary at {bfd:?}"));
    }
    Ok(())
}

/// Runs the benchmark once.
pub fn run(options: &Options) -> Result<Report, String> {
    let plan = Plan::generate(
        options.workload,
        options.seed,
        options.seconds,
        options.smoke,
    );
    let mut seed_bodies: Vec<Vec<u8>> = plan.request_bodies().collect();
    let bodies = seed_bodies.split_off(plan.seed_frames.len());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    // Unpinned figures are noisier but still correct, so a refusal only
    // shows in the context.
    let cpu = pin_to_one_cpu().map_or_else(|e| format!("none ({e})"), |cpu| cpu.to_string());
    let dir = PathBuf::from(RUN_ROOT).join(format!(
        "{}-{}-{}-{}",
        std::process::id(),
        options.workload.name(),
        options.seed,
        u8::from(options.trace)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let outcome = measure(options, &plan, &seed_bodies, &bodies, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    let mut report = outcome?;
    report.context.splice(0..0, context(options, nproc, cpu));
    Ok(report)
}

fn context(options: &Options, nproc: usize, cpu: String) -> Vec<(String, String)> {
    let forced =
        std::env::var("BF_FORCE_SCALAR").is_ok_and(|v| v == "1" || v.eq_ignore_ascii_case("true"));
    let kernel = if forced {
        "scalar (pinned by BF_FORCE_SCALAR)".to_string()
    } else {
        browserflow_fingerprint::kernel::detected_kernel()
            .name()
            .to_string()
    };
    vec![
        ("workload".into(), options.workload.name().into()),
        ("seed".into(), options.seed.to_string()),
        ("seconds".into(), options.seconds.to_string()),
        ("trace".into(), u8::from(options.trace).to_string()),
        ("smoke".into(), options.smoke.to_string()),
        ("nproc".into(), nproc.to_string()),
        ("pinned_cpu".into(), cpu),
        ("kernel".into(), kernel),
        ("git_rev".into(), git_rev()),
        ("bfd".into(), options.bfd.display().to_string()),
    ]
}

/// The checkout's git revision, or `unknown` outside a git repository.
fn git_rev() -> String {
    let cwd = std::env::current_dir().unwrap_or_default();
    let ceiling = cwd.parent().unwrap_or(&cwd).to_path_buf();
    Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|rev| rev.trim().to_string())
        .filter(|rev| !rev.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn measure(
    options: &Options,
    plan: &Plan,
    seed_bodies: &[Vec<u8>],
    bodies: &[Vec<u8>],
    dir: &Path,
) -> Result<Report, String> {
    let setups = if options.smoke { 1 } else { SETUPS };
    let mut times: Vec<SetupTimes> = Vec::new();
    let mut live = None;
    for i in 0..setups {
        let attempt = dir.join(format!("setup{i}"));
        let (daemon, conn, t) = setup(&options.bfd, &attempt, plan, seed_bodies)?;
        times.push(t);
        if i + 1 == setups {
            live = Some((daemon, conn));
        }
    }
    let (daemon, mut conn) = live.expect("at least one set-up");
    let mut load = run_load(&daemon, &mut conn, plan, bodies, options.trace);
    drop(conn);
    drop(daemon);
    if let Some(e) = &load.aborted {
        return Err(format!("load phase aborted: {e}"));
    }
    let mut notes = load.mismatches.clone();
    let mut correct = load.wrong == 0 && load.alerts.missing == 0 && load.ledger.holds();
    if load.alerts.missing > 0 {
        notes.push(format!(
            "{} of {} expected alerts missing",
            load.alerts.missing,
            load.alerts.missing + load.alerts.found
        ));
    }
    let failed = load.failed + load.alerts.missing;
    let metrics = if !options.trace {
        end_to_end(&mut load, &times, failed)
    } else {
        let frames: Vec<Vec<u8>> = bodies
            .iter()
            .map(|body| {
                let mut frame = Vec::with_capacity(body.len() + 4);
                write_frame(&mut frame, body).expect("frames fit the protocol limit");
                frame
            })
            .collect();
        let ReplayPair { untraced, traced } = replay(plan, &frames);
        for run in [&untraced, &traced] {
            if run.wrong > 0 || run.alerts.missing > 0 {
                correct = false;
                notes.push(format!(
                    "in-process replay: {} wrong replies, {} alerts missing",
                    run.wrong, run.alerts.missing
                ));
            }
        }
        notes.extend(span_summary(&traced));
        write_spans(options, &traced)?;
        per_layer(&mut load, &times, &traced, untraced.main_ns, plan)
    };
    Ok(Report {
        context: Vec::new(),
        correct,
        attempted: load.attempted,
        failed,
        metrics,
        notes,
    })
}

fn metric(name: impl Into<String>, unit: &'static str, value: f64, samples: Option<u64>) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
        samples,
    }
}

fn end_to_end(load: &mut LoadResult, times: &[SetupTimes], failed: u64) -> Vec<Metric> {
    let mut metrics = Vec::new();
    for kind in Kind::ALL {
        let series = &mut load.round_trip_us[kind.index()];
        let n = Some(series.len() as u64);
        for p in [50, 90] {
            let name = format!("{}_p{p}_us", kind.name());
            metrics.push(metric(name, "us", series.percentile(f64::from(p)), n));
        }
    }
    let completed = load.attempted.saturating_sub(load.failed);
    metrics.push(metric(
        "requests_per_s",
        "1/s",
        ratio(completed as f64, load.wall_s),
        Some(completed),
    ));
    let setup: Vec<f64> = times.iter().map(|t| t.total_s).collect();
    metrics.push(metric(
        "setup_s",
        "s",
        median(&setup).unwrap_or(0.0),
        Some(setup.len() as u64),
    ));
    metrics.push(metric("rss_peak_mb", "MB", load.rss_peak_mb, Some(1)));
    // Reported for the log; `failed` in the result line carries it too.
    metrics.push(metric(
        "failed_frac",
        "ratio",
        failed_frac(failed, load.attempted),
        Some(load.attempted),
    ));
    metrics
}

/// Whether `BENCHMARK.json` lists the metric. `failed_frac` is 0 on a
/// healthy run, so it is logged only; the result line's `failed` and
/// `attempted` carry it.
pub fn is_listed(name: &str) -> bool {
    name != "failed_frac"
}

fn per_layer(
    load: &mut LoadResult,
    times: &[SetupTimes],
    traced: &ReplayResult,
    untraced_ns: u128,
    plan: &Plan,
) -> Vec<Metric> {
    let tr = &traced.tracer;
    let mut m = Vec::new();
    let p50 = |name: &str, span: &str, m: &mut Vec<Metric>| {
        let mut samples = tr.durations_us(span);
        let n = Some(samples.len() as u64);
        m.push(metric(name, "us", samples.percentile(50.0), n));
    };
    // daemon
    for kind in Kind::ALL {
        p50(
            &format!("daemon.decode_us.{}.p50", kind.name()),
            DECODE_SPANS[kind.index()],
            &mut m,
        );
    }
    p50("daemon.encode_reply_us.p50", "daemon.encode", &mut m);
    for kind in Kind::ALL {
        let bytes = &load.request_bytes[kind.index()];
        m.push(metric(
            format!("daemon.request_bytes.{}.mean", kind.name()),
            "bytes",
            bytes.mean(),
            Some(bytes.len() as u64),
        ));
    }
    for (series, kind) in [Kind::Keystroke, Kind::Check].into_iter().enumerate() {
        let outside = &mut load.outside_decider_us[series];
        let n = Some(outside.len() as u64);
        m.push(metric(
            format!("daemon.outside_decider_us.{}.p50", kind.name()),
            "us",
            outside.percentile(50.0),
            n,
        ));
    }
    let n = Some(load.decode_share.len() as u64);
    m.push(metric(
        "daemon.decode_share.observe",
        "ratio",
        load.decode_share.percentile(50.0),
        n,
    ));
    m.push(metric(
        "daemon.backpressure",
        "count",
        load.ledger.backpressure as f64,
        None,
    ));
    m.push(metric(
        "daemon.errors",
        "count",
        load.ledger.errors as f64,
        None,
    ));
    // decider
    for (series, kind) in [Kind::Keystroke, Kind::Check].into_iter().enumerate() {
        let latency = &mut load.decider_us[series];
        let n = Some(latency.len() as u64);
        for p in [50, 90, 99] {
            m.push(metric(
                format!("decider.latency_us.{}.p{p}", kind.name()),
                "us",
                latency.percentile(f64::from(p)),
                n,
            ));
        }
    }
    let pipeline = load.pipeline;
    m.push(metric(
        "decider.completed",
        "count",
        pipeline.completed as f64,
        None,
    ));
    m.push(metric(
        "decider.coalesced",
        "count",
        pipeline.coalesced as f64,
        None,
    ));
    m.push(metric(
        "decider.rejected",
        "count",
        pipeline.rejected as f64,
        None,
    ));
    m.push(metric(
        "decider.mean_batch",
        "paragraphs",
        pipeline.mean_batch(),
        Some(pipeline.batches),
    ));
    // middleware / engine
    p50("middleware.check_us.p50", "middleware.check", &mut m);
    p50("middleware.observe_us.p50", "middleware.observe", &mut m);
    let lookups = traced.cache_hits + traced.cache_misses;
    m.push(metric(
        "engine.cache_hit_ratio",
        "ratio",
        ratio(traced.cache_hits as f64, lookups as f64),
        Some(lookups),
    ));
    // fingerprint
    p50("fingerprint.us.p50", "fingerprint.fingerprint", &mut m);
    let (texts, bytes, hashes) = traced.fingerprinted;
    let fingerprint_us = tr.durations_us("fingerprint.fingerprint").sum();
    m.push(metric(
        "fingerprint.us_per_kb",
        "us/KB",
        ratio(fingerprint_us, bytes as f64 / 1024.0),
        Some(texts),
    ));
    m.push(metric(
        "fingerprint.hashes_per_paragraph",
        "count",
        ratio(hashes as f64, texts as f64),
        Some(texts),
    ));
    // store
    let mut algorithm1 = tr.durations_us("store.algorithm1");
    let n = Some(algorithm1.len() as u64);
    m.push(metric(
        "store.algorithm1_us.p50",
        "us",
        algorithm1.percentile(50.0),
        n,
    ));
    m.push(metric(
        "store.algorithm1_us.p90",
        "us",
        algorithm1.percentile(90.0),
        n,
    ));
    let (calls, reports) = traced.algorithm1;
    m.push(metric(
        "store.reports_per_check",
        "count",
        ratio(reports as f64, calls as f64),
        Some(calls),
    ));
    m.push(metric(
        "store.observe_batch_us_per_paragraph",
        "us",
        ratio(
            tr.durations_us("store.observe_batch").sum(),
            traced.batch_paragraphs as f64,
        ),
        Some(traced.batch_paragraphs),
    ));
    for (name, value) in [
        (
            "store.batch_lock_acquisitions",
            traced.batch_lock_acquisitions,
        ),
        ("store.hash_lock_contention", traced.hash_lock_contention),
        ("store.segments", traced.store_segments),
        ("store.hashes", traced.store_hashes),
    ] {
        m.push(metric(name, "count", value as f64, None));
    }
    // persistence and set-up
    let n = Some(times.len() as u64);
    let med =
        |f: fn(&SetupTimes) -> f64| median(&times.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0);
    m.push(metric("store.persist_s", "s", med(|t| t.persist_s), n));
    m.push(metric("store.restore_s", "s", med(|t| t.restore_s), n));
    m.push(metric(
        "store.state_bytes_per_paragraph",
        "bytes",
        ratio(med(|t| t.state_bytes as f64), plan.seed_paragraphs as f64),
        n,
    ));
    m.push(metric("setup.seed_s", "s", med(|t| t.seed_s), n));
    // tdm
    p50("tdm.check_release_us.p50", "tdm.check_release", &mut m);
    // lineage
    m.push(metric(
        "lineage.edges",
        "count",
        traced.lineage_edges as f64,
        None,
    ));
    p50("lineage.record_us.p50", "lineage.record_batch", &mut m);
    let mut trace_us = tr.durations_us("lineage.trace");
    let n = Some(trace_us.len() as u64);
    m.push(metric(
        "lineage.trace_us.p50",
        "us",
        trace_us.percentile(50.0),
        n,
    ));
    m.push(metric(
        "lineage.trace_us.p90",
        "us",
        trace_us.percentile(90.0),
        n,
    ));
    m.push(metric(
        "lineage.alerts",
        "count",
        traced.alerts_raised as f64,
        None,
    ));
    m.push(metric(
        "middleware.warnings",
        "count",
        traced.warnings as f64,
        None,
    ));
    // the tracer itself
    m.push(metric(
        "trace.overhead_frac",
        "ratio",
        ratio(
            traced.main_ns as f64 - untraced_ns as f64,
            untraced_ns as f64,
        ),
        None,
    ));
    m.push(metric(
        "trace.spans",
        "count",
        tr.spans().len() as f64,
        None,
    ));
    // tail diagnostics of the client round trips
    for kind in Kind::ALL {
        let series = &mut load.round_trip_us[kind.index()];
        let n = Some(series.len() as u64);
        m.push(metric(
            format!("samples.{}", kind.name()),
            "count",
            series.len() as f64,
            None,
        ));
        for (label, p) in [("p99", 99.0), ("p999", 99.9)] {
            m.push(metric(
                format!("roundtrip_us.{}.{label}", kind.name()),
                "us",
                series.percentile(p),
                n,
            ));
        }
    }
    m
}

fn span_summary(traced: &ReplayResult) -> Vec<String> {
    traced
        .tracer
        .summary()
        .into_iter()
        .map(|(name, (count, total_ns, self_ns))| {
            format!(
                "span {name} count={count} total_ms={:.3} self_ms={:.3}",
                total_ns as f64 / 1e6,
                self_ns as f64 / 1e6
            )
        })
        .collect()
}

fn write_spans(options: &Options, traced: &ReplayResult) -> Result<(), String> {
    std::fs::create_dir_all(RUN_ROOT).map_err(|e| format!("create {RUN_ROOT}: {e}"))?;
    let path = Path::new(RUN_ROOT).join(format!(
        "spans-{}-seed{}.tsv",
        options.workload.name(),
        options.seed
    ));
    let file = File::create(&path).map_err(|e| format!("create {path:?}: {e}"))?;
    let mut out = BufWriter::new(file);
    traced
        .tracer
        .write_tsv(&mut out)
        .and_then(|()| std::io::Write::flush(&mut out))
        .map_err(|e| format!("write {path:?}: {e}"))
}
