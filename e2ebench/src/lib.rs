//! Whole-suite host-time benchmark for the PIMeval simulator and the
//! PIMbench applications.
//!
//! One process runs one named [`Workload`]: a list of PIMbench apps,
//! each on the paper's three targets (bit-serial, Fulcrum, bank-level),
//! under one declared device configuration. It calls only public APIs
//! of `pimeval` and `pimbench`, so it measures the simulator from the
//! outside, as its users see it.
//!
//! # Passes
//!
//! * **Set-up:** one small-scale warm-up of every (app, target). It
//!   spawns the execution pool and fills the process-wide microprogram
//!   and cost caches, so the timed passes start warm. Those caches
//!   cannot be emptied through the public API, so a cold set-up happens
//!   once per process: the benchmark's own, plus one in each of a few
//!   child processes that stop after set-up. `setup_s` is their median.
//! * **Untraced passes**, repeated for the requested number of seconds
//!   and at least [`MIN_PASSES`] times. They give the end-to-end
//!   metrics: each (app, target) run's host time is its median over the
//!   passes, and `wall_s` is their sum.
//! * **One traced pass** of the same seed (only with `--trace 1`). It
//!   gives the per-layer metrics. `app.<name>.ms` and
//!   `metrics.export_ms` are per-run medians of the untraced passes.
//!
//! # Which layer should move which metric
//!
//! | Layer metrics | Moves | Mostly on |
//! |---|---|---|
//! | `device.*` (issue path) | `wall_s`, `cmds_per_s` | `suite`, `sharded-stream` |
//! | `resource.*` | `wall_s` | `suite` |
//! | `system.*` copies / interconnect | `wall_s` | `bulk` / `sharded-stream` |
//! | `exec.*` (pool) | `wall_s` | `bulk` |
//! | `stream.*`, `metrics.export_ms` | `wall_s` | `sharded-stream` |
//! | `timing.*`, `model.*` | nothing: modeled, must stay equal | all |
//! | `app.<name>.ms` | `wall_s` | every workload that runs the app |
//!
//! A layer a workload does not exercise reads 0 there.
//!
//! # Correctness gate
//!
//! An (app, target) run fails when `Benchmark::run` returns an error
//! (a PIM error or a verification failure), or when its `SimStats`
//! differ from those of the first untraced pass. The second rule covers
//! both later untraced passes and the traced pass: tracing must not
//! perturb the model.
//!
//! # Gap attribution
//!
//! The traced pass installs a [`GapSink`] on every device. It stamps
//! each [`TraceEvent`] with `Instant::now()` and charges the host time
//! since the previous event of the same run to the new event's
//! [`Class`]:
//!
//! | Event | Class | Layer |
//! |---|---|---|
//! | `Cmd` | `Cmd` | `device` (issue path) |
//! | `Alloc`, `Free` | `Alloc`, `Free` | `resource` |
//! | `Copy`, `Interconnect` | `Copy`, `Interconnect` | `system` |
//! | `StreamFlush` | `StreamFlush` | `stream` |
//! | `HostPhase` | `HostPhase` | `pimbench` |
//!
//! A run starts at its device's `DeviceCreated` event. When
//! `Benchmark::run` returns, the benchmark charges the time since the
//! last event to `Verify` (layer `pimbench`): the app's own host code
//! after its last PIM call, mostly output verification.
//!
//! A device emits each event after the work it describes, so a
//! command's gap holds its validation, functional execution, pricing
//! and ledgers. Caveat: a gap also holds any app host code between two
//! API calls, such as input generation before an `Alloc` or a host-side
//! sort before a `HostPhase`. `trace.event_frac` is the share of traced
//! wall time charged to event classes; `trace.covered_frac` adds
//! `Verify`.
//!
//! # Modeled-cost fingerprint
//!
//! The `model.*` and `timing.*` metrics are sums of modeled quantities
//! (`SimStats`), never host times. For one seed they are identical on
//! every run and every machine. A change that claims only to speed up
//! the simulator must leave them exactly equal: this is the +0.00%
//! modeled-cost guard that speed-only changes must meet.

use pimbench::{benchmark_by_name, Benchmark, Params};
use pimeval::trace::json::stats_to_json_full;
use pimeval::{
    CopyDirection, Device, DeviceConfig, OptLevel, PimTarget, SimStats, TimingBackend, TraceEvent,
    TraceSink,
};
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// DRAM ranks of every workload's device.
pub const RANKS: usize = 4;

/// Upper bound on execution-pool threads; the benchmark pins the pool to
/// the smaller of this and the host's available parallelism.
pub const MAX_THREADS: usize = 2;

/// Problem-size factor of the set-up warm-up, relative to the workload's
/// own scale.
pub const WARMUP_FRACTION: f64 = 0.05;

/// Fewest untraced passes a process runs, so that per-run medians
/// exist even when one pass outlasts the requested seconds.
pub const MIN_PASSES: usize = 3;

/// Stream optimization level every workload declares (the default).
pub const OPT: OptLevel = OptLevel::O1;

/// One benchmark workload: which apps run, at which scale, on which
/// device configuration.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name passed as `--workload`.
    pub name: &'static str,
    /// PIMbench app names, each with whether it records through a
    /// `CommandStream` (`Params::stream`).
    pub apps: &'static [(&'static str, bool)],
    /// `Params::scale` of the timed passes.
    pub scale: f64,
    /// Device shard count.
    pub shards: usize,
    /// Declared timing backend.
    pub timing: TimingBackend,
    /// Metrics registry on, and every run's stats and metrics JSON
    /// rendered in memory (what `pimbench --metrics-json` does).
    pub metrics: bool,
}

/// The 18 Table I applications.
const TABLE_I: [(&str, bool); 18] = [
    ("Vector Addition", false),
    ("AXPY", false),
    ("GEMV", false),
    ("GEMM", false),
    ("Radix Sort", false),
    ("AES-Encryption", false),
    ("AES-Decryption", false),
    ("Triangle Count", false),
    ("Filter-By-Key", false),
    ("Histogram", false),
    ("Brightness", false),
    ("Image Downsampling", false),
    ("KNN", false),
    ("Linear Regression", false),
    ("K-means", false),
    ("VGG-13", false),
    ("VGG-16", false),
    ("VGG-19", false),
];

/// Every workload, by name.
pub const WORKLOADS: [Workload; 3] = [
    // The run users make: many tiny commands, so per-command and
    // allocation overhead bind it.
    Workload {
        name: "suite",
        apps: &TABLE_I,
        scale: 1.0,
        shards: 1,
        timing: TimingBackend::Analytical,
        metrics: false,
    },
    // Few, large commands: functional kernels, host copies and the
    // execution pool do the work; per-command cost should not show.
    Workload {
        name: "bulk",
        apps: &[
            ("Vector Addition", false),
            ("AXPY", false),
            ("Filter-By-Key", false),
            ("Brightness", false),
            ("Image Downsampling", false),
            ("Linear Regression", false),
        ],
        scale: 4.0,
        shards: 1,
        timing: TimingBackend::Analytical,
        metrics: false,
    },
    // The same issue path through shards, the interconnect, FSM
    // pricing, the metrics ledger and the stream optimizer.
    Workload {
        name: "sharded-stream",
        apps: &[
            ("K-means", true),
            ("AXPY", true),
            ("GEMV", false),
            ("VGG-13", false),
        ],
        scale: 1.0,
        shards: 4,
        timing: TimingBackend::BankFsm,
        metrics: true,
    },
];

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The declared device configuration for `target`.
    pub fn config(&self, target: PimTarget) -> DeviceConfig {
        let config = DeviceConfig::new(target, RANKS)
            .with_shards(self.shards)
            .with_timing_backend(self.timing)
            .with_opt_level(OPT);
        if self.metrics {
            config.with_metrics()
        } else {
            config
        }
    }

    /// Resolves every app through `pimbench::benchmark_by_name`.
    ///
    /// # Errors
    ///
    /// The first name that does not resolve.
    pub fn benches(&self) -> Result<Vec<Box<dyn Benchmark>>, String> {
        self.apps
            .iter()
            .map(|(name, _)| benchmark_by_name(name).ok_or_else(|| format!("unknown app {name}")))
            .collect()
    }
}

/// One successful (app, target) run.
#[derive(Debug, Clone)]
pub struct Run {
    /// The app's name.
    pub name: &'static str,
    /// The run's target.
    pub target: PimTarget,
    /// Host time of `Benchmark::run`.
    pub wall: Duration,
    /// Host time of the whole run: device creation, `Benchmark::run`,
    /// export and device teardown.
    pub total: Duration,
    /// Host time of the stats and metrics JSON rendering (zero unless
    /// the workload has metrics on).
    pub export: Duration,
    /// The run's statistics.
    pub stats: SimStats,
    /// Modeled total energy (mJ), which needs the device configuration.
    pub energy_mj: f64,
}

/// One pass over every (target, app) of a workload, in a fixed order.
#[derive(Debug)]
pub struct Pass {
    /// One entry per (target, app); `Err` holds why the run failed.
    pub runs: Vec<Result<Run, String>>,
}

/// Runs one pass. With `ledger`, every device gets a [`GapSink`]
/// charging into it.
pub fn run_pass(
    w: &Workload,
    benches: &[Box<dyn Benchmark>],
    scale: f64,
    seed: u64,
    ledger: Option<&Arc<Mutex<GapLedger>>>,
) -> Pass {
    let mut runs = Vec::with_capacity(PimTarget::ALL.len() * benches.len());
    for target in PimTarget::ALL {
        for (app, bench) in benches.iter().enumerate() {
            let params = Params {
                scale,
                seed,
                stream: w.apps[app].1,
            };
            runs.push(run_one(w, target, app, bench.as_ref(), &params, ledger));
        }
    }
    Pass { runs }
}

fn run_one(
    w: &Workload,
    target: PimTarget,
    app: usize,
    bench: &dyn Benchmark,
    params: &Params,
    ledger: Option<&Arc<Mutex<GapLedger>>>,
) -> Result<Run, String> {
    let begin = Instant::now();
    let label = |e: &dyn std::fmt::Display| format!("[{target}] {}: {e}", bench.spec().name);
    let mut dev = Device::new(w.config(target)).map_err(|e| label(&e))?;
    if let Some(ledger) = ledger {
        dev.set_trace_sink(Box::new(GapSink(Arc::clone(ledger))));
    }
    let start = Instant::now();
    let outcome = bench.run(&mut dev, params);
    let wall = start.elapsed();
    if let Some(ledger) = ledger {
        ledger.lock().expect("gap ledger poisoned").close_run();
    }
    let outcome = outcome.map_err(|e| label(&e))?;
    if !outcome.verified {
        return Err(label(&"output not verified"));
    }
    let stats = outcome.stats;
    let export = if w.metrics {
        let start = Instant::now();
        let snap = dev.metrics_snapshot();
        black_box(stats_to_json_full(
            &stats,
            dev.config(),
            snap.as_ref(),
            dev.trace_dropped(),
        ));
        black_box(snap.map(|s| s.to_json()));
        start.elapsed()
    } else {
        Duration::ZERO
    };
    let energy_mj = stats.total_energy_mj(dev.config());
    drop(dev);
    Ok(Run {
        name: w.apps[app].0,
        target,
        wall,
        total: begin.elapsed(),
        export,
        energy_mj,
        stats,
    })
}

impl Pass {
    /// Runs that failed, with the reason.
    pub fn failures(&self) -> impl Iterator<Item = &String> {
        self.runs.iter().filter_map(|r| r.as_ref().err())
    }

    /// Successful runs.
    pub fn ok(&self) -> impl Iterator<Item = &Run> {
        self.runs.iter().filter_map(|r| r.as_ref().ok())
    }

    /// Marks every run whose statistics differ from the same slot of
    /// `reference` as failed; returns how many it marked.
    pub fn gate_against(&mut self, reference: &Pass) -> usize {
        let mut marked = 0;
        for (run, want) in self.runs.iter_mut().zip(&reference.runs) {
            if let (Ok(got), Ok(want)) = (&*run, want) {
                if got.stats != want.stats {
                    *run = Err(format!(
                        "[{}] {}: statistics differ from the first untraced pass",
                        got.target, got.name
                    ));
                    marked += 1;
                }
            }
        }
        marked
    }

    /// Sum of whole-run host times.
    pub fn total(&self) -> Duration {
        self.ok().map(|r| r.total).sum()
    }

    /// Sum of `Benchmark::run` host times.
    pub fn run_wall(&self) -> Duration {
        self.ok().map(|r| r.wall).sum()
    }

    /// The pass's modeled totals.
    pub fn totals(&self) -> Totals {
        let mut t = Totals::default();
        for r in self.ok() {
            let s = &r.stats;
            t.kernel_ms += s.kernel_time_ms();
            t.copy_ms += s.copy.time_ms;
            t.energy_mj += r.energy_mj;
            t.interconnect_bytes += s.interconnect.total_bytes();
            t.total_ops += s.total_ops();
            t.row_hits += s.dram_protocol.row_hits;
            t.row_misses += s.dram_protocol.row_misses;
            t.recorded += s.fusion.recorded_commands;
            t.executed += s.fusion.executed_commands;
        }
        t
    }
}

/// Modeled totals of one pass, summed in pass order. Deterministic for a
/// seed: these are the fingerprint a speed-only change must keep.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    /// Modeled kernel time (ms).
    pub kernel_ms: f64,
    /// Modeled copy time (ms).
    pub copy_ms: f64,
    /// Modeled total energy (mJ).
    pub energy_mj: f64,
    /// Modeled cross-shard interconnect bytes.
    pub interconnect_bytes: u64,
    /// PIM commands (`SimStats::total_ops`).
    pub total_ops: u64,
    /// Row-buffer hits of the timing backend.
    pub row_hits: u64,
    /// Row-buffer misses of the timing backend.
    pub row_misses: u64,
    /// Commands recorded into command streams.
    pub recorded: u64,
    /// Stream commands executed after optimization.
    pub executed: u64,
}

/// The host layer a gap is charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// `Cmd`: the device issue path.
    Cmd,
    /// `Alloc`: the resource manager.
    Alloc,
    /// `Free`: the resource manager.
    Free,
    /// `Copy`: host/device copies in the system layer.
    Copy,
    /// `Interconnect`: cross-shard transfers in the system layer.
    Interconnect,
    /// `StreamFlush`: the command stream's optimizer and batching.
    StreamFlush,
    /// `HostPhase`: a PIMbench host-side phase.
    HostPhase,
    /// The app's host code after its last event until `Benchmark::run`
    /// returns, which is mostly output verification. Closed by the
    /// benchmark, not by an event.
    Verify,
}

impl Class {
    /// Every class, in declaration order, so `class as usize` indexes it.
    pub const ALL: [Class; 8] = [
        Class::Cmd,
        Class::Alloc,
        Class::Free,
        Class::Copy,
        Class::Interconnect,
        Class::StreamFlush,
        Class::HostPhase,
        Class::Verify,
    ];

    /// The class of `event`; `None` for markers that close no work
    /// (`DeviceCreated`, `Dropped`).
    pub fn of(event: &TraceEvent) -> Option<Class> {
        Some(match event {
            TraceEvent::Cmd { .. } => Class::Cmd,
            TraceEvent::Alloc { .. } => Class::Alloc,
            TraceEvent::Free { .. } => Class::Free,
            TraceEvent::Copy { .. } => Class::Copy,
            TraceEvent::Interconnect { .. } => Class::Interconnect,
            TraceEvent::StreamFlush { .. } => Class::StreamFlush,
            TraceEvent::HostPhase { .. } => Class::HostPhase,
            TraceEvent::DeviceCreated { .. } | TraceEvent::Dropped { .. } => return None,
        })
    }

    /// Metric names: (layer module, count name, stem of the time names).
    pub fn names(self) -> (&'static str, &'static str, &'static str) {
        match self {
            Class::Cmd => ("device", "cmds", "cmd"),
            Class::Alloc => ("resource", "allocs", "alloc"),
            Class::Free => ("resource", "frees", "free"),
            Class::Copy => ("system", "copies", "copy"),
            Class::Interconnect => ("system", "interconnect_events", "interconnect"),
            Class::StreamFlush => ("stream", "flushes", "flush"),
            Class::HostPhase => ("pimbench", "host_phases", "host_phase"),
            Class::Verify => ("pimbench", "verifies", "verify"),
        }
    }
}

/// Gaps charged during a traced pass by every [`GapSink`] and by the end
/// of every run.
#[derive(Debug, Default)]
pub struct GapLedger {
    /// Stamp of the previous event of the current run.
    last: Option<Instant>,
    /// Gap lengths (ns) per class, indexed by `class as usize`.
    pub gaps: [Vec<u64>; Class::ALL.len()],
    /// Host-to-device bytes and their gap time (ns).
    pub h2d: (u64, u64),
    /// Device-to-host bytes and their gap time (ns).
    pub d2h: (u64, u64),
}

impl GapLedger {
    /// Host time since the previous stamp of this run (0 for its first).
    fn stamp(&mut self) -> u64 {
        let now = Instant::now();
        let ns = self
            .last
            .map_or(0, |last| now.duration_since(last).as_nanos());
        self.last = Some(now);
        u64::try_from(ns).unwrap_or(u64::MAX)
    }

    fn charge(&mut self, class: Class, ns: u64) {
        self.gaps[class as usize].push(ns);
    }

    fn record(&mut self, event: &TraceEvent) {
        let ns = self.stamp();
        let Some(class) = Class::of(event) else {
            return;
        };
        self.charge(class, ns);
        if let TraceEvent::Copy {
            direction, bytes, ..
        } = event
        {
            let dir = match direction {
                CopyDirection::HostToDevice => &mut self.h2d,
                CopyDirection::DeviceToHost => &mut self.d2h,
                CopyDirection::DeviceToDevice => return,
            };
            dir.0 += bytes;
            dir.1 += ns;
        }
    }

    /// Charges the time since the run's last event to [`Class::Verify`]
    /// and ends the run; the next device's `DeviceCreated` starts the
    /// next one.
    pub fn close_run(&mut self) {
        let ns = self.stamp();
        self.charge(Class::Verify, ns);
        self.last = None;
    }

    /// Host time charged to the given classes.
    pub fn charged(&self, classes: &[Class]) -> Duration {
        let ns = classes.iter().flat_map(|c| &self.gaps[*c as usize]).sum();
        Duration::from_nanos(ns)
    }
}

/// A trace sink that charges the host time between consecutive events
/// of a device to the later event's [`Class`].
#[derive(Debug)]
pub struct GapSink(pub Arc<Mutex<GapLedger>>);

impl TraceSink for GapSink {
    fn record(&mut self, event: &TraceEvent) {
        self.0
            .lock()
            .expect("gap ledger poisoned by a panicking run")
            .record(event);
    }
}

/// The median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `q` in `[0, 1]` of sorted `values` (0 when
/// empty).
fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// `num / den`, or 0 when `den` is 0.
fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The metric-name form of an app name: `AES-Encryption` becomes
/// `aes-encryption`, `Vector Addition` becomes `vector_addition`.
fn slug(name: &str) -> String {
    name.to_ascii_lowercase().replace(' ', "_")
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as declared in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, as declared in `BENCHMARK.json`.
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// The traced pass and what was recorded around it.
#[derive(Debug)]
pub struct Traced {
    /// The pass itself, gated against the first untraced pass.
    pub pass: Pass,
    /// Gap attribution of every event of the pass.
    pub ledger: GapLedger,
    /// Execution-pool occupancy during the pass.
    pub pool: pimeval::exec::pool::PoolSnapshot,
}

/// Everything one benchmark process measured.
#[derive(Debug)]
pub struct Measured {
    /// The set-up warm-up pass.
    pub warmup: Pass,
    /// Untraced timed passes; every one after the first is gated.
    pub passes: Vec<Pass>,
    /// Peak resident set after the untraced passes (MB).
    pub peak_rss_mb: f64,
    /// The traced pass, when requested.
    pub traced: Option<Traced>,
}

/// A finished set-up: the resolved apps and the warm-up pass.
pub struct SetUp {
    /// The workload's apps, resolved by name.
    pub benches: Vec<Box<dyn Benchmark>>,
    /// The warm-up pass.
    pub warmup: Pass,
    /// Host time of the whole set-up.
    pub elapsed: Duration,
}

/// Resolves the workload's apps and runs the small-scale warm-up of
/// every (app, target).
///
/// # Errors
///
/// An app name that does not resolve.
pub fn set_up(w: &Workload, seed: u64) -> Result<SetUp, String> {
    let start = Instant::now();
    let benches = w.benches()?;
    let warmup = run_pass(w, &benches, w.scale * WARMUP_FRACTION, seed, None);
    Ok(SetUp {
        benches,
        warmup,
        elapsed: start.elapsed(),
    })
}

/// After `setup`, runs untraced passes for at least `seconds` (and at
/// least [`MIN_PASSES`]), and with `trace` one traced pass.
///
/// # Errors
///
/// An unreadable peak RSS.
pub fn measure(
    w: &Workload,
    seed: u64,
    seconds: Duration,
    trace: bool,
    setup: SetUp,
) -> Result<Measured, String> {
    let SetUp {
        benches, warmup, ..
    } = setup;
    let timed = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    while passes.len() < MIN_PASSES || timed.elapsed() < seconds {
        let mut pass = run_pass(w, &benches, w.scale, seed, None);
        if let Some(first) = passes.first() {
            pass.gate_against(first);
        }
        passes.push(pass);
    }
    let peak_rss_mb = peak_rss_mb()?;
    let traced = trace.then(|| {
        use pimeval::exec::pool;
        let ledger = Arc::new(Mutex::new(GapLedger::default()));
        pool::reset();
        pool::enable();
        let mut pass = run_pass(w, &benches, w.scale, seed, Some(&ledger));
        pool::disable();
        let pool = pool::snapshot();
        pass.gate_against(&passes[0]);
        let ledger = std::mem::take(&mut *ledger.lock().expect("gap ledger poisoned"));
        Traced { pass, ledger, pool }
    });
    Ok(Measured {
        warmup,
        passes,
        peak_rss_mb,
        traced,
    })
}

/// The process's peak resident set (`VmHWM`), in MB.
///
/// # Errors
///
/// When `/proc/self/status` is unreadable or lacks `VmHWM`.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

impl Measured {
    fn all_passes(&self) -> impl Iterator<Item = &Pass> {
        std::iter::once(&self.warmup)
            .chain(&self.passes)
            .chain(self.traced.as_ref().map(|t| &t.pass))
    }

    /// (app, target) runs attempted.
    pub fn attempted(&self) -> usize {
        self.all_passes().map(|p| p.runs.len()).sum()
    }

    /// Why each failed run failed.
    pub fn failures(&self) -> Vec<&String> {
        self.all_passes().flat_map(Pass::failures).collect()
    }

    /// The sum over (app, target) runs kept by `keep` of the median of
    /// `f` over the untraced passes. Summing per-run medians filters a
    /// burst of host noise that hits one run in a minority of passes.
    fn slot_median(&self, keep: impl Fn(&Run) -> bool, f: impl Fn(&Run) -> f64) -> f64 {
        (0..self.passes[0].runs.len())
            .map(|slot| {
                let values: Vec<f64> = self
                    .passes
                    .iter()
                    .filter_map(|p| p.runs[slot].as_ref().ok())
                    .filter(|r| keep(r))
                    .map(&f)
                    .collect();
                median(&values)
            })
            .sum()
    }

    /// End-to-end metrics, from the untraced passes, and `setup_s` as
    /// measured by the caller.
    pub fn end_to_end(&self, setup_s: f64) -> Vec<Metric> {
        let ops = self.passes[0].totals().total_ops as f64;
        let wall_s = self.slot_median(|_| true, |r| r.total.as_secs_f64());
        vec![
            metric("wall_s", wall_s, "s"),
            metric("cmds_per_s", ratio(ops, wall_s), "1/s"),
            metric("setup_s", setup_s, "s"),
            metric("peak_rss_mb", self.peak_rss_mb, "MB"),
        ]
    }

    /// Per-layer metrics, from the traced pass (app and export host
    /// times from the untraced passes); `None` without a traced pass.
    pub fn per_layer(&self) -> Option<Vec<Metric>> {
        let t = self.traced.as_ref()?;
        let mut out = Vec::new();
        for (class, gaps) in Class::ALL.iter().zip(&t.ledger.gaps) {
            let (layer, count, stem) = class.names();
            let mut sorted = gaps.clone();
            sorted.sort_unstable();
            let total_ns: u64 = sorted.iter().sum();
            out.push(metric(
                format!("{layer}.{count}"),
                sorted.len() as f64,
                "count",
            ));
            out.push(metric(
                format!("{layer}.{stem}_ms"),
                total_ns as f64 / 1e6,
                "ms",
            ));
            for (q, tag) in [(0.5, "p50"), (0.99, "p99")] {
                out.push(metric(
                    format!("{layer}.{stem}_ns_{tag}"),
                    percentile(&sorted, q) as f64,
                    "ns",
                ));
            }
        }
        let (h2d_bytes, h2d_ns) = t.ledger.h2d;
        let (d2h_bytes, d2h_ns) = t.ledger.d2h;
        out.push(metric("system.h2d_bytes", h2d_bytes as f64, "B"));
        out.push(metric(
            "system.h2d_gb_per_s",
            ratio(h2d_bytes as f64, h2d_ns as f64),
            "GB/s",
        ));
        out.push(metric(
            "system.d2h_gb_per_s",
            ratio(d2h_bytes as f64, d2h_ns as f64),
            "GB/s",
        ));

        let totals = t.pass.totals();
        out.push(metric("stream.recorded", totals.recorded as f64, "count"));
        out.push(metric("stream.executed", totals.executed as f64, "count"));
        out.push(metric(
            "stream.executed_ratio",
            ratio(totals.executed as f64, totals.recorded as f64),
            "fraction",
        ));

        let busy_ns: u128 = t.pool.workers.iter().map(|w| w.busy_ns).sum();
        out.push(metric("exec.fanouts", t.pool.fanouts as f64, "count"));
        out.push(metric(
            "exec.sequential_runs",
            t.pool.sequential_runs as f64,
            "count",
        ));
        out.push(metric("exec.busy_ms", busy_ns as f64 / 1e6, "ms"));
        out.push(metric(
            "exec.caller_wait_ms",
            t.pool.caller_wait_ns as f64 / 1e6,
            "ms",
        ));

        let traced_wall = t.pass.run_wall().as_secs_f64();
        out.push(metric(
            "metrics.export_ms",
            self.slot_median(|_| true, |r| r.export.as_secs_f64() * 1e3),
            "ms",
        ));
        out.push(metric("trace.wall_ms", traced_wall * 1e3, "ms"));
        out.push(metric(
            "trace.overhead_frac",
            ratio(
                traced_wall,
                self.slot_median(|_| true, |r| r.wall.as_secs_f64()),
            ) - 1.0,
            "fraction",
        ));
        let events: Vec<Class> = Class::ALL
            .into_iter()
            .filter(|c| *c != Class::Verify)
            .collect();
        out.push(metric(
            "trace.event_frac",
            ratio(t.ledger.charged(&events).as_secs_f64(), traced_wall),
            "fraction",
        ));
        out.push(metric(
            "trace.covered_frac",
            ratio(t.ledger.charged(&Class::ALL).as_secs_f64(), traced_wall),
            "fraction",
        ));

        out.push(metric("timing.row_hits", totals.row_hits as f64, "count"));
        out.push(metric(
            "timing.row_misses",
            totals.row_misses as f64,
            "count",
        ));
        out.push(metric(
            "timing.hit_rate",
            ratio(
                totals.row_hits as f64,
                (totals.row_hits + totals.row_misses) as f64,
            ),
            "fraction",
        ));

        out.push(metric("model.kernel_ms", totals.kernel_ms, "ms"));
        out.push(metric("model.copy_ms", totals.copy_ms, "ms"));
        out.push(metric("model.energy_mj", totals.energy_mj, "mJ"));
        out.push(metric(
            "model.interconnect_bytes",
            totals.interconnect_bytes as f64,
            "B",
        ));
        out.push(metric("model.total_ops", totals.total_ops as f64, "count"));

        // Every Table I app has a metric; apps outside the workload read 0.
        for (name, _) in TABLE_I {
            let ms = self.slot_median(|r| r.name == name, |r| r.wall.as_secs_f64() * 1e3);
            out.push(metric(format!("app.{}.ms", slug(name)), ms, "ms"));
        }
        Some(out)
    }
}
