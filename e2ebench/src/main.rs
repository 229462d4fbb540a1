//! Runs one workload of the whole-suite host-time benchmark.
//!
//! ```text
//! pim-e2e-bench --workload suite|bulk|sharded-stream --seed N
//!               --seconds S --trace 0|1
//! ```
//!
//! Prints the resolved configuration, one `metric <name> = <value>
//! <unit>` line per measured metric, and as its last line one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! JSON metrics are the end-to-end ones, with `--trace 1` the per-layer
//! ones. Exits 1 when any run failed, 2 on bad arguments or an
//! environment that changes the declared configuration.
//!
//! `--setup-only` (used by the benchmark on itself) stops after set-up
//! and prints `setup_s <seconds>`.
//!
//! From the repository root:
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload suite --seed 1 --seconds 25 --trace 1
//! cargo test --manifest-path e2ebench/Cargo.toml
//! ```

use pim_e2e_bench::{measure, median, set_up, Metric, Workload, MAX_THREADS, OPT, WARMUP_FRACTION};
use pimeval::trace::json;
use pimeval::{exec, Device, PimTarget};
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

/// Cold set-ups whose median is `setup_s`: this process's own plus one
/// per child process.
const SETUP_SAMPLES: usize = 3;

const USAGE: &str = "usage: pim-e2e-bench --workload suite|bulk|sharded-stream \
                     --seed N --seconds S --trace 0|1";

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    setup_only: bool,
}

fn parse() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut setup_only = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--setup-only" {
            setup_only = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::by_name(value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, not {value}")),
                });
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        setup_only,
    })
}

/// Runs `n` child processes of this benchmark that stop after set-up,
/// one after another, and returns their set-up times.
fn child_setups(n: usize) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let args: Vec<String> = std::env::args().skip(1).collect();
    (0..n)
        .map(|_| {
            let out = Command::new(&exe)
                .args(&args)
                .arg("--setup-only")
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("cannot run set-up process: {e}"))?;
            if !out.status.success() {
                return Err(format!("set-up process failed: {}", out.status));
            }
            String::from_utf8_lossy(&out.stdout)
                .lines()
                .last()
                .and_then(|l| l.strip_prefix("setup_s "))
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| "set-up process printed no setup_s".to_string())
        })
        .collect()
}

/// Refuses an environment (`PIM_TIMING`, `PIM_OPT`, `PIM_THREADS`) that
/// resolves the workload to another configuration than it declares.
fn check_resolved(w: &Workload, dev: &Device, threads: usize) -> Result<(), String> {
    if dev.timing_backend() != w.timing {
        return Err(format!(
            "PIM_TIMING resolved the timing backend to {}, but the workload declares {}",
            dev.timing_backend(),
            w.timing
        ));
    }
    if dev.config().opt != OPT {
        return Err(format!(
            "PIM_OPT resolved the optimization level to {}, but the workload declares {OPT}",
            dev.config().opt
        ));
    }
    if let Ok(v) = std::env::var("PIM_THREADS") {
        if v.trim().parse::<usize>() != Ok(threads) {
            return Err(format!(
                "PIM_THREADS={v}, but the benchmark pins the pool to {threads} threads"
            ));
        }
    }
    Ok(())
}

fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        println!("metric {} = {} {}", m.name, m.value, m.unit);
    }
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = nproc.min(MAX_THREADS);
    exec::set_thread_count(Some(threads));

    let probe = match Device::new(w.config(PimTarget::Fulcrum)) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("error: cannot create device: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = check_resolved(w, &probe, threads) {
        eprintln!("error: refusing to run: {e}");
        return ExitCode::from(2);
    }
    if args.setup_only {
        drop(probe);
        return match set_up(w, args.seed) {
            Ok(s) if s.warmup.failures().count() == 0 => {
                println!("setup_s {}", s.elapsed.as_secs_f64());
                ExitCode::SUCCESS
            }
            Ok(s) => {
                for f in s.warmup.failures() {
                    eprintln!("FAILED {f}");
                }
                ExitCode::FAILURE
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
        };
    }
    let targets: Vec<String> = PimTarget::ALL.iter().map(|t| t.to_string()).collect();
    let apps: Vec<&str> = w.apps.iter().map(|(a, _)| *a).collect();
    let streamed: Vec<&str> = w.apps.iter().filter(|(_, s)| *s).map(|(a, _)| *a).collect();
    println!(
        "config workload={} seed={} seconds={} trace={} scale={} warmup_scale={} \
         targets=[{}] ranks={} shards={} timing={} opt={} metrics={} threads={} nproc={}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        w.scale,
        w.scale * WARMUP_FRACTION,
        targets.join(", "),
        probe.config().geometry.ranks,
        probe.system().shard_count(),
        probe.timing_backend(),
        probe.config().opt,
        probe.metrics_enabled(),
        exec::thread_count(),
        nproc,
    );
    println!(
        "config apps=[{}] streamed=[{}]",
        apps.join(", "),
        streamed.join(", ")
    );
    drop(probe);

    let measured = child_setups(SETUP_SAMPLES - 1).and_then(|mut setups| {
        let setup = set_up(w, args.seed)?;
        setups.push(setup.elapsed.as_secs_f64());
        let seconds = Duration::from_secs(args.seconds);
        Ok((setups, measure(w, args.seed, seconds, args.trace, setup)?))
    });
    let (setups, m) = match measured {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let failures = m.failures();
    for f in &failures {
        eprintln!("FAILED {f}");
    }
    let attempted = m.attempted();
    let pass_walls: Vec<String> = m
        .passes
        .iter()
        .map(|p| format!("{:.3}", p.total().as_secs_f64()))
        .collect();
    println!(
        "passes {} untraced [{} s], {} traced; failed_frac = {}",
        m.passes.len(),
        pass_walls.join(", "),
        u8::from(m.traced.is_some()),
        failures.len() as f64 / attempted as f64
    );
    println!("setups {:?} s", setups);
    let end_to_end = m.end_to_end(median(&setups));
    print_metrics(&end_to_end);
    let per_layer = m.per_layer();
    if let Some(p) = &per_layer {
        print_metrics(p);
    }
    let reported = per_layer.unwrap_or(end_to_end);
    let body: Vec<String> = reported
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::string(&m.name),
                json::num(m.value),
                json::string(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failures.is_empty(),
        failures.len(),
        body.join(", ")
    );
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
