//! Runs the extension kernels (prefix sum, string match, transitive
//! closure — the additions §II/§IX of the paper announce) on every
//! target in [`PimTarget::EXTENDED`] — the paper's three plus the
//! analog bit-serial and UPMEM-like extensions — and prints
//! CPU-relative speedups in the Fig. 9 style.

use pim_baseline::ComputeModel;
use pim_bench_harness::{cli_params, fmt_ratio};
use pimbench::extension_benchmarks;
use pimeval::{Device, DeviceConfig, PimTarget};

/// Width of the kernel-name column.
const KERNEL_W: usize = 20;
/// Width of one target column, including its leading space.
const COLUMN_W: usize = 15;

fn main() {
    let params = cli_params(0.25);
    let cpu = ComputeModel::epyc_9124();
    println!(
        "Extension kernels — speedup over baseline CPU (32 ranks, scale {})\n",
        params.scale
    );
    // One heading per target column, each ending where its numbers end
    // (a name wider than the column borrows from the gap to its left).
    let mut heading = format!("{:<KERNEL_W$}", "Kernel");
    for (k, target) in PimTarget::EXTENDED.iter().enumerate() {
        let end = KERNEL_W + COLUMN_W * (k + 1);
        let pad = end.saturating_sub(heading.len() + target.name().len());
        heading.push_str(&" ".repeat(pad.max(1)));
        heading.push_str(target.name());
    }
    println!("{heading}");
    let mut rows: Vec<(String, Vec<f64>)> = Vec::new();
    for bench in extension_benchmarks() {
        let mut speedups = Vec::new();
        for target in PimTarget::EXTENDED {
            let factor = bench.paper_factor(&params).max(1.0);
            let serial = bench.serial_factor(&params).clamp(1.0, factor);
            let parallel = (factor / serial).max(1.0);
            let cfg = DeviceConfig::new(target, 32).with_decimation(parallel.round() as u64);
            let mut dev = Device::new(cfg).expect("device");
            let outcome = bench.run(&mut dev, &params).expect("extension kernel runs");
            assert!(outcome.verified, "{} on {target}", bench.spec().name);
            let mut stats = outcome.stats;
            stats.scale_kernel_and_copies(serial);
            stats.host_time_ms *= factor;
            let cpu_ms = cpu.runtime_ms(&bench.cpu_profile(&params)) * factor;
            speedups.push(cpu_ms / stats.total_time_ms());
        }
        rows.push((bench.spec().name.to_string(), speedups));
    }
    for (name, speedups) in rows {
        print!("{name:<KERNEL_W$}");
        for s in speedups {
            print!(" {:>w$}", fmt_ratio(s), w = COLUMN_W - 1);
        }
        println!();
    }
}
