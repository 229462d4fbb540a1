//! Cross-layer consistency between the trace timeline and the
//! statistics engine: the per-event view must sum to exactly what
//! `SimStats` aggregates, and tracing must never perturb a run.

use pimeval::trace::TraceEvent;
use pimeval::{DataType, Device, DeviceConfig, PimTarget, SimStats};

/// A small mixed workload touching commands, copies (all three
/// directions), a ranged reduction, and a host phase.
fn run_workload(dev: &mut Device) -> (SimStats, Vec<i32>) {
    let a = dev.alloc_vec(&[3i32, -1, 4, 1, 5, 9, 2, 6]).unwrap();
    let b = dev.alloc_vec(&[2i32, 7, 1, 8, 2, 8, 1, 8]).unwrap();
    let c = dev.alloc_associated(a, DataType::Int32).unwrap();
    dev.add(a, b, c).unwrap();
    dev.mul(a, c, c).unwrap();
    dev.popcount(c, c).unwrap();
    let _ = dev.red_sum(c).unwrap();
    let _ = dev.red_sum_range(c, 2, 6).unwrap();
    dev.copy_object(a, b).unwrap();
    dev.record_host_ms(0.125);
    let out = dev.to_vec::<i32>(c).unwrap();
    dev.free(a).unwrap();
    dev.free(b).unwrap();
    dev.free(c).unwrap();
    (dev.stats().clone(), out)
}

fn targets() -> [PimTarget; 4] {
    [
        PimTarget::BitSerial,
        PimTarget::Fulcrum,
        PimTarget::BankLevel,
        PimTarget::AnalogBitSerial,
    ]
}

#[test]
fn cmd_events_sum_to_stats_totals() {
    for target in targets() {
        let mut dev = Device::new(DeviceConfig::new(target, 2)).unwrap();
        dev.enable_tracing();
        let (stats, _) = run_workload(&mut dev);
        let events = dev.take_trace();

        let mut cmd_count = 0u64;
        let mut cmd_time = 0.0f64;
        let mut cmd_energy = 0.0f64;
        let mut copy_time = 0.0f64;
        let mut h2d = 0u64;
        let mut d2h = 0u64;
        let mut d2d = 0u64;
        let mut host_time = 0.0f64;
        for e in &events {
            match e {
                TraceEvent::Cmd {
                    time_ms, energy_mj, ..
                } => {
                    cmd_count += 1;
                    cmd_time += time_ms;
                    cmd_energy += energy_mj;
                }
                TraceEvent::Copy {
                    direction,
                    bytes,
                    time_ms,
                    ..
                } => {
                    use pimeval::CopyDirection::*;
                    match direction {
                        HostToDevice => h2d += bytes,
                        DeviceToHost => d2h += bytes,
                        DeviceToDevice => d2d += bytes,
                    }
                    copy_time += time_ms;
                }
                TraceEvent::HostPhase { time_ms, .. } => host_time += time_ms,
                _ => {}
            }
        }
        assert_eq!(
            cmd_count,
            stats.total_ops(),
            "{target}: one Cmd event per op"
        );
        assert!(
            (cmd_time - stats.kernel_time_ms()).abs() < 1e-9,
            "{target}: kernel time"
        );
        assert!(
            (cmd_energy - stats.kernel_energy_mj()).abs() < 1e-9,
            "{target}: kernel energy"
        );
        assert!(
            (copy_time - stats.copy.time_ms).abs() < 1e-9,
            "{target}: copy time"
        );
        assert_eq!(h2d, stats.copy.host_to_device_bytes, "{target}: h2d bytes");
        assert_eq!(d2h, stats.copy.device_to_host_bytes, "{target}: d2h bytes");
        assert_eq!(
            d2d, stats.copy.device_to_device_bytes,
            "{target}: d2d bytes"
        );
        assert!(
            (host_time - stats.host_time_ms).abs() < 1e-12,
            "{target}: host time"
        );
    }
}

#[test]
fn tracing_does_not_perturb_stats_or_results() {
    for target in targets() {
        let cfg = DeviceConfig::new(target, 2);
        let mut plain = Device::new(cfg.clone()).unwrap();
        let (stats_plain, out_plain) = run_workload(&mut plain);
        assert!(
            plain.take_trace().is_empty(),
            "untraced device records nothing"
        );

        let mut traced = Device::new(cfg).unwrap();
        traced.enable_tracing();
        let (stats_traced, out_traced) = run_workload(&mut traced);
        assert!(!traced.trace_events().is_empty());

        assert_eq!(
            out_plain, out_traced,
            "{target}: functional results identical"
        );
        assert_eq!(stats_plain, stats_traced, "{target}: statistics identical");
    }
}

#[test]
fn trace_timeline_is_monotonic() {
    let mut dev = Device::fulcrum(2).unwrap();
    dev.enable_tracing();
    let _ = run_workload(&mut dev);
    let events = dev.take_trace();
    assert!(events.len() > 5);
    let mut last = 0.0f64;
    for e in &events {
        let ts = e.timestamp_ms();
        assert!(
            ts >= last - 1e-12,
            "timestamps never go backwards: {ts} < {last}"
        );
        assert!(e.duration_ms() >= 0.0);
        last = ts;
    }
}

#[test]
fn bit_serial_cmds_carry_micro_counters() {
    for (target, expect_analog) in [
        (PimTarget::BitSerial, false),
        (PimTarget::AnalogBitSerial, true),
    ] {
        let mut dev = Device::new(DeviceConfig::new(target, 2)).unwrap();
        dev.enable_tracing();
        let a = dev.alloc_vec(&[1i32, 2, 3, 4]).unwrap();
        let b = dev.alloc_associated(a, DataType::Int32).unwrap();
        dev.add(a, a, b).unwrap();
        let events = dev.take_trace();
        let micro = events
            .iter()
            .find_map(|e| match e {
                TraceEvent::Cmd { name, micro, .. } if name == "add.int32" => micro.as_ref(),
                _ => None,
            })
            .expect("bit-serial add carries microcode counters");
        assert!(micro.row_reads + micro.aap_ops + micro.tra_ops > 0);
        if expect_analog {
            assert!(
                micro.tra_ops > 0,
                "analog target uses triple-row activations"
            );
        } else {
            assert!(micro.logic_ops > 0, "digital target uses sense-amp logic");
        }
    }
}

#[test]
fn word_parallel_cmds_have_no_micro_counters_but_copies_have_protocol() {
    let mut dev = Device::fulcrum(2).unwrap();
    dev.enable_tracing();
    let a = dev.alloc_vec(&[1i32; 4096]).unwrap();
    let b = dev.alloc_associated(a, DataType::Int32).unwrap();
    dev.add(a, a, b).unwrap();
    for e in dev.take_trace() {
        match e {
            TraceEvent::Cmd { micro, .. } => assert!(micro.is_none()),
            TraceEvent::Copy {
                protocol,
                direction,
                ..
            } => {
                let p = protocol.expect("host↔device copies carry protocol counters");
                assert_eq!(direction, pimeval::CopyDirection::HostToDevice);
                assert!(p.activations > 0 && p.reads > 0 && p.precharges > 0);
                assert!(p.achieved_gbs > 0.0);
            }
            _ => {}
        }
    }
}

#[test]
fn disable_tracing_stops_recording() {
    let mut dev = Device::fulcrum(2).unwrap();
    dev.enable_tracing();
    let a = dev.alloc_vec(&[1i32, 2]).unwrap();
    dev.disable_tracing();
    assert!(!dev.tracing_enabled());
    let b = dev.alloc_associated(a, DataType::Int32).unwrap();
    dev.add(a, a, b).unwrap();
    assert!(
        dev.take_trace().is_empty(),
        "recorder was replaced by the no-op sink"
    );
}

#[test]
fn re_enabled_trace_resumes_at_accumulated_modeled_time() {
    let mut dev = Device::fulcrum(2).unwrap();
    dev.enable_tracing();
    let _ = run_workload(&mut dev);
    dev.disable_tracing();
    let _ = run_workload(&mut dev);
    let elapsed = dev.stats().total_time_ms();
    assert!(elapsed > 0.0);
    dev.enable_tracing();
    let _ = run_workload(&mut dev);
    let events = dev.take_trace();
    let first_span = events
        .iter()
        .find(|e| matches!(e, TraceEvent::Copy { .. }))
        .expect("the workload copies first");
    for e in [&events[0], first_span] {
        assert!(
            close(e.timestamp_ms(), elapsed),
            "resumed at {} ms, modeled time so far {elapsed} ms",
            e.timestamp_ms()
        );
    }
}

/// Relative float agreement for sums folded in different orders.
fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

/// Totals of one ledger view, folded from whichever sink produced it.
#[derive(Debug, Default, PartialEq)]
struct Fold {
    ops: u64,
    kernel_ms: f64,
    kernel_mj: f64,
    copies: u64,
    copy_bytes: [u64; 3],
    copy_ms: f64,
    copy_mj: f64,
    host_ms: f64,
    ic_bytes: [u64; 4],
    ic_transfers: u64,
    ic_ms: f64,
    ic_mj: f64,
}

const IC_KINDS: [&str; 4] = ["scatter", "gather", "realign", "combine"];

impl Fold {
    fn of_trace(events: &[TraceEvent]) -> Fold {
        use pimeval::CopyDirection::*;
        let mut f = Fold::default();
        for e in events {
            match e {
                TraceEvent::Cmd {
                    time_ms, energy_mj, ..
                } => {
                    f.ops += 1;
                    f.kernel_ms += time_ms;
                    f.kernel_mj += energy_mj;
                }
                TraceEvent::Copy {
                    direction,
                    bytes,
                    time_ms,
                    energy_mj,
                    ..
                } => {
                    let slot = match direction {
                        HostToDevice => 0,
                        DeviceToHost => 1,
                        DeviceToDevice => 2,
                    };
                    f.copies += 1;
                    f.copy_bytes[slot] += bytes;
                    f.copy_ms += time_ms;
                    f.copy_mj += energy_mj;
                }
                TraceEvent::HostPhase { time_ms, .. } => f.host_ms += time_ms,
                TraceEvent::Interconnect {
                    kind,
                    bytes,
                    time_ms,
                    energy_mj,
                    ..
                } => {
                    let slot = IC_KINDS
                        .iter()
                        .position(|k| k == kind)
                        .expect("known interconnect kind");
                    f.ic_bytes[slot] += bytes;
                    f.ic_transfers += 1;
                    f.ic_ms += time_ms;
                    f.ic_mj += energy_mj;
                }
                _ => {}
            }
        }
        f
    }

    fn of_stats(s: &SimStats) -> Fold {
        let ic = &s.interconnect;
        Fold {
            ops: s.total_ops(),
            kernel_ms: s.kernel_time_ms(),
            kernel_mj: s.kernel_energy_mj(),
            copies: 0,
            copy_bytes: [
                s.copy.host_to_device_bytes,
                s.copy.device_to_host_bytes,
                s.copy.device_to_device_bytes,
            ],
            copy_ms: s.copy.time_ms,
            copy_mj: s.copy.energy_mj,
            host_ms: s.host_time_ms,
            ic_bytes: [
                ic.scatter_bytes,
                ic.gather_bytes,
                ic.realign_bytes,
                ic.combine_bytes,
            ],
            ic_transfers: ic.transfers,
            ic_ms: ic.time_ms,
            ic_mj: ic.energy_mj,
        }
    }

    /// Asserts the totals both views carry agree (`copies` is compared
    /// only when both sides count it).
    fn assert_agrees(&self, other: &Fold, ctx: &str) {
        assert_eq!(self.ops, other.ops, "{ctx}: op count");
        assert!(close(self.kernel_ms, other.kernel_ms), "{ctx}: kernel ms");
        assert!(close(self.kernel_mj, other.kernel_mj), "{ctx}: kernel mJ");
        if self.copies > 0 && other.copies > 0 {
            assert_eq!(self.copies, other.copies, "{ctx}: copy count");
        }
        assert_eq!(self.copy_bytes, other.copy_bytes, "{ctx}: copy bytes");
        assert!(close(self.copy_ms, other.copy_ms), "{ctx}: copy ms");
        assert!(close(self.copy_mj, other.copy_mj), "{ctx}: copy mJ");
        assert!(close(self.host_ms, other.host_ms), "{ctx}: host ms");
        assert_eq!(self.ic_bytes, other.ic_bytes, "{ctx}: interconnect bytes");
        assert_eq!(self.ic_transfers, other.ic_transfers, "{ctx}: transfers");
        assert!(close(self.ic_ms, other.ic_ms), "{ctx}: interconnect ms");
        assert!(close(self.ic_mj, other.ic_mj), "{ctx}: interconnect mJ");
    }
}

#[test]
fn every_sink_agrees_with_the_trace_fold() {
    use pimeval::TimingBackend;
    let n = 300usize;
    let xs: Vec<i32> = (0..n as i32).map(|i| i * 7 - 400).collect();
    let ys: Vec<i32> = (0..n as i32).map(|i| 3 - i * 5).collect();
    let cond: Vec<i8> = (0..n).map(|i| (i % 3 == 0) as i8).collect();
    for shards in [1usize, 4] {
        for backend in [TimingBackend::Analytical, TimingBackend::BankFsm] {
            let ctx = format!("shards={shards} {backend:?}");
            let cfg = DeviceConfig::new(PimTarget::Fulcrum, 1)
                .with_shards(shards)
                .with_timing_backend(backend)
                .with_metrics();
            let mut dev = Device::new(cfg).unwrap();
            dev.enable_tracing();
            let x = dev.alloc_vec(&xs).unwrap();
            let y = dev.alloc_vec(&ys).unwrap();
            let c = dev.alloc_vec(&cond).unwrap();
            let t = dev.alloc_associated(x, DataType::Int32).unwrap();
            dev.add(x, y, t).unwrap();
            dev.mul(t, x, t).unwrap();
            dev.select(c, x, y, t).unwrap();
            dev.copy_object(x, y).unwrap();
            let _ = dev.red_sum(t).unwrap();
            let _ = dev.red_sum_range(t, 10, 200).unwrap();
            dev.record_host_ms(0.25);
            let _ = dev.to_vec::<i32>(t).unwrap();
            for id in [x, y, c, t] {
                dev.free(id).unwrap();
            }

            let stats = dev.stats().clone();
            let events = dev.take_trace();
            let snap = dev.metrics_snapshot().expect("metrics on");
            let traced = Fold::of_trace(&events);
            Fold::of_stats(&stats).assert_agrees(&traced, &format!("{ctx} stats"));

            let counters = &snap.aggregate.counters;
            let gauges = &snap.aggregate.gauges;
            let counter = |k: &str| counters.get(k).copied().unwrap_or(0);
            let metered = Fold {
                ops: counter("cmds"),
                kernel_ms: traced.kernel_ms,
                kernel_mj: gauges["kernel_energy_mj"],
                copies: counter("copies"),
                copy_bytes: traced.copy_bytes,
                copy_ms: traced.copy_ms,
                copy_mj: gauges["copy_energy_mj"],
                host_ms: gauges["host_ms"],
                ic_bytes: IC_KINDS.map(|k| counter(&format!("interconnect_bytes.{k}"))),
                ic_transfers: counter("interconnect.transfers"),
                ic_ms: gauges.get("interconnect_ms").copied().unwrap_or(0.0),
                ic_mj: gauges.get("interconnect_energy_mj").copied().unwrap_or(0.0),
            };
            metered.assert_agrees(&traced, &format!("{ctx} metrics"));
            assert_eq!(
                counter("copy_bytes"),
                stats.copy.total_bytes(),
                "{ctx}: metrics copy_bytes"
            );
            let last = events.last().expect("traced run has events");
            assert_eq!(
                snap.clock_ms,
                last.timestamp_ms() + last.duration_ms(),
                "{ctx}: metrics clock vs trace end"
            );

            if shards > 1 {
                assert!(
                    traced.ic_bytes.iter().all(|&b| b > 0),
                    "{ctx}: program covers every interconnect kind: {:?}",
                    traced.ic_bytes
                );
                let mut summed = SimStats::new();
                for shard in dev.system().shards() {
                    let s = shard.stats();
                    for (name, c) in &s.cmds {
                        let e = summed.cmds.entry(name.clone()).or_default();
                        e.count += c.count;
                        e.time_ms += c.time_ms;
                        e.energy_mj += c.energy_mj;
                    }
                    summed.copy.host_to_device_bytes += s.copy.host_to_device_bytes;
                    summed.copy.device_to_host_bytes += s.copy.device_to_host_bytes;
                    summed.copy.device_to_device_bytes += s.copy.device_to_device_bytes;
                    summed.copy.time_ms += s.copy.time_ms;
                    summed.copy.energy_mj += s.copy.energy_mj;
                }
                // Shard ledgers hold kernel and copy shares only: host
                // time and interconnect stay device-level.
                let mut want = Fold::of_stats(&stats);
                want.host_ms = 0.0;
                want.ic_bytes = [0; 4];
                want.ic_transfers = 0;
                want.ic_ms = 0.0;
                want.ic_mj = 0.0;
                // Every command with a shard map splits over its holders,
                // so the per-shard op count counts command-shard pairs.
                let got = Fold::of_stats(&summed);
                assert!(got.ops >= want.ops, "{ctx}: shard op count");
                want.ops = got.ops;
                want.assert_agrees(&got, &format!("{ctx} shard ledgers"));
            }
        }
    }
}
