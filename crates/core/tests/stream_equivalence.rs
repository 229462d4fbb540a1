//! Stream-vs-eager equivalence suite.
//!
//! The deferred [`pimeval::CommandStream`] may fuse, batch, and eliminate
//! commands, but it must never change what the program computes: for
//! every target and dtype, the streamed (fused) run must produce
//! bit-identical buffers to the eager run, and its modeled kernel time
//! must never exceed the eager pair's. Dead-write elimination gets its
//! own positive and negative cases, and the flush must leave fusion
//! counters in [`pimeval::SimStats`] and a `StreamFlush` trace event.

use pimeval::{
    DataType, Device, DeviceConfig, OpKind, OptLevel, PimCommand, PimScalar, PimTarget, TraceEvent,
};

const TARGETS: [PimTarget; 5] = [
    PimTarget::BitSerial,
    PimTarget::Fulcrum,
    PimTarget::BankLevel,
    PimTarget::AnalogBitSerial,
    PimTarget::UpmemLike,
];

fn device(target: PimTarget) -> Device {
    Device::new(DeviceConfig::new(target, 1)).unwrap()
}

/// Deterministic SplitMix64 stream.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }
}

/// Two deterministic pseudo-random vectors cast to `T`.
fn data<T: PimScalar>(n: usize, seed: u64) -> (Vec<T>, Vec<T>) {
    let mut rng = Rng(seed);
    let mut gen = |_| T::from_device(rng.next_u64() as i64);
    let a: Vec<T> = (0..n).map(&mut gen).collect();
    let b: Vec<T> = (0..n).map(&mut gen).collect();
    (a, b)
}

/// Runs `y = a·x + y` then `out = (x < y) ? x : y` both eagerly and
/// through a stream on fresh devices; checks buffers match bit-for-bit
/// and the fused modeled cost does not exceed the eager one.
fn check_fused_equivalence<T: PimScalar + PartialEq + std::fmt::Debug>(
    target: PimTarget,
    seed: u64,
) {
    const K: i64 = 7;
    let n = 257; // odd, multi-word, exercises partial chunks
    let (xs, ys) = data::<T>(n, seed);

    // Eager reference: explicit temporary for the product and the mask.
    let mut eager = device(target);
    let x = eager.alloc_vec(&xs).unwrap();
    let y = eager.alloc_vec(&ys).unwrap();
    let t = eager.alloc_associated(x, T::DTYPE).unwrap();
    let mask = eager.alloc_associated(x, T::DTYPE).unwrap();
    let out = eager.alloc_associated(x, T::DTYPE).unwrap();
    eager.mul_scalar(x, K, t).unwrap();
    eager.add(t, y, y).unwrap();
    eager.lt(x, y, mask).unwrap();
    eager.select(mask, x, y, out).unwrap();
    let eager_y: Vec<T> = eager.to_vec(y).unwrap();
    let eager_out: Vec<T> = eager.to_vec(out).unwrap();
    let eager_ms = eager.stats().kernel_time_ms();

    // Streamed run: identical program, recorded then flushed.
    let mut dev = device(target);
    let x = dev.alloc_vec(&xs).unwrap();
    let y = dev.alloc_vec(&ys).unwrap();
    let t = dev.alloc_associated(x, T::DTYPE).unwrap();
    let mask = dev.alloc_associated(x, T::DTYPE).unwrap();
    let out = dev.alloc_associated(x, T::DTYPE).unwrap();
    let mut stream = dev.stream();
    stream.mul_scalar(x, K, t).add(t, y, y);
    stream.lt(x, y, mask).select(mask, x, y, out);
    let summary = stream.flush().unwrap();
    drop(stream);
    assert_eq!(summary.recorded, 4, "{target:?}");
    assert_eq!(summary.fused_scaled_add, 1, "{target:?}");
    assert_eq!(summary.fused_cmp_select, 1, "{target:?}");
    assert_eq!(summary.executed, 2, "{target:?}");

    let streamed_y: Vec<T> = dev.to_vec(y).unwrap();
    let streamed_out: Vec<T> = dev.to_vec(out).unwrap();
    assert_eq!(streamed_y, eager_y, "{target:?} {:?}", T::DTYPE);
    assert_eq!(streamed_out, eager_out, "{target:?} {:?}", T::DTYPE);

    let fused_ms = dev.stats().kernel_time_ms();
    assert!(
        fused_ms <= eager_ms * (1.0 + 1e-12),
        "{target:?} {:?}: fused {fused_ms} ms > eager {eager_ms} ms",
        T::DTYPE
    );
}

#[test]
fn fused_streams_match_eager_on_every_target_and_dtype() {
    for (i, target) in TARGETS.into_iter().enumerate() {
        let seed = 0xA11CE + i as u64;
        check_fused_equivalence::<i8>(target, seed);
        check_fused_equivalence::<i32>(target, seed);
        check_fused_equivalence::<i64>(target, seed);
        check_fused_equivalence::<u16>(target, seed);
    }
}

#[test]
fn dead_write_elimination_drops_only_overwritten_results() {
    let mut dev = device(PimTarget::Fulcrum);
    let x = dev.alloc_vec(&[1i32, 2, 3, 4]).unwrap();
    let y = dev.alloc_vec(&[10i32, 20, 30, 40]).unwrap();
    let t = dev.alloc_associated(x, DataType::Int32).unwrap();
    let out = dev.alloc_associated(x, DataType::Int32).unwrap();

    // The first add's result is overwritten without ever being read:
    // it must be eliminated and the final buffers must be unaffected.
    let mut stream = dev.stream();
    stream.add(x, y, t).sub(x, y, t).mul(t, x, out);
    let summary = stream.flush().unwrap();
    drop(stream);
    assert_eq!(summary.dead_writes_eliminated, 1);
    assert_eq!(summary.executed, 2);
    assert_eq!(dev.to_vec::<i32>(t).unwrap(), vec![-9, -18, -27, -36]);
    assert_eq!(dev.to_vec::<i32>(out).unwrap(), vec![-9, -36, -81, -144]);

    // Negative case: a read between the two writes keeps the first one.
    let mut stream = dev.stream();
    stream.add(x, y, t).mul(t, x, out).sub(x, y, t);
    let summary = stream.flush().unwrap();
    drop(stream);
    assert_eq!(summary.dead_writes_eliminated, 0);
    assert_eq!(summary.executed, 3);
    assert_eq!(dev.to_vec::<i32>(out).unwrap(), vec![11, 44, 99, 176]);
    assert_eq!(dev.to_vec::<i32>(t).unwrap(), vec![-9, -18, -27, -36]);
}

#[test]
fn fusion_counters_accumulate_in_sim_stats() {
    let mut dev = device(PimTarget::BitSerial);
    let x = dev.alloc_vec(&[1i32, 2, 3]).unwrap();
    let y = dev.alloc_vec(&[4i32, 5, 6]).unwrap();
    let t = dev.alloc_associated(x, DataType::Int32).unwrap();
    for _ in 0..2 {
        let mut stream = dev.stream();
        stream.mul_scalar(x, 3, t).add(t, y, y);
        stream.flush().unwrap();
    }
    let f = &dev.stats().fusion;
    assert_eq!(f.flushes, 2);
    assert_eq!(f.recorded_commands, 4);
    assert_eq!(f.executed_commands, 2);
    assert_eq!(f.fused_scaled_add, 2);
    // The Listing-3 report and the JSON export both carry the section.
    assert!(dev.report().contains("Command Stream Stats"));
    assert!(
        pimeval::trace::json::stats_to_json(dev.stats(), dev.config()).contains("fused_scaled_add")
    );
}

#[test]
fn flush_emits_stream_flush_trace_event() {
    let mut dev = device(PimTarget::Fulcrum);
    dev.enable_tracing();
    let x = dev.alloc_vec(&[1i32, 2, 3]).unwrap();
    let y = dev.alloc_vec(&[4i32, 5, 6]).unwrap();
    let t = dev.alloc_associated(x, DataType::Int32).unwrap();
    let mut stream = dev.stream();
    stream.mul_scalar(x, 3, t).add(t, y, y);
    stream.flush().unwrap();
    drop(stream);
    let events = dev.take_trace();
    let flush = events
        .iter()
        .find(|e| matches!(e, TraceEvent::StreamFlush { .. }))
        .expect("flush event recorded");
    match flush {
        TraceEvent::StreamFlush {
            recorded,
            executed,
            fused_scaled_add,
            ..
        } => {
            assert_eq!(*recorded, 2);
            assert_eq!(*executed, 1);
            assert_eq!(*fused_scaled_add, 1);
        }
        _ => unreachable!(),
    }
    let chrome = pimeval::trace::chrome::chrome_trace_json(&events);
    assert!(chrome.contains("stream flush"));
}

#[test]
fn batched_sweeps_match_eager_results() {
    // A run of same-shape elementwise commands with no fusion
    // opportunities batches into one parallel sweep; results must be
    // identical to eager execution, including chained intermediates.
    let (xs, ys) = data::<i32>(1000, 0xBA7C4);
    let mut eager = device(PimTarget::BankLevel);
    let x = eager.alloc_vec(&xs).unwrap();
    let y = eager.alloc_vec(&ys).unwrap();
    let t = eager.alloc_associated(x, DataType::Int32).unwrap();
    let u = eager.alloc_associated(x, DataType::Int32).unwrap();
    eager.add(x, y, t).unwrap();
    eager.xor(t, x, u).unwrap();
    eager.sub(u, y, t).unwrap();
    eager.max(t, x, u).unwrap();
    let eager_t: Vec<i32> = eager.to_vec(t).unwrap();
    let eager_u: Vec<i32> = eager.to_vec(u).unwrap();
    let eager_ms = eager.stats().kernel_time_ms();

    let mut dev = device(PimTarget::BankLevel);
    let x = dev.alloc_vec(&xs).unwrap();
    let y = dev.alloc_vec(&ys).unwrap();
    let t = dev.alloc_associated(x, DataType::Int32).unwrap();
    let u = dev.alloc_associated(x, DataType::Int32).unwrap();
    let mut stream = dev.stream();
    stream.add(x, y, t).xor(t, x, u).sub(u, y, t).max(t, x, u);
    let summary = stream.flush().unwrap();
    drop(stream);
    assert_eq!(summary.batched_sweeps, 1);
    assert_eq!(summary.batched_commands, 4);
    assert_eq!(dev.to_vec::<i32>(t).unwrap(), eager_t);
    assert_eq!(dev.to_vec::<i32>(u).unwrap(), eager_u);
    // Batching is an execution-engine optimization; the modeled cost is
    // charged per command and must equal the eager clock exactly.
    assert!((dev.stats().kernel_time_ms() - eager_ms).abs() < 1e-12);
}

/// Runs the fused-equivalence program at one explicit optimization
/// level; checks bit-identity with the eager reference and that the
/// modeled cost never exceeds it.
fn check_level_equivalence<T: PimScalar + PartialEq + std::fmt::Debug>(
    target: PimTarget,
    level: OptLevel,
    seed: u64,
) {
    const K: i64 = 7;
    let n = 257;
    let (xs, ys) = data::<T>(n, seed);

    let mut eager = device(target);
    let x = eager.alloc_vec(&xs).unwrap();
    let y = eager.alloc_vec(&ys).unwrap();
    let t = eager.alloc_associated(x, T::DTYPE).unwrap();
    let mask = eager.alloc_associated(x, T::DTYPE).unwrap();
    let out = eager.alloc_associated(x, T::DTYPE).unwrap();
    eager.mul_scalar(x, K, t).unwrap();
    eager.add(t, y, y).unwrap();
    eager.lt(x, y, mask).unwrap();
    eager.select(mask, x, y, out).unwrap();
    let eager_y: Vec<T> = eager.to_vec(y).unwrap();
    let eager_out: Vec<T> = eager.to_vec(out).unwrap();
    let eager_ms = eager.stats().kernel_time_ms();

    let mut dev = device(target);
    let x = dev.alloc_vec(&xs).unwrap();
    let y = dev.alloc_vec(&ys).unwrap();
    let t = dev.alloc_associated(x, T::DTYPE).unwrap();
    let mask = dev.alloc_associated(x, T::DTYPE).unwrap();
    let out = dev.alloc_associated(x, T::DTYPE).unwrap();
    let mut stream = dev.stream();
    stream.set_opt(level);
    stream.mul_scalar(x, K, t).add(t, y, y);
    stream.lt(x, y, mask).select(mask, x, y, out);
    let summary = stream.flush().unwrap();
    drop(stream);
    // This program fuses identically at every level (the pairs are
    // adjacent), so the counters are level-invariant.
    assert_eq!(summary.fused_scaled_add, 1, "{target:?} opt {level}");
    assert_eq!(summary.fused_cmp_select, 1, "{target:?} opt {level}");
    assert_eq!(summary.executed, 2, "{target:?} opt {level}");
    if level == OptLevel::O2 {
        assert!(summary.subgraphs >= 1, "{target:?}: no placement subgraphs");
        let plan = dev.placement_plan().expect("level 2 retains a plan");
        assert_eq!(plan.subgraphs.len() as u64, summary.subgraphs);
    } else {
        assert_eq!(summary.subgraphs, 0, "{target:?} opt {level}");
        assert!(dev.placement_plan().is_none());
    }

    let streamed_y: Vec<T> = dev.to_vec(y).unwrap();
    let streamed_out: Vec<T> = dev.to_vec(out).unwrap();
    assert_eq!(streamed_y, eager_y, "{target:?} opt {level} {:?}", T::DTYPE);
    assert_eq!(
        streamed_out,
        eager_out,
        "{target:?} opt {level} {:?}",
        T::DTYPE
    );
    let opt_ms = dev.stats().kernel_time_ms();
    assert!(
        opt_ms <= eager_ms * (1.0 + 1e-12),
        "{target:?} opt {level} {:?}: {opt_ms} ms > eager {eager_ms} ms",
        T::DTYPE
    );
}

#[test]
fn every_opt_level_matches_eager_on_every_target_and_dtype() {
    for (i, target) in TARGETS.into_iter().enumerate() {
        for level in [OptLevel::O0, OptLevel::O1, OptLevel::O2] {
            let seed = 0x0127 + i as u64;
            check_level_equivalence::<i8>(target, level, seed);
            check_level_equivalence::<i32>(target, level, seed);
            check_level_equivalence::<i64>(target, level, seed);
            check_level_equivalence::<u16>(target, level, seed);
        }
    }
}

#[test]
fn cse_rewrites_repeated_subexpressions_to_copies() {
    // The same subexpression computed twice into different objects: the
    // dataflow optimizer must rewrite the recomputes into copies (the
    // adjacent-pair peephole cannot see this), with bit-identical
    // buffers and strictly less modeled kernel time than level 0.
    let (xs, ys) = data::<i32>(512, 0xC5E);
    let program = |dev: &mut Device, level: OptLevel| {
        let x = dev.alloc_vec(&xs).unwrap();
        let y = dev.alloc_vec(&ys).unwrap();
        let d1 = dev.alloc_associated(x, DataType::Int32).unwrap();
        let a1 = dev.alloc_associated(x, DataType::Int32).unwrap();
        let d2 = dev.alloc_associated(x, DataType::Int32).unwrap();
        let a2 = dev.alloc_associated(x, DataType::Int32).unwrap();
        let mut stream = dev.stream();
        stream.set_opt(level);
        stream.sub(x, y, d1).abs(d1, a1);
        stream.sub(x, y, d2).abs(d2, a2);
        let summary = stream.flush().unwrap();
        drop(stream);
        (summary, [d1, a1, d2, a2])
    };

    let mut base = device(PimTarget::Fulcrum);
    let (s0, objs0) = program(&mut base, OptLevel::O0);
    assert_eq!(s0.cse_hits, 0);
    assert_eq!(s0.executed, 4);
    let base_bufs: Vec<Vec<i32>> = objs0.iter().map(|&o| base.to_vec(o).unwrap()).collect();
    let base_ms = base.stats().kernel_time_ms();

    let mut dev = device(PimTarget::Fulcrum);
    let (s1, objs1) = program(&mut dev, OptLevel::O1);
    assert_eq!(s1.cse_hits, 2, "both recomputes become copies");
    assert_eq!(s1.executed, 4);
    let opt_bufs: Vec<Vec<i32>> = objs1.iter().map(|&o| dev.to_vec(o).unwrap()).collect();
    assert_eq!(opt_bufs, base_bufs);
    let opt_ms = dev.stats().kernel_time_ms();
    assert!(
        opt_ms < base_ms,
        "CSE must strictly beat the peephole: {opt_ms} ms vs {base_ms} ms"
    );
    // The optimizer section reaches the report and the stats JSON.
    assert!(dev.report().contains("Dataflow Optimizer Stats"));
    let json = pimeval::trace::json::stats_to_json(dev.stats(), dev.config());
    assert!(json.contains("\"optimizer\""));
    assert!(json.contains("\"cse_hits\": 2"));
    // ... and stays out of both when the optimizer never fired.
    assert!(!base.report().contains("Dataflow Optimizer Stats"));
    let base_json = pimeval::trace::json::stats_to_json(base.stats(), base.config());
    assert!(!base_json.contains("\"optimizer\""));
}

#[test]
fn host_visible_reads_are_cse_barriers() {
    // A recorded reduction makes the stream's effects host-visible:
    // value numbering must not reuse a computation from before the
    // barrier for one after it.
    let (xs, ys) = data::<i32>(256, 0xBA & 0xFFFF);
    let run = |barrier: bool| {
        let mut dev = device(PimTarget::Fulcrum);
        let x = dev.alloc_vec(&xs).unwrap();
        let y = dev.alloc_vec(&ys).unwrap();
        let d1 = dev.alloc_associated(x, DataType::Int32).unwrap();
        let d2 = dev.alloc_associated(x, DataType::Int32).unwrap();
        let mut stream = dev.stream();
        stream.set_opt(OptLevel::O1);
        stream.add(x, y, d1);
        if barrier {
            stream.record(PimCommand::reduce(OpKind::RedSum, d1));
        }
        stream.add(x, y, d2);
        let summary = stream.flush().unwrap();
        drop(stream);
        let b1: Vec<i32> = dev.to_vec(d1).unwrap();
        let b2: Vec<i32> = dev.to_vec(d2).unwrap();
        (summary, b1, b2)
    };
    let (with_barrier, b1, b2) = run(true);
    assert_eq!(with_barrier.cse_hits, 0, "barrier blocks CSE");
    assert_eq!(with_barrier.executed, 3);
    let (without, c1, c2) = run(false);
    assert_eq!(without.cse_hits, 1, "no barrier: recompute becomes a copy");
    assert_eq!((b1, b2), (c1, c2), "same values either way");
}

#[test]
fn ten_thousand_command_stream_flushes_linearly() {
    // Regression for the old O(n²) `never_read_later` tail rescan: a
    // 10k-command stream must flush in linear time at every level. The
    // program reuses one temporary across 5 000 mul+add pairs — the
    // object-granular peephole liveness refuses to fuse (the temp is
    // re-read every iteration), while the SSA graph proves each
    // product has exactly one consumer and fuses all of them.
    let n = 64usize;
    let (xs, ys) = data::<i32>(n, 0x10_000);
    let run = |level: OptLevel| {
        let mut dev = device(PimTarget::Fulcrum);
        let x = dev.alloc_vec(&xs).unwrap();
        let t = dev.alloc_associated(x, DataType::Int32).unwrap();
        let out = dev.alloc_vec(&ys).unwrap();
        let mut stream = dev.stream();
        stream.set_opt(level);
        for i in 0..5_000 {
            let k = (i % 7) + 1;
            stream.mul_scalar(x, k, t).add(t, out, out);
        }
        let summary = stream.flush().unwrap();
        drop(stream);
        (
            summary,
            dev.to_vec::<i32>(out).unwrap(),
            dev.stats().kernel_time_ms(),
        )
    };

    // Eager reference.
    let mut eager = device(PimTarget::Fulcrum);
    let x = eager.alloc_vec(&xs).unwrap();
    let t = eager.alloc_associated(x, DataType::Int32).unwrap();
    let out = eager.alloc_vec(&ys).unwrap();
    for i in 0..5_000 {
        let k = (i % 7) + 1;
        eager.mul_scalar(x, k, t).unwrap();
        eager.add(t, out, out).unwrap();
    }
    let eager_out: Vec<i32> = eager.to_vec(out).unwrap();
    let eager_ms = eager.stats().kernel_time_ms();

    let (s0, out0, ms0) = run(OptLevel::O0);
    assert_eq!(s0.recorded, 10_000);
    // The temp is re-read by every later iteration, so the peephole
    // only fuses the final pair (where the tail rescan finds no reads).
    assert_eq!(s0.fused_scaled_add, 1);
    assert_eq!(s0.executed, 9_999);
    assert_eq!(out0, eager_out);
    assert!(ms0 <= eager_ms * (1.0 + 1e-12));

    let (s1, out1, ms1) = run(OptLevel::O1);
    assert_eq!(s1.fused_scaled_add, 5_000, "SSA liveness fuses every pair");
    assert_eq!(s1.executed, 5_000);
    assert_eq!(out1, eager_out);
    assert!(ms1 < ms0, "graph fusion must strictly beat the peephole");
}

#[test]
fn placement_plan_reports_subgraphs_and_layouts() {
    // Two disjoint dataflow components flush as two placement
    // subgraphs; layouts are inferred per winning target and the plan
    // survives on the device for inspection.
    let (xs, ys) = data::<i32>(512, 0x9A7);
    let mut dev = device(PimTarget::BitSerial);
    let x = dev.alloc_vec(&xs).unwrap();
    let y = dev.alloc_vec(&ys).unwrap();
    let a = dev.alloc_associated(x, DataType::Int32).unwrap();
    let p = dev.alloc_vec(&ys).unwrap();
    let q = dev.alloc_vec(&xs).unwrap();
    let b = dev.alloc_associated(p, DataType::Int32).unwrap();
    let mut stream = dev.stream();
    stream.set_opt(OptLevel::O2);
    stream.add(x, y, a); // component 1
    stream.mul(p, q, b); // component 2 (no shared objects)
    let summary = stream.flush().unwrap();
    drop(stream);
    assert_eq!(summary.subgraphs, 2);
    let plan = dev.placement_plan().unwrap().clone();
    assert_eq!(plan.subgraphs.len(), 2);
    for sg in &plan.subgraphs {
        assert!(!sg.commands.is_empty());
        assert!(!sg.layouts.is_empty());
        assert!(sg.est_kernel_ms >= 0.0);
    }
    // Results are unaffected by the (advisory) plan.
    let mut expect = Vec::with_capacity(xs.len());
    for i in 0..xs.len() {
        expect.push(xs[i].wrapping_add(ys[i]));
    }
    assert_eq!(dev.to_vec::<i32>(a).unwrap(), expect);
}

#[test]
fn convenience_constructors_honor_thread_count_overrides() {
    // Regression: `Device::bit_serial` & friends must resolve the same
    // thread plumbing as `Device::new` — results identical at every
    // thread count, including the `PIM_THREADS`-style override path.
    let (xs, ys) = data::<i32>(4096, 0x7EAD);
    let run = |mk: fn(usize) -> pimeval::Result<Device>, threads: usize| {
        pimeval::exec::with_thread_count(threads, || {
            let mut dev = mk(1).unwrap();
            let x = dev.alloc_vec(&xs).unwrap();
            let y = dev.alloc_vec(&ys).unwrap();
            let out = dev.alloc_associated(x, DataType::Int32).unwrap();
            dev.mul(x, y, out).unwrap();
            dev.add(out, y, out).unwrap();
            let sum = dev.red_sum(out).unwrap();
            (dev.to_vec::<i32>(out).unwrap(), sum)
        })
    };
    for mk in [
        Device::bit_serial as fn(usize) -> pimeval::Result<Device>,
        Device::fulcrum,
        Device::bank_level,
        Device::analog_bit_serial,
    ] {
        let baseline = run(mk, 1);
        for threads in [2, 3, 8] {
            assert_eq!(run(mk, threads), baseline, "threads={threads}");
        }
    }
}

/// Records `program` on a fresh device and flushes it at every level:
/// the flush must fail with exactly the error eager issue of `bad`
/// returns, clear the pending commands, and leave statistics and every
/// buffer untouched. `program` receives `[x, y, out, h]`: three int32
/// objects and one int16 object of the same length.
fn check_flush_error_matches_eager(
    bad: impl Fn(&[pimeval::ObjId]) -> PimCommand,
    program: impl Fn(&[pimeval::ObjId]) -> Vec<PimCommand>,
) {
    let setup = |dev: &mut Device| {
        vec![
            dev.alloc_vec(&[1i32, 2, 3, 4]).unwrap(),
            dev.alloc_vec(&[10i32, 20, 30, 40]).unwrap(),
            dev.alloc_vec(&[7i32, 7, 7, 7]).unwrap(),
            dev.alloc_vec(&[5i16, 6, 7, 8]).unwrap(),
        ]
    };
    let mut eager = device(PimTarget::Fulcrum);
    let ids = setup(&mut eager);
    let want = eager.issue(bad(&ids)).unwrap_err();

    for level in [OptLevel::O0, OptLevel::O1, OptLevel::O2] {
        let mut dev = device(PimTarget::Fulcrum);
        let ids = setup(&mut dev);
        let before = dev.stats().clone();
        let mut stream = dev.stream();
        stream.set_opt(level);
        for cmd in program(&ids) {
            stream.record(cmd);
        }
        let got = stream.flush().unwrap_err();
        assert!(stream.pending().is_empty(), "opt {level}: pending kept");
        drop(stream);
        assert_eq!(got, want, "opt {level}: error differs from eager");
        assert_eq!(dev.stats(), &before, "opt {level}: stats changed");
        assert_eq!(dev.to_vec::<i32>(ids[0]).unwrap(), [1, 2, 3, 4]);
        assert_eq!(dev.to_vec::<i32>(ids[1]).unwrap(), [10, 20, 30, 40]);
        assert_eq!(dev.to_vec::<i32>(ids[2]).unwrap(), [7, 7, 7, 7]);
        assert_eq!(dev.to_vec::<i16>(ids[3]).unwrap(), [5, 6, 7, 8]);
    }
}

#[test]
fn malformed_arity_fails_flush_like_eager_issue() {
    let add = OpKind::Binary(pimeval::pim_microcode::gen::BinaryOp::Add);
    let bad = |ids: &[pimeval::ObjId]| PimCommand {
        kind: add,
        inputs: vec![ids[0]],
        dst: Some(ids[2]),
    };
    check_flush_error_matches_eager(bad, |ids| {
        vec![
            PimCommand::elementwise2(add, ids[0], ids[1], ids[2]),
            bad(ids),
        ]
    });
}

#[test]
fn invalid_dead_write_fails_flush_like_eager_issue() {
    // The int32 + int16 add's destination is overwritten unread, so
    // dead-write elimination would drop it; validation must come first.
    let add = OpKind::Binary(pimeval::pim_microcode::gen::BinaryOp::Add);
    let bad = |ids: &[pimeval::ObjId]| PimCommand::elementwise2(add, ids[0], ids[3], ids[2]);
    check_flush_error_matches_eager(bad, |ids| {
        vec![
            bad(ids),
            PimCommand::elementwise2(add, ids[0], ids[1], ids[2]),
        ]
    });
}
