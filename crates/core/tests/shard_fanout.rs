//! The shard loop's fan-out floor, observed through the pool profiler's
//! counters. A test binary of its own: the counters
//! (`exec::pool::enable`/`reset`/`snapshot`) are process-global, so any
//! other test running in the same process could add fan-outs.

use pimeval::exec::{self, pool, MIN_CHUNK};
use pimeval::{DataType, Device, DeviceConfig, PimTarget};

/// Pool fan-outs recorded while one `n`-element `Int32` xor runs on a
/// 4-shard Fulcrum device.
fn fanouts_of_one_xor(n: usize) -> u64 {
    let xs: Vec<i32> = (0..n as i32).collect();
    let cfg = DeviceConfig::new(PimTarget::Fulcrum, 1).with_shards(4);
    let mut dev = Device::new(cfg).unwrap();
    let a = dev.alloc_vec(&xs).unwrap();
    let b = dev.alloc_associated(a, DataType::Int32).unwrap();
    pool::reset();
    pool::enable();
    dev.xor(a, a, b).unwrap();
    let fanouts = pool::snapshot().fanouts;
    pool::disable();
    assert_eq!(dev.to_vec::<i32>(b).unwrap(), vec![0; n]);
    fanouts
}

#[test]
fn sharded_commands_fan_out_only_above_the_floor() {
    exec::with_thread_count(2, || {
        assert_eq!(fanouts_of_one_xor(16), 0, "16 elements run inline");
        assert!(
            fanouts_of_one_xor(2 * MIN_CHUNK + 1) >= 1,
            "a command past 2 × MIN_CHUNK fans its shards out"
        );
    });
}
