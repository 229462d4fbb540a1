//! The PIM device: the simulator's public API surface (§V-B).
//!
//! A [`Device`] owns the statistics engine and a [`PimSystem`] — the
//! sharded execution substrate holding the resource catalog and the
//! functional state of every allocated object. Every API call validates
//! its operands, executes functionally (unless the device is in
//! model-only mode), charges the target's performance/energy model, and
//! updates the per-command statistics. With more than one shard
//! configured (see [`DeviceConfig::sharded_per_rank`]) each command is
//! split by the destination's shard map, run per shard, and
//! re-aggregated; cross-shard traffic is charged to the interconnect
//! ledger separately from kernel time.

use pim_microcode::gen::{BinaryOp, CmpOp};

use crate::charge::{Charge, ChargeKind, InterconnectKind, Part};
use crate::cmd::{self, CmdValue, PimCommand};
use crate::config::{DeviceConfig, PimTarget, SimMode};
use crate::dtype::{DataType, PimScalar};
use crate::error::{PimError, Result};
use crate::metrics::{MetricsRegistry, MetricsSnapshot};
use crate::model::{self, OpCost};
use crate::object::{ObjId, PimObject};
use crate::ops::OpKind;
use crate::resource::ResourceManager;
use crate::stats::SimStats;
use crate::stream::{CommandStream, FlushSummary, PlacementPlan};
use crate::system::PimSystem;
use crate::trace::{
    CopyDirection, ProtocolCounters, TraceEvent, TraceSink, Tracer, DEFAULT_RECORDER_CAPACITY,
};
use crate::{pim_debug, pim_info, pim_trace};
use pim_dram::TimingCounters;

/// A simulated PIM device.
///
/// # Example
///
/// ```
/// use pimeval::{Device, PimTarget};
///
/// # fn main() -> Result<(), pimeval::PimError> {
/// let mut dev = Device::fulcrum(4)?;
/// let x = dev.alloc_vec(&[1i32, 2, 3, 4])?;
/// let y = dev.alloc_vec(&[10i32, 20, 30, 40])?;
/// let out = dev.alloc_associated(x, pimeval::DataType::Int32)?;
/// dev.add(x, y, out)?;
/// assert_eq!(dev.to_vec::<i32>(out)?, vec![11, 22, 33, 44]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Device {
    config: DeviceConfig,
    system: PimSystem,
    stats: SimStats,
    tracer: Tracer,
    metrics: Option<Box<MetricsRegistry>>,
    /// The simulated clock (ms since creation): every kernel, copy and
    /// host charge advances it, traced or not, and it stamps both the
    /// trace and the metrics.
    clock_ms: f64,
    /// Reused buffer for charges' per-shard shares.
    spare_shares: Vec<(usize, Part)>,
    last_plan: Option<PlacementPlan>,
}

impl Device {
    /// Creates a device from a full configuration.
    ///
    /// # Errors
    ///
    /// [`PimError::InvalidArg`] if the DRAM geometry is degenerate or
    /// its row capacity overflows `u64`.
    pub fn new(mut config: DeviceConfig) -> Result<Device> {
        config
            .geometry
            .validate()
            .map_err(|e| PimError::InvalidArg(e.to_string()))?;
        // `PIM_TIMING=analytical|fsm` overrides the configured timing
        // backend at device creation (unknown values are ignored).
        config.timing_backend = config.timing_backend.env_override();
        // `PIM_OPT=0|1|2` overrides the stream optimization level the
        // same way.
        config.opt = config.opt.env_override();
        let system = PimSystem::new(&config)?;
        pim_info!(
            "device created: target={} cores={} ranks={} shards={}",
            config.target,
            config.core_count(),
            config.geometry.ranks,
            system.shard_count()
        );
        let metrics = config
            .metrics
            .then(|| Box::new(MetricsRegistry::new(system.shard_count(), config.profile)));
        let mut dev = Device {
            config,
            system,
            stats: SimStats::new(),
            tracer: Tracer::default(),
            metrics,
            clock_ms: 0.0,
            spare_shares: Vec::new(),
            last_plan: None,
        };
        dev.sync_resources();
        Ok(dev)
    }

    /// Bit-serial (DRAM-AP) device with the paper's geometry.
    ///
    /// # Errors
    ///
    /// See [`Device::new`].
    pub fn bit_serial(ranks: usize) -> Result<Device> {
        Device::new(DeviceConfig::new(PimTarget::BitSerial, ranks))
    }

    /// Fulcrum device with the paper's geometry.
    ///
    /// # Errors
    ///
    /// See [`Device::new`].
    pub fn fulcrum(ranks: usize) -> Result<Device> {
        Device::new(DeviceConfig::new(PimTarget::Fulcrum, ranks))
    }

    /// Bank-level device with the paper's geometry.
    ///
    /// # Errors
    ///
    /// See [`Device::new`].
    pub fn bank_level(ranks: usize) -> Result<Device> {
        Device::new(DeviceConfig::new(PimTarget::BankLevel, ranks))
    }

    /// Analog bit-serial (Ambit/SIMDRAM-style TRA) device — the §IX
    /// extension target used by the digital-vs-analog ablation.
    ///
    /// # Errors
    ///
    /// See [`Device::new`].
    pub fn analog_bit_serial(ranks: usize) -> Result<Device> {
        Device::new(DeviceConfig::new(PimTarget::AnalogBitSerial, ranks))
    }

    /// The device configuration.
    pub fn config(&self) -> &DeviceConfig {
        &self.config
    }

    /// The sharded execution substrate: shard set, per-object shard
    /// maps, per-shard statistics sub-ledgers, and the interconnect
    /// model.
    pub fn system(&self) -> &PimSystem {
        &self.system
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Clears all statistics, including every shard sub-ledger (objects
    /// stay allocated; the resource snapshot is refreshed).
    pub fn reset_stats(&mut self) {
        self.stats = SimStats::new();
        self.system.reset_shard_stats();
        self.sync_resources();
    }

    /// The timing backend actually in effect (after any `PIM_TIMING`
    /// environment override applied at construction).
    pub fn timing_backend(&self) -> pim_dram::TimingBackend {
        self.system.timing_backend()
    }

    /// Drains every shard's timing backend — closes all open rows and
    /// waits out every bank's recovery — and returns the longest
    /// per-shard drain time in milliseconds. A no-op (0.0) under the
    /// stateless analytical backend. Call at an epoch boundary when a
    /// kernel sequence should not carry open-row state into the next
    /// measurement window; the returned time is *not* charged to any
    /// ledger, so callers decide where it belongs.
    pub fn drain_timing(&mut self) -> f64 {
        self.system.drain_backends()
    }

    /// The metadata catalog (authoritative global layouts).
    fn rm(&self) -> &ResourceManager {
        self.system.meta()
    }

    /// Refreshes the resource snapshot in [`SimStats`] from the system.
    fn sync_resources(&mut self) {
        self.stats.resources = self.system.resource_stats();
    }

    /// Renders the artifact-style statistics report.
    pub fn report(&self) -> String {
        self.stats.report(&self.config)
    }

    /// The "PIM-Info" banner the artifact prints at device creation
    /// (Listing 3 of the paper).
    pub fn info_banner(&self) -> String {
        let g = &self.config.geometry;
        format!(
            "PIM-Info: Simulation Target = {}
             PIM-Info: Config: #ranks = {}, #bankPerRank = {}, #subarrayPerBank = {},              #rowsPerSubarray = {}, #colsPerRow = {}
             PIM-Info: Created PIM device with {} cores of {} rows and {} columns.",
            self.config.target,
            g.ranks,
            g.banks_per_rank,
            g.subarrays_per_bank,
            g.rows_per_subarray,
            g.cols_per_row,
            self.config.core_count(),
            self.config.rows_per_core(),
            self.config.cols_per_core(),
        )
    }

    /// Adds modeled host-side execution time (PIM + Host benchmarks).
    pub fn record_host_ms(&mut self, ms: f64) {
        let cost = OpCost {
            time_ms: ms,
            energy_mj: 0.0,
        };
        self.post(Charge::new(ChargeKind::Host, cost, 0))
    }

    // ------------------------------------------------------------------
    // Tracing
    // ------------------------------------------------------------------

    /// Enables timeline tracing into the built-in ring-buffer recorder
    /// (capacity [`DEFAULT_RECORDER_CAPACITY`] events). Collect the
    /// events with [`Device::take_trace`]. Tracing only *adds* events —
    /// statistics and functional results are unchanged.
    pub fn enable_tracing(&mut self) {
        self.enable_tracing_with_capacity(DEFAULT_RECORDER_CAPACITY);
    }

    /// Enables tracing with an explicit recorder capacity; once the ring
    /// fills, the oldest events are overwritten.
    pub fn enable_tracing_with_capacity(&mut self, capacity: usize) {
        self.tracer.install_recorder(capacity);
        self.emit_device_created();
    }

    /// Routes trace events into a custom [`TraceSink`] instead of the
    /// built-in recorder ([`Device::take_trace`] then returns nothing).
    pub fn set_trace_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.tracer.install_sink(sink);
        self.emit_device_created();
    }

    /// Disables tracing; subsequent events are discarded. The simulated
    /// clock keeps running, so a re-enabled trace resumes at the modeled
    /// time accumulated meanwhile and stays monotonic.
    pub fn disable_tracing(&mut self) {
        self.tracer.disable();
    }

    /// True if a trace sink is installed.
    pub fn tracing_enabled(&self) -> bool {
        self.tracer.enabled()
    }

    /// Drains the recorded trace, oldest event first. Empty when tracing
    /// is disabled or routed to a custom sink.
    pub fn take_trace(&mut self) -> Vec<TraceEvent> {
        self.tracer.take_events()
    }

    /// A copy of the recorded trace without draining it.
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        self.tracer.events()
    }

    // ------------------------------------------------------------------
    // Metrics
    // ------------------------------------------------------------------

    /// Enables the metrics registry on an already-created device (see
    /// [`DeviceConfig::with_metrics`] for enabling at construction).
    /// With `profile` the registry additionally retains occupancy spans
    /// for the time-binned utilization series. Replaces any existing
    /// registry, so instruments and the metrics clock restart from zero.
    pub fn enable_metrics(&mut self, profile: bool) {
        let mut registry = MetricsRegistry::new(self.system.shard_count(), profile);
        registry.epoch_ms = self.clock_ms;
        self.metrics = Some(Box::new(registry));
    }

    /// True when a metrics registry is recording.
    pub fn metrics_enabled(&self) -> bool {
        self.metrics.is_some()
    }

    /// Freezes the metrics registry into a [`MetricsSnapshot`] (see
    /// [`MetricsRegistry::snapshot`] for the deterministic-merge
    /// contract). `None` when metrics are disabled. The snapshot also
    /// carries the tracer's dropped-event count.
    pub fn metrics_snapshot(&mut self) -> Option<MetricsSnapshot> {
        let dropped = self.tracer.dropped();
        let shards = self.system.shards();
        let m = self.metrics.as_mut()?;
        if dropped > 0 {
            m.record_trace_dropped(dropped);
        }
        // Summarize each shard sub-ledger's kernel-busy share of the
        // run (modeled quantities, so this stays deterministic).
        if shards.len() > 1 {
            let window = self.clock_ms - m.epoch_ms;
            for (i, shard) in shards.iter().enumerate() {
                let frac = shard.stats().busy_fraction(window);
                if let Some(set) = m.shard_instruments(i) {
                    set.gauge_set("kernel_busy_fraction", frac);
                }
            }
        }
        Some(m.snapshot(self.clock_ms))
    }

    /// Events the ring-buffer trace recorder has overwritten so far (0
    /// when tracing is off or routed to a custom sink).
    pub fn trace_dropped(&self) -> u64 {
        self.tracer.dropped()
    }

    fn emit_device_created(&mut self) {
        self.tracer.emit(TraceEvent::DeviceCreated {
            at_ms: self.clock_ms,
            target: self.config.target.to_string(),
            cores: self.config.core_count(),
            ranks: self.config.geometry.ranks,
        });
    }

    // ------------------------------------------------------------------
    // Resource management
    // ------------------------------------------------------------------

    /// Allocates `count` elements of `dtype` (`pimAlloc` with
    /// `PIM_ALLOC_AUTO`).
    ///
    /// # Errors
    ///
    /// [`PimError::OutOfMemory`] or [`PimError::InvalidArg`].
    pub fn alloc(&mut self, count: u64, dtype: DataType) -> Result<ObjId> {
        let id = self.system.alloc(&self.config, count, dtype, None)?;
        self.emit_alloc(id);
        self.sync_resources();
        Ok(id)
    }

    /// Allocates an object associated with `reference`
    /// (`pimAllocAssociated`): same element count, same core placement —
    /// and, under sharding, the same shard map.
    ///
    /// # Errors
    ///
    /// [`PimError::UnknownObject`], [`PimError::OutOfMemory`].
    pub fn alloc_associated(&mut self, reference: ObjId, dtype: DataType) -> Result<ObjId> {
        let (count, cores) = {
            let obj = self.rm().get(reference)?;
            (obj.count, obj.layout.cores_used)
        };
        let id = self.system.alloc(&self.config, count, dtype, Some(cores))?;
        self.emit_alloc(id);
        self.sync_resources();
        Ok(id)
    }

    fn emit_alloc(&mut self, id: ObjId) {
        if let Ok(obj) = self.rm().get(id) {
            pim_debug!(
                "alloc {id}: {} x {} on {} cores",
                obj.count,
                obj.dtype,
                obj.layout.cores_used
            );
            if self.tracer.enabled() {
                let event = TraceEvent::Alloc {
                    at_ms: self.clock_ms,
                    id: id.0,
                    count: obj.count,
                    dtype: obj.dtype.short_name().to_string(),
                    cores_used: obj.layout.cores_used,
                    rows_per_core: obj.layout.rows_per_core,
                };
                self.tracer.emit(event);
            }
        }
    }

    /// Allocates and initializes from a host slice in one call.
    ///
    /// # Errors
    ///
    /// As [`Device::alloc`] plus copy errors.
    pub fn alloc_vec<T: PimScalar>(&mut self, data: &[T]) -> Result<ObjId> {
        let id = self.alloc(data.len() as u64, T::DTYPE)?;
        self.copy_to_device(data, id)?;
        Ok(id)
    }

    /// Frees an object (`pimFree`).
    ///
    /// # Errors
    ///
    /// [`PimError::UnknownObject`].
    pub fn free(&mut self, id: ObjId) -> Result<()> {
        self.system.free(id)?;
        self.sync_resources();
        pim_debug!("free {id}");
        if self.tracer.enabled() {
            let at_ms = self.clock_ms;
            self.tracer.emit(TraceEvent::Free { at_ms, id: id.0 });
        }
        Ok(())
    }

    /// Introspects a live object (layout, dtype, count).
    ///
    /// # Errors
    ///
    /// [`PimError::UnknownObject`].
    pub fn object(&self, id: ObjId) -> Result<&PimObject> {
        self.rm().get(id)
    }

    // ------------------------------------------------------------------
    // Data movement
    // ------------------------------------------------------------------

    /// Charges one copy of `obj`'s `bytes`. Host↔device copies are
    /// priced through the holders' timing backends; a device-to-device
    /// copy is priced as its `Copy` command, so its copy charge carries
    /// only the bytes.
    fn charge_copy(&mut self, obj: ObjId, bytes: u64, direction: CopyDirection) {
        let (cost, replay, protocol) = if direction == CopyDirection::DeviceToDevice {
            (OpCost::default(), None, TimingCounters::default())
        } else {
            // Under decimation the functional buffer stands for
            // `decimation` times as much paper-scale data; charge transfer
            // time/energy for the represented bytes (recorded byte counts
            // stay functional).
            let represented = bytes * self.config.decimation.max(1);
            let (time_ms, replay, delta) = self.system.charge_copy_with_backends(
                obj,
                represented,
                bytes,
                self.config.geometry.ranks,
                self.tracer.enabled(),
            );
            let is_read = direction == CopyDirection::DeviceToHost;
            let energy_mj = self.config.power.transfer_energy_mj(time_ms, is_read);
            let cost = OpCost { time_ms, energy_mj };
            (cost, replay.map(ProtocolCounters::from), delta)
        };
        pim_debug!(
            "copy {}: {bytes} bytes in {:.6} ms",
            direction.label(),
            cost.time_ms
        );
        let mut charge = Charge::new(ChargeKind::Copy { direction, replay }, cost, bytes);
        charge.protocol = protocol;
        charge.shares = self.shares_of(obj, charge.whole);
        self.post(charge)
    }

    /// Charges cross-shard interconnect traffic: time for the critical
    /// path (busiest channel), energy for the total bytes. A no-op with
    /// one shard or zero bytes, so single-shard runs are bit-identical
    /// to the pre-sharding device. Interconnect cost is tracked
    /// separately from kernel/copy time and never advances the
    /// simulated clock.
    fn charge_interconnect(&mut self, kind: InterconnectKind, max_bytes: u64, total_bytes: u64) {
        if self.system.shard_count() <= 1 || total_bytes == 0 {
            return;
        }
        // As with copies, decimated runs charge the represented bytes.
        let decim = self.config.decimation.max(1);
        let (max_b, tot_b) = (max_bytes * decim, total_bytes * decim);
        let cost = OpCost {
            time_ms: self.system.interconnect().transfer_ms(max_b),
            energy_mj: self.system.interconnect().energy_mj(tot_b),
        };
        self.post(Charge::new(ChargeKind::Interconnect(kind), cost, tot_b));
    }

    /// `whole` split across the shards holding `costed`, in the reused
    /// share buffer.
    fn shares_of(&mut self, costed: ObjId, whole: Part) -> Vec<(usize, Part)> {
        let mut shares = std::mem::take(&mut self.spare_shares);
        self.system.split(costed, whole, &mut shares);
        shares
    }

    /// Posts one charge: the single place modeled cost enters the
    /// ledgers. Folds, in order: the simulated clock, [`SimStats`], the
    /// shard sub-ledgers, the metrics registry (if on), and the trace
    /// (if on).
    fn post(&mut self, charge: Charge) {
        let Part { cost, bytes, .. } = charge.whole;
        let start_ms = self.clock_ms;
        // Interconnect time is ledgered apart from kernel and copy time.
        if !matches!(charge.kind, ChargeKind::Interconnect(_)) {
            self.clock_ms += cost.time_ms.max(0.0);
        }
        if !charge.protocol.is_empty() {
            self.stats.record_protocol(&charge.protocol);
        }
        self.stats.post(&charge, charge.whole);
        self.system.post_shares(&charge);
        if let Some(m) = &mut self.metrics {
            m.post(&charge, start_ms);
        }
        let Charge { kind, shares, .. } = charge;
        if shares.capacity() > self.spare_shares.capacity() {
            self.spare_shares = shares;
        }
        if !self.tracer.enabled() {
            return;
        }
        let (time_ms, energy_mj) = (cost.time_ms, cost.energy_mj);
        self.tracer.emit(match kind {
            ChargeKind::Cmd {
                name,
                category,
                micro,
            } => TraceEvent::Cmd {
                name,
                category: category.label(),
                start_ms,
                time_ms,
                energy_mj,
                cores_used: charge.whole.cores_used,
                micro,
            },
            ChargeKind::Copy { direction, replay } => TraceEvent::Copy {
                direction,
                bytes,
                start_ms,
                time_ms,
                energy_mj,
                protocol: replay,
            },
            ChargeKind::Interconnect(kind) => TraceEvent::Interconnect {
                kind: kind.label(),
                bytes,
                shards: self.system.shard_count(),
                at_ms: start_ms,
                time_ms,
                energy_mj,
            },
            ChargeKind::Host => TraceEvent::HostPhase { start_ms, time_ms },
        });
    }

    /// Copies host data into an object (`pimCopyHostToDevice`).
    ///
    /// # Errors
    ///
    /// [`PimError::CountMismatch`] if the slice length differs from the
    /// object's element count; [`PimError::DTypeMismatch`] if `T` does not
    /// match the object's dtype.
    pub fn copy_to_device<T: PimScalar>(&mut self, data: &[T], id: ObjId) -> Result<()> {
        let obj = self.rm().get(id)?;
        if data.len() as u64 != obj.count {
            return Err(PimError::CountMismatch {
                expected: obj.count,
                actual: data.len() as u64,
            });
        }
        if obj.dtype != T::DTYPE {
            return Err(PimError::DTypeMismatch {
                expected: obj.dtype,
                actual: T::DTYPE,
            });
        }
        let bytes = obj.bytes();
        let dtype = obj.dtype;
        self.system.scatter_to_device(data, id, dtype)?;
        self.charge_copy(id, bytes, CopyDirection::HostToDevice);
        let (max_b, tot_b) = self.system.shard_byte_split(id);
        self.charge_interconnect(InterconnectKind::Scatter, max_b, tot_b);
        Ok(())
    }

    /// Copies an object back to a host buffer (`pimCopyDeviceToHost`).
    ///
    /// # Errors
    ///
    /// As [`Device::copy_to_device`]; additionally
    /// [`PimError::NotSupported`] in model-only mode.
    pub fn copy_to_host<T: PimScalar>(&mut self, id: ObjId, out: &mut [T]) -> Result<()> {
        let obj = self.rm().get(id)?;
        if out.len() as u64 != obj.count {
            return Err(PimError::CountMismatch {
                expected: obj.count,
                actual: out.len() as u64,
            });
        }
        if obj.dtype != T::DTYPE {
            return Err(PimError::DTypeMismatch {
                expected: obj.dtype,
                actual: T::DTYPE,
            });
        }
        let bytes = obj.bytes();
        self.system.gather_to_host(id, out)?;
        self.charge_copy(id, bytes, CopyDirection::DeviceToHost);
        let (max_b, tot_b) = self.system.shard_byte_split(id);
        self.charge_interconnect(InterconnectKind::Gather, max_b, tot_b);
        Ok(())
    }

    /// Convenience: copies an object out into a fresh `Vec`.
    ///
    /// # Errors
    ///
    /// See [`Device::copy_to_host`].
    pub fn to_vec<T: PimScalar>(&mut self, id: ObjId) -> Result<Vec<T>> {
        let count = self.rm().get(id)?.count as usize;
        let mut out = vec![T::from_device(0); count];
        self.copy_to_host(id, &mut out)?;
        Ok(out)
    }

    /// Device-to-device copy (`pimCopyDeviceToDevice`).
    ///
    /// # Errors
    ///
    /// Count/dtype mismatches as usual.
    pub fn copy_object(&mut self, src: ObjId, dst: ObjId) -> Result<()> {
        self.issue(PimCommand::copy(src, dst))?;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Internal plumbing
    // ------------------------------------------------------------------

    fn check_pair(&self, a: ObjId, b: ObjId) -> Result<()> {
        let (oa, ob) = (self.rm().get(a)?, self.rm().get(b)?);
        if oa.count != ob.count {
            return Err(PimError::CountMismatch {
                expected: oa.count,
                actual: ob.count,
            });
        }
        if oa.dtype != ob.dtype {
            return Err(PimError::DTypeMismatch {
                expected: oa.dtype,
                actual: ob.dtype,
            });
        }
        Ok(())
    }

    /// Prices `kind` on `costed` and charges it. `range_frac` scales a
    /// ranged reduction's full cost by the covered fraction of elements;
    /// microcode counters describe whole sweeps, so a ranged charge
    /// carries none.
    fn charge_op(&mut self, kind: OpKind, costed: ObjId, range_frac: Option<f64>) -> Result<()> {
        let obj = self.rm().get(costed)?;
        let (dtype, layout) = (obj.dtype, obj.layout);
        let config = &self.config;
        let (full, protocol) = self.system.price_with_backends(costed, |tm| {
            model::op_cost_with(config, tm, kind, dtype, &layout)
        });
        // Scaling by 1.0 is exact: whole commands keep their price.
        let frac = range_frac.unwrap_or(1.0);
        let cost = OpCost {
            time_ms: full.time_ms * frac,
            energy_mj: full.energy_mj * frac,
        };
        let micro = match range_frac {
            None if self.tracer.enabled() => model::micro_cost(config, kind, dtype, &layout),
            _ => None,
        };
        let name = kind.stat_name(dtype);
        pim_trace!(
            "cmd {name}: {:.6} ms on {} cores",
            cost.time_ms,
            layout.cores_used
        );
        let kind = ChargeKind::Cmd {
            name,
            category: kind.category(),
            micro: micro.map(Into::into),
        };
        let mut charge = Charge::new(kind, cost, 0);
        charge.whole.cores_used = layout.cores_used;
        charge.protocol = protocol;
        charge.shares = self.shares_of(costed, charge.whole);
        self.post(charge);
        Ok(())
    }

    // ------------------------------------------------------------------
    // The command choke point
    // ------------------------------------------------------------------

    /// Validates, executes, and charges one [`PimCommand`] — the single
    /// path every device operation funnels through. The eager `add`/
    /// `mul`/… methods are thin wrappers over this.
    ///
    /// # Example
    ///
    /// ```
    /// use pimeval::{cmd::PimCommand, Device};
    /// use pimeval::pim_microcode::gen::BinaryOp;
    ///
    /// # fn main() -> Result<(), pimeval::PimError> {
    /// let mut dev = Device::fulcrum(1)?;
    /// let a = dev.alloc_vec(&[1i32, 2, 3])?;
    /// let b = dev.alloc_vec(&[4i32, 5, 6])?;
    /// let out = dev.alloc_associated(a, pimeval::DataType::Int32)?;
    /// dev.issue(PimCommand::elementwise2(
    ///     pimeval::OpKind::Binary(BinaryOp::Add),
    ///     a,
    ///     b,
    ///     out,
    /// ))?;
    /// assert_eq!(dev.to_vec::<i32>(out)?, vec![5, 7, 9]);
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// Validation errors (arity, unknown objects, count/dtype mismatches,
    /// layout requirements) before anything executes.
    pub fn issue(&mut self, command: PimCommand) -> Result<CmdValue> {
        self.validate_cmd(&command)?;
        let value = self.exec_cmd(&command)?;
        self.charge_cmd(&command)?;
        Ok(value)
    }

    /// Opens a deferred [`CommandStream`] on this device. Recorded
    /// commands run at [`CommandStream::flush`], after the configured
    /// [`crate::OptLevel`]'s optimization pipeline (fusion, dead-write
    /// elimination, CSE, batching).
    pub fn stream(&mut self) -> CommandStream<'_> {
        CommandStream::new(self)
    }

    /// The placement plan computed by the most recent level-2 stream
    /// flush, if any. Advisory: execution stayed on the configured
    /// target; the plan reports what a cost-driven cross-substrate
    /// mapper would have chosen.
    pub fn placement_plan(&self) -> Option<&PlacementPlan> {
        self.last_plan.as_ref()
    }

    pub(crate) fn set_placement_plan(&mut self, plan: PlacementPlan) {
        self.last_plan = Some(plan);
    }

    /// Checks a command's shape against its [`OpKind`] contract and its
    /// operands against each other, in the same order the eager methods
    /// historically reported errors; finally asks the target model to
    /// validate layout requirements on the costed object.
    pub(crate) fn validate_cmd(&self, command: &PimCommand) -> Result<()> {
        let kind = command.kind;
        if command.inputs.len() != kind.input_operands() as usize {
            return Err(PimError::InvalidArg(format!(
                "{kind:?} takes {} input(s), got {}",
                kind.input_operands(),
                command.inputs.len()
            )));
        }
        if command.dst.is_some() != kind.writes_output() {
            return Err(PimError::InvalidArg(format!(
                "{kind:?} {} a destination",
                if kind.writes_output() {
                    "requires"
                } else {
                    "does not take"
                }
            )));
        }
        match kind {
            OpKind::Select => {
                let (cond, a) = (command.inputs[0], command.inputs[1]);
                self.check_pair(a, command.inputs[2])?;
                self.check_pair(a, command.dst.expect("checked above"))?;
                let c_count = self.rm().get(cond)?.count;
                let a_count = self.rm().get(a)?.count;
                if c_count != a_count {
                    return Err(PimError::CountMismatch {
                        expected: a_count,
                        actual: c_count,
                    });
                }
            }
            OpKind::FusedCmpSelect(_) => {
                let (a, x) = (command.inputs[0], command.inputs[2]);
                self.check_pair(a, command.inputs[1])?;
                self.check_pair(x, command.inputs[3])?;
                self.check_pair(x, command.dst.expect("checked above"))?;
                self.check_pair(a, x)?;
            }
            OpKind::Broadcast(_) => {
                self.rm().get(command.dst.expect("checked above"))?;
            }
            OpKind::RedSum | OpKind::RedMin | OpKind::RedMax => {
                self.rm().get(command.inputs[0])?;
            }
            _ if command.inputs.len() == 2 => {
                self.check_pair(command.inputs[0], command.inputs[1])?;
                self.check_pair(command.inputs[0], command.dst.expect("checked above"))?;
            }
            _ => {
                self.check_pair(command.inputs[0], command.dst.expect("checked above"))?;
            }
        }
        let costed = command.dst.unwrap_or_else(|| command.inputs[0]);
        let obj = self.rm().get(costed)?;
        model::target_model(self.config.target).validate(kind, obj.dtype, &obj.layout)
    }

    /// Runs a validated command's functional semantics (a no-op for
    /// element-wise data in model-only mode), split across shards by
    /// the destination's shard map. Reductions combine per-shard
    /// partials in ascending global element order; operands whose map
    /// differs from the destination's are realigned through the
    /// interconnect first.
    pub(crate) fn exec_cmd(&mut self, command: &PimCommand) -> Result<CmdValue> {
        match command.kind {
            OpKind::RedSum => {
                let a = command.inputs[0];
                let dtype = self.rm().get(a)?.dtype;
                Ok(CmdValue::Wide(self.system.red_sum(a, dtype)?))
            }
            OpKind::RedMin | OpKind::RedMax => {
                let a = command.inputs[0];
                let dtype = self.rm().get(a)?.dtype;
                let want_min = command.kind == OpKind::RedMin;
                Ok(CmdValue::Int(self.system.red_extreme(a, dtype, want_min)?))
            }
            OpKind::Copy => {
                let src = command.inputs[0];
                let dst = command.dst.expect("copy writes");
                let realigned = self.system.copy_data(src, dst)?;
                self.charge_interconnect(InterconnectKind::Realign, realigned, realigned);
                Ok(CmdValue::Unit)
            }
            OpKind::Broadcast(value) => {
                let dst = command.dst.expect("broadcast writes");
                let dtype = self.rm().get(dst)?.dtype;
                self.system.broadcast_value(dst, value, dtype)?;
                Ok(CmdValue::Unit)
            }
            kind => {
                let dst = command.dst.expect("element-wise commands write");
                let dtype = self.rm().get(dst)?.dtype;
                let realigned = self
                    .system
                    .exec_elementwise(kind, dtype, &command.inputs, dst)?;
                self.charge_interconnect(InterconnectKind::Realign, realigned, realigned);
                Ok(CmdValue::Unit)
            }
        }
    }

    /// Charges a validated command to the cost model, the statistics
    /// engine, and the trace.
    pub(crate) fn charge_cmd(&mut self, command: &PimCommand) -> Result<()> {
        let costed = command.dst.unwrap_or_else(|| command.inputs[0]);
        self.charge_op(command.kind, costed, None)?;
        if command.kind == OpKind::Copy {
            let src = command.inputs[0];
            let bytes = self.rm().get(src)?.bytes();
            self.charge_copy(src, bytes, CopyDirection::DeviceToDevice);
        }
        if matches!(
            command.kind,
            OpKind::RedSum | OpKind::RedMin | OpKind::RedMax
        ) && self.system.shard_count() > 1
        {
            // Each shard ships one reduction partial to the host for
            // the final combine.
            let dtype = self.rm().get(command.inputs[0])?.dtype;
            let per = (dtype.bits() as u64 / 8).max(1);
            let total = self.system.shard_count() as u64 * per;
            self.charge_interconnect(InterconnectKind::Combine, per, total);
        }
        Ok(())
    }

    /// Functionally executes a run of same-length validated commands in
    /// one parallel sweep: each shard walks its element ranges once,
    /// applying every command's per-element semantics in program order
    /// against chunk-local intermediate buffers, then the chunk results
    /// are stitched back into the destination objects. Bit-identical to
    /// executing the commands one by one (same per-element order, same
    /// truncation), but the operands stream through the cache once.
    ///
    /// Requires every touched object to share the destination's shard
    /// map; mixed-map runs (the batcher groups by element count only)
    /// fall back to per-command execution.
    pub(crate) fn exec_batch(&mut self, commands: &[PimCommand]) -> Result<()> {
        if !matches!(self.config.mode, SimMode::Functional) {
            return Ok(());
        }
        let (slots, steps) = cmd::batch_plan(commands, |id| {
            self.rm()
                .get(id)
                .expect("batched commands are validated")
                .dtype
        });
        let dst0 = commands[0].dst.expect("batched commands write");
        if !self.system.maps_equal(&slots, dst0) {
            for command in commands {
                self.exec_cmd(command)?;
            }
            return Ok(());
        }
        self.system.exec_batch(&slots, &steps, dst0)
    }

    /// Accumulates one flush's counters into [`SimStats`] and emits the
    /// stream-flush trace instant.
    pub(crate) fn finish_flush(&mut self, summary: &FlushSummary) {
        let f = &mut self.stats.fusion;
        f.flushes += 1;
        f.recorded_commands += summary.recorded;
        f.executed_commands += summary.executed;
        f.fused_scaled_add += summary.fused_scaled_add;
        f.fused_cmp_select += summary.fused_cmp_select;
        f.dead_writes_eliminated += summary.dead_writes_eliminated;
        f.batched_sweeps += summary.batched_sweeps;
        f.batched_commands += summary.batched_commands;
        let o = &mut self.stats.optimizer;
        o.cse_hits += summary.cse_hits;
        o.dead_objects_removed += summary.dead_objects_removed;
        o.subgraphs += summary.subgraphs;
        o.target_switches += summary.target_switches;
        o.inferred_layouts += summary.inferred_layouts;
        if let Some(m) = &mut self.metrics {
            m.record_flush();
        }
        pim_debug!(
            "stream flush: {} recorded -> {} executed ({} fused, {} dead)",
            summary.recorded,
            summary.executed,
            summary.fused_scaled_add + summary.fused_cmp_select,
            summary.dead_writes_eliminated
        );
        if self.tracer.enabled() {
            self.tracer.emit(TraceEvent::StreamFlush {
                at_ms: self.clock_ms,
                recorded: summary.recorded,
                executed: summary.executed,
                fused_scaled_add: summary.fused_scaled_add,
                fused_cmp_select: summary.fused_cmp_select,
                dead_writes_eliminated: summary.dead_writes_eliminated,
                batched_sweeps: summary.batched_sweeps,
            });
        }
    }

    // ------------------------------------------------------------------
    // Element-wise arithmetic and logic (thin wrappers over `issue`)
    // ------------------------------------------------------------------

    /// `dst = a + b` (wrapping).
    ///
    /// # Errors
    ///
    /// Count/dtype mismatches; unknown objects.
    pub fn add(&mut self, a: ObjId, b: ObjId, dst: ObjId) -> Result<()> {
        self.issue2(OpKind::Binary(BinaryOp::Add), a, b, dst)
    }

    /// `dst = a - b` (wrapping).
    ///
    /// # Errors
    ///
    /// Count/dtype mismatches; unknown objects.
    pub fn sub(&mut self, a: ObjId, b: ObjId, dst: ObjId) -> Result<()> {
        self.issue2(OpKind::Binary(BinaryOp::Sub), a, b, dst)
    }

    /// `dst = a * b` (wrapping, low half).
    ///
    /// # Errors
    ///
    /// Count/dtype mismatches; unknown objects.
    pub fn mul(&mut self, a: ObjId, b: ObjId, dst: ObjId) -> Result<()> {
        self.issue2(OpKind::Binary(BinaryOp::Mul), a, b, dst)
    }

    /// `dst = a & b`.
    ///
    /// # Errors
    ///
    /// Count/dtype mismatches; unknown objects.
    pub fn and(&mut self, a: ObjId, b: ObjId, dst: ObjId) -> Result<()> {
        self.issue2(OpKind::Binary(BinaryOp::And), a, b, dst)
    }

    /// `dst = a | b`.
    ///
    /// # Errors
    ///
    /// Count/dtype mismatches; unknown objects.
    pub fn or(&mut self, a: ObjId, b: ObjId, dst: ObjId) -> Result<()> {
        self.issue2(OpKind::Binary(BinaryOp::Or), a, b, dst)
    }

    /// `dst = a ^ b`.
    ///
    /// # Errors
    ///
    /// Count/dtype mismatches; unknown objects.
    pub fn xor(&mut self, a: ObjId, b: ObjId, dst: ObjId) -> Result<()> {
        self.issue2(OpKind::Binary(BinaryOp::Xor), a, b, dst)
    }

    /// `dst = !(a ^ b)`.
    ///
    /// # Errors
    ///
    /// Count/dtype mismatches; unknown objects.
    pub fn xnor(&mut self, a: ObjId, b: ObjId, dst: ObjId) -> Result<()> {
        self.issue2(OpKind::Binary(BinaryOp::Xnor), a, b, dst)
    }

    /// `dst = !a`.
    ///
    /// # Errors
    ///
    /// Count/dtype mismatches; unknown objects.
    pub fn not(&mut self, a: ObjId, dst: ObjId) -> Result<()> {
        self.issue1(OpKind::Not, a, dst)
    }

    /// `dst = |a|` (signed; wraps on the minimum value).
    ///
    /// # Errors
    ///
    /// Count/dtype mismatches; unknown objects.
    pub fn abs(&mut self, a: ObjId, dst: ObjId) -> Result<()> {
        self.issue1(OpKind::Abs, a, dst)
    }

    /// `dst = min(a, b)` respecting signedness.
    ///
    /// # Errors
    ///
    /// Count/dtype mismatches; unknown objects.
    pub fn min(&mut self, a: ObjId, b: ObjId, dst: ObjId) -> Result<()> {
        self.issue2(OpKind::Min, a, b, dst)
    }

    /// `dst = max(a, b)` respecting signedness.
    ///
    /// # Errors
    ///
    /// Count/dtype mismatches; unknown objects.
    pub fn max(&mut self, a: ObjId, b: ObjId, dst: ObjId) -> Result<()> {
        self.issue2(OpKind::Max, a, b, dst)
    }

    fn issue1(&mut self, kind: OpKind, a: ObjId, dst: ObjId) -> Result<()> {
        self.issue(PimCommand::elementwise1(kind, a, dst))?;
        Ok(())
    }

    fn issue2(&mut self, kind: OpKind, a: ObjId, b: ObjId, dst: ObjId) -> Result<()> {
        self.issue(PimCommand::elementwise2(kind, a, b, dst))?;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Scalar variants
    // ------------------------------------------------------------------

    /// `dst = a + k`.
    ///
    /// # Errors
    ///
    /// Count/dtype mismatches; unknown objects.
    pub fn add_scalar(&mut self, a: ObjId, k: i64, dst: ObjId) -> Result<()> {
        self.issue1(OpKind::BinaryScalar(BinaryOp::Add, k), a, dst)
    }

    /// `dst = a - k`.
    ///
    /// # Errors
    ///
    /// Count/dtype mismatches; unknown objects.
    pub fn sub_scalar(&mut self, a: ObjId, k: i64, dst: ObjId) -> Result<()> {
        self.issue1(OpKind::BinaryScalar(BinaryOp::Sub, k), a, dst)
    }

    /// `dst = a * k`.
    ///
    /// # Errors
    ///
    /// Count/dtype mismatches; unknown objects.
    pub fn mul_scalar(&mut self, a: ObjId, k: i64, dst: ObjId) -> Result<()> {
        self.issue1(OpKind::BinaryScalar(BinaryOp::Mul, k), a, dst)
    }

    /// `dst = a & k`.
    ///
    /// # Errors
    ///
    /// Count/dtype mismatches; unknown objects.
    pub fn and_scalar(&mut self, a: ObjId, k: i64, dst: ObjId) -> Result<()> {
        self.issue1(OpKind::BinaryScalar(BinaryOp::And, k), a, dst)
    }

    /// `dst = a | k`.
    ///
    /// # Errors
    ///
    /// Count/dtype mismatches; unknown objects.
    pub fn or_scalar(&mut self, a: ObjId, k: i64, dst: ObjId) -> Result<()> {
        self.issue1(OpKind::BinaryScalar(BinaryOp::Or, k), a, dst)
    }

    /// `dst = a ^ k`.
    ///
    /// # Errors
    ///
    /// Count/dtype mismatches; unknown objects.
    pub fn xor_scalar(&mut self, a: ObjId, k: i64, dst: ObjId) -> Result<()> {
        self.issue1(OpKind::BinaryScalar(BinaryOp::Xor, k), a, dst)
    }

    /// `dst = min(a, k)`.
    ///
    /// # Errors
    ///
    /// Count/dtype mismatches; unknown objects.
    pub fn min_scalar(&mut self, a: ObjId, k: i64, dst: ObjId) -> Result<()> {
        self.issue1(OpKind::MinScalar(k), a, dst)
    }

    /// `dst = max(a, k)`.
    ///
    /// # Errors
    ///
    /// Count/dtype mismatches; unknown objects.
    pub fn max_scalar(&mut self, a: ObjId, k: i64, dst: ObjId) -> Result<()> {
        self.issue1(OpKind::MaxScalar(k), a, dst)
    }

    /// `dst = a * k + b` (`pimScaledAdd`): lowered to a scalar multiply
    /// into an internal temporary followed by an addition, exactly as a
    /// runtime without a fused op would execute it.
    ///
    /// # Errors
    ///
    /// Count/dtype mismatches; unknown objects; out-of-memory for the
    /// temporary.
    pub fn scaled_add(&mut self, a: ObjId, b: ObjId, dst: ObjId, k: i64) -> Result<()> {
        let dtype = self.rm().get(a)?.dtype;
        let tmp = self.alloc_associated(a, dtype)?;
        let result = self
            .mul_scalar(a, k, tmp)
            .and_then(|()| self.add(tmp, b, dst));
        self.free(tmp)?;
        result
    }

    // ------------------------------------------------------------------
    // Comparisons and selection
    // ------------------------------------------------------------------

    /// `dst = (a < b) ? 1 : 0`.
    ///
    /// # Errors
    ///
    /// Count/dtype mismatches; unknown objects.
    pub fn lt(&mut self, a: ObjId, b: ObjId, dst: ObjId) -> Result<()> {
        self.issue2(OpKind::Cmp(CmpOp::Lt), a, b, dst)
    }

    /// `dst = (a > b) ? 1 : 0`.
    ///
    /// # Errors
    ///
    /// Count/dtype mismatches; unknown objects.
    pub fn gt(&mut self, a: ObjId, b: ObjId, dst: ObjId) -> Result<()> {
        self.issue2(OpKind::Cmp(CmpOp::Gt), a, b, dst)
    }

    /// `dst = (a == b) ? 1 : 0`.
    ///
    /// # Errors
    ///
    /// Count/dtype mismatches; unknown objects.
    pub fn eq(&mut self, a: ObjId, b: ObjId, dst: ObjId) -> Result<()> {
        self.issue2(OpKind::Cmp(CmpOp::Eq), a, b, dst)
    }

    /// `dst = (a < k) ? 1 : 0`.
    ///
    /// # Errors
    ///
    /// Count/dtype mismatches; unknown objects.
    pub fn lt_scalar(&mut self, a: ObjId, k: i64, dst: ObjId) -> Result<()> {
        self.issue1(OpKind::CmpScalar(CmpOp::Lt, k), a, dst)
    }

    /// `dst = (a > k) ? 1 : 0`.
    ///
    /// # Errors
    ///
    /// Count/dtype mismatches; unknown objects.
    pub fn gt_scalar(&mut self, a: ObjId, k: i64, dst: ObjId) -> Result<()> {
        self.issue1(OpKind::CmpScalar(CmpOp::Gt, k), a, dst)
    }

    /// `dst = (a == k) ? 1 : 0`.
    ///
    /// # Errors
    ///
    /// Count/dtype mismatches; unknown objects.
    pub fn eq_scalar(&mut self, a: ObjId, k: i64, dst: ObjId) -> Result<()> {
        self.issue1(OpKind::CmpScalar(CmpOp::Eq, k), a, dst)
    }

    /// `dst = cond ? a : b` element-wise (non-zero condition selects `a`).
    ///
    /// # Errors
    ///
    /// Count/dtype mismatches between `a`, `b`, `dst`; count mismatch for
    /// `cond`; unknown objects.
    pub fn select(&mut self, cond: ObjId, a: ObjId, b: ObjId, dst: ObjId) -> Result<()> {
        self.issue(PimCommand::select(cond, a, b, dst))?;
        Ok(())
    }

    /// `dst = (a OP b) ? x : y` in one fused pass — the explicit form of
    /// what the [`CommandStream`] cmp+select peephole produces.
    ///
    /// # Errors
    ///
    /// Count/dtype mismatches (including between the compared and the
    /// selected operands); unknown objects.
    pub fn cmp_select(
        &mut self,
        op: CmpOp,
        a: ObjId,
        b: ObjId,
        x: ObjId,
        y: ObjId,
        dst: ObjId,
    ) -> Result<()> {
        self.issue(PimCommand::fused_cmp_select(op, a, b, x, y, dst))?;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Shifts, popcount, broadcast, reductions
    // ------------------------------------------------------------------

    /// `dst = a << k` (logical).
    ///
    /// # Errors
    ///
    /// Count/dtype mismatches; unknown objects.
    pub fn shift_left(&mut self, a: ObjId, k: u32, dst: ObjId) -> Result<()> {
        self.issue1(OpKind::ShiftL(k), a, dst)
    }

    /// `dst = a >> k` — arithmetic for signed dtypes, logical otherwise.
    ///
    /// # Errors
    ///
    /// Count/dtype mismatches; unknown objects.
    pub fn shift_right(&mut self, a: ObjId, k: u32, dst: ObjId) -> Result<()> {
        self.issue1(OpKind::ShiftR(k), a, dst)
    }

    /// Per-element population count of the low `bits` of each element.
    ///
    /// # Errors
    ///
    /// Count/dtype mismatches; unknown objects.
    pub fn popcount(&mut self, a: ObjId, dst: ObjId) -> Result<()> {
        self.issue1(OpKind::Popcount, a, dst)
    }

    /// Fills every element of `dst` with `value` (`pimBroadcast`).
    ///
    /// # Errors
    ///
    /// Unknown object.
    pub fn broadcast(&mut self, dst: ObjId, value: i64) -> Result<()> {
        self.issue(PimCommand::broadcast(dst, value))?;
        Ok(())
    }

    /// Reduction sum of all elements (`pimRedSum`). Unsigned dtypes sum
    /// their unsigned values. Returns 0 in model-only mode (documented
    /// limitation; the cost is still charged).
    ///
    /// # Errors
    ///
    /// Unknown object.
    pub fn red_sum(&mut self, a: ObjId) -> Result<i128> {
        match self.issue(PimCommand::reduce(OpKind::RedSum, a))? {
            CmdValue::Wide(sum) => Ok(sum),
            _ => unreachable!("red_sum produces a widening sum"),
        }
    }

    /// Reduction minimum across all elements (`pimRedMin`), respecting
    /// signedness. Returns 0 in model-only mode.
    ///
    /// # Errors
    ///
    /// Unknown object.
    pub fn red_min(&mut self, a: ObjId) -> Result<i64> {
        match self.issue(PimCommand::reduce(OpKind::RedMin, a))? {
            CmdValue::Int(v) => Ok(v),
            _ => unreachable!("red_min produces one element"),
        }
    }

    /// Reduction maximum across all elements (`pimRedMax`), respecting
    /// signedness. Returns 0 in model-only mode.
    ///
    /// # Errors
    ///
    /// Unknown object.
    pub fn red_max(&mut self, a: ObjId) -> Result<i64> {
        match self.issue(PimCommand::reduce(OpKind::RedMax, a))? {
            CmdValue::Int(v) => Ok(v),
            _ => unreachable!("red_max produces one element"),
        }
    }

    /// Reduction sum over the element range `[start, end)`
    /// (`pimRedSumRanged`). Cost is the full reduction scaled by the
    /// fraction of elements covered (the sub-range still spans
    /// proportionally fewer stripes/rows).
    ///
    /// # Errors
    ///
    /// [`PimError::InvalidArg`] for an out-of-bounds or empty range.
    pub fn red_sum_range(&mut self, a: ObjId, start: u64, end: u64) -> Result<i128> {
        let (count, dtype) = {
            let obj = self.rm().get(a)?;
            (obj.count, obj.dtype)
        };
        if start >= end || end > count {
            return Err(PimError::InvalidArg(format!(
                "red_sum_range [{start}, {end}) out of bounds for {count} elements"
            )));
        }
        let sum = self.system.red_sum_range(a, dtype, start, end)?;
        self.charge_op(OpKind::RedSum, a, Some((end - start) as f64 / count as f64))?;
        Ok(sum)
    }
}
