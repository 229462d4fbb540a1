//! Simulation observability: typed trace events, pluggable sinks, and
//! machine-readable exporters.
//!
//! The simulator reports aggregates through [`SimStats`](crate::SimStats);
//! this module adds the *timeline* view — one event per device-lifecycle
//! step, PIM command, host↔device copy, and host phase, each stamped on
//! the simulated clock. Tracing is strictly opt-in: a device starts with
//! the no-op sink and skips all event construction, so untraced runs are
//! bit-identical to pre-trace behavior.
//!
//! # Example
//!
//! ```
//! use pimeval::{Device, DataType};
//!
//! # fn main() -> Result<(), pimeval::PimError> {
//! let mut dev = Device::fulcrum(2)?;
//! dev.enable_tracing();
//! let a = dev.alloc_vec(&[1i32, 2, 3])?;
//! let b = dev.alloc_associated(a, DataType::Int32)?;
//! dev.add(a, a, b)?;
//! let events = dev.take_trace();
//! let chrome_json = pimeval::trace::chrome::chrome_trace_json(&events);
//! assert!(chrome_json.contains("add.int32"));
//! # Ok(())
//! # }
//! ```
//!
//! Submodules: [`chrome`] (Chrome-trace-event/Perfetto exporter),
//! [`json`] (stats JSON renderer + minimal parser), [`log`] (the
//! `PIM_LOG` leveled logger).

pub mod chrome;
pub mod json;
pub mod log;

/// Microcode counters behind one PIM command, summed over every stripe
/// the busiest core executes (bit-serial targets only). Mirrors
/// [`pim_microcode::Cost`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MicroCounters {
    /// DRAM row activations for reads.
    pub row_reads: u64,
    /// DRAM row write-backs.
    pub row_writes: u64,
    /// Sense-amp logic operations.
    pub logic_ops: u64,
    /// Row-wide popcount reads.
    pub popcount_reads: u64,
    /// Analog AAP (double-activation) operations.
    pub aap_ops: u64,
    /// Analog triple-row activations.
    pub tra_ops: u64,
}

impl From<pim_microcode::Cost> for MicroCounters {
    fn from(c: pim_microcode::Cost) -> Self {
        MicroCounters {
            row_reads: c.row_reads,
            row_writes: c.row_writes,
            logic_ops: c.logic_ops,
            popcount_reads: c.popcount_reads,
            aap_ops: c.aap_ops,
            tra_ops: c.tra_ops,
        }
    }
}

/// DRAM protocol counters from a bounded bank-FSM replay of one
/// host↔device transfer (the active [`pim_dram::TimingModel`] backend
/// streams up to [`PROTOCOL_REPLAY_MAX_ROWS`] rows through one rank's
/// bank state machines).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ProtocolCounters {
    /// ACT commands issued.
    pub activations: u64,
    /// Column reads.
    pub reads: u64,
    /// Column writes.
    pub writes: u64,
    /// PRE commands issued.
    pub precharges: u64,
    /// Column commands that hit an open row.
    pub row_hits: u64,
    /// Column commands that missed (forced an ACT, possibly after PRE).
    pub row_misses: u64,
    /// Achieved streaming bandwidth over the replayed window (GB/s).
    pub achieved_gbs: f64,
}

impl From<pim_dram::CopyReplay> for ProtocolCounters {
    fn from(r: pim_dram::CopyReplay) -> Self {
        ProtocolCounters {
            activations: r.counters.activations,
            reads: r.counters.reads,
            writes: r.counters.writes,
            precharges: r.counters.precharges,
            row_hits: r.counters.row_hits,
            row_misses: r.counters.row_misses,
            achieved_gbs: r.achieved_gbs,
        }
    }
}

/// Row cap for the per-copy protocol replay (keeps tracing overhead
/// bounded for multi-gigabyte copies) — shared with the timing-model
/// backends in `pim_dram`.
pub const PROTOCOL_REPLAY_MAX_ROWS: usize = pim_dram::timing_model::COPY_REPLAY_MAX_ROWS;

/// Direction of a data movement event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CopyDirection {
    /// Host → device.
    HostToDevice,
    /// Device → host.
    DeviceToHost,
    /// Device → device.
    DeviceToDevice,
}

impl CopyDirection {
    /// Stable label used in exports.
    pub fn label(&self) -> &'static str {
        match self {
            CopyDirection::HostToDevice => "host_to_device",
            CopyDirection::DeviceToHost => "device_to_host",
            CopyDirection::DeviceToDevice => "device_to_device",
        }
    }
}

/// One timeline event. Timestamps (`at_ms`, `start_ms`) are simulated
/// milliseconds since device creation; durations are the modeled cost of
/// the step.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A device came up.
    DeviceCreated {
        /// Simulated timestamp (always 0 for a fresh device).
        at_ms: f64,
        /// Target name (e.g. `Fulcrum`).
        target: String,
        /// PIM core count.
        cores: usize,
        /// DRAM rank count.
        ranks: usize,
    },
    /// An object was allocated.
    Alloc {
        /// Simulated timestamp.
        at_ms: f64,
        /// Object id.
        id: u64,
        /// Element count.
        count: u64,
        /// Element type short name (e.g. `int32`).
        dtype: String,
        /// Cores the layout spans.
        cores_used: usize,
        /// Rows occupied on the busiest core.
        rows_per_core: u64,
    },
    /// An object was freed.
    Free {
        /// Simulated timestamp.
        at_ms: f64,
        /// Object id.
        id: u64,
    },
    /// One PIM command span.
    Cmd {
        /// Statistics key, e.g. `add.int32`.
        name: String,
        /// Fig. 8 category label.
        category: &'static str,
        /// Span start on the simulated clock (ms).
        start_ms: f64,
        /// Modeled kernel time (ms).
        time_ms: f64,
        /// Modeled kernel energy (mJ).
        energy_mj: f64,
        /// Cores the command occupied.
        cores_used: usize,
        /// Microcode counters (bit-serial targets).
        micro: Option<MicroCounters>,
    },
    /// One data movement span.
    Copy {
        /// Transfer direction.
        direction: CopyDirection,
        /// Bytes moved.
        bytes: u64,
        /// Span start on the simulated clock (ms).
        start_ms: f64,
        /// Modeled transfer time (ms).
        time_ms: f64,
        /// Modeled transfer energy (mJ).
        energy_mj: f64,
        /// DRAM protocol replay counters (host↔device transfers).
        protocol: Option<ProtocolCounters>,
    },
    /// A modeled host-execution span.
    HostPhase {
        /// Span start on the simulated clock (ms).
        start_ms: f64,
        /// Modeled host time (ms).
        time_ms: f64,
    },
    /// A [`crate::stream::CommandStream`] flush: instantaneous marker with
    /// the peephole-pass counters for this flush (the executed commands
    /// emit their own [`TraceEvent::Cmd`] spans).
    StreamFlush {
        /// Simulated timestamp.
        at_ms: f64,
        /// Commands recorded since the previous flush.
        recorded: u64,
        /// Commands executed after the passes ran.
        executed: u64,
        /// mul_scalar + add pairs fused to `scaled_add`.
        fused_scaled_add: u64,
        /// cmp + select pairs fused.
        fused_cmp_select: u64,
        /// Dead writes eliminated.
        dead_writes_eliminated: u64,
        /// Batched functional sweeps executed.
        batched_sweeps: u64,
    },
    /// A modeled cross-shard interconnect transfer (scatter, gather,
    /// realign, or reduction combine). Instantaneous marker: the
    /// interconnect ledger is reported separately from kernel and copy
    /// time, so it never advances the simulated clock. Only emitted by
    /// devices with more than one shard.
    Interconnect {
        /// Transfer kind: `scatter`, `gather`, `realign`, or `combine`.
        kind: &'static str,
        /// Total bytes moved across all shards.
        bytes: u64,
        /// Shard count of the device.
        shards: usize,
        /// Simulated timestamp.
        at_ms: f64,
        /// Modeled transfer time (ms), critical-path (busiest channel).
        time_ms: f64,
        /// Modeled transfer energy (mJ).
        energy_mj: f64,
    },
    /// Synthesized marker: the ring-buffer [`Recorder`] overwrote old
    /// events after filling up. Prepended once per drain when the drop
    /// count grew, at the timestamp of the oldest *retained* event, so
    /// exports make the truncation visible instead of silently starting
    /// mid-run.
    Dropped {
        /// Timestamp of the oldest event still held (ms).
        at_ms: f64,
        /// Events overwritten since recording started.
        dropped: u64,
        /// The recorder's ring capacity.
        capacity: usize,
    },
}

impl TraceEvent {
    /// The span duration, or 0 for instantaneous events.
    pub fn duration_ms(&self) -> f64 {
        match self {
            TraceEvent::Cmd { time_ms, .. }
            | TraceEvent::Copy { time_ms, .. }
            | TraceEvent::HostPhase { time_ms, .. } => *time_ms,
            _ => 0.0,
        }
    }

    /// The event's position on the simulated clock (ms).
    pub fn timestamp_ms(&self) -> f64 {
        match self {
            TraceEvent::DeviceCreated { at_ms, .. }
            | TraceEvent::Alloc { at_ms, .. }
            | TraceEvent::Free { at_ms, .. }
            | TraceEvent::StreamFlush { at_ms, .. }
            | TraceEvent::Interconnect { at_ms, .. }
            | TraceEvent::Dropped { at_ms, .. } => *at_ms,
            TraceEvent::Cmd { start_ms, .. }
            | TraceEvent::Copy { start_ms, .. }
            | TraceEvent::HostPhase { start_ms, .. } => *start_ms,
        }
    }
}

/// Receives every event a traced device emits. Implementations must be
/// cheap: the sink runs inline with the simulation.
pub trait TraceSink: std::fmt::Debug + Send {
    /// Called once per event, in simulation order.
    fn record(&mut self, event: &TraceEvent);
}

/// A bounded in-memory recorder: keeps the most recent `capacity`
/// events (ring-buffer overwrite) and counts what it dropped.
#[derive(Debug)]
pub struct Recorder {
    events: Vec<TraceEvent>,
    capacity: usize,
    head: usize,
    dropped: u64,
    dropped_reported: u64,
}

/// Default event capacity for [`Recorder::new`].
pub const DEFAULT_RECORDER_CAPACITY: usize = 1 << 20;

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// A recorder holding up to [`DEFAULT_RECORDER_CAPACITY`] events.
    pub fn new() -> Self {
        Recorder::with_capacity(DEFAULT_RECORDER_CAPACITY)
    }

    /// A recorder holding up to `capacity` events (min 1).
    pub fn with_capacity(capacity: usize) -> Self {
        Recorder {
            events: Vec::new(),
            capacity: capacity.max(1),
            head: 0,
            dropped: 0,
            dropped_reported: 0,
        }
    }

    /// The synthesized [`TraceEvent::Dropped`] marker for the current
    /// drop count, if any drops happened since the last drain.
    fn drop_marker(&self, oldest: Option<&TraceEvent>) -> Option<TraceEvent> {
        (self.dropped > self.dropped_reported).then(|| TraceEvent::Dropped {
            at_ms: oldest.map(TraceEvent::timestamp_ms).unwrap_or(0.0),
            dropped: self.dropped,
            capacity: self.capacity,
        })
    }

    /// Events dropped after the ring filled.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Events currently held.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Drains the recorder, returning events oldest-first. If the ring
    /// overwrote events since the last drain, a synthesized
    /// [`TraceEvent::Dropped`] marker leads the result.
    pub fn take(&mut self) -> Vec<TraceEvent> {
        let mut out = self.events.split_off(self.head);
        out.append(&mut self.events);
        self.head = 0;
        if let Some(marker) = self.drop_marker(out.first()) {
            self.dropped_reported = self.dropped;
            out.insert(0, marker);
        }
        out
    }

    /// The events oldest-first without draining, led by the same
    /// [`TraceEvent::Dropped`] marker [`Recorder::take`] would emit.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        let mut out: Vec<TraceEvent> = self.events[self.head..].to_vec();
        out.extend_from_slice(&self.events[..self.head]);
        if let Some(marker) = self.drop_marker(out.first()) {
            out.insert(0, marker);
        }
        out
    }
}

impl TraceSink for Recorder {
    fn record(&mut self, event: &TraceEvent) {
        if self.events.len() < self.capacity {
            self.events.push(event.clone());
        } else {
            self.events[self.head] = event.clone();
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }
}

/// The device's tracing state: an optional sink. Events arrive stamped
/// on the device's simulated clock. With no sink installed every
/// instrumentation site reduces to one branch, so untraced runs pay
/// nothing.
#[derive(Debug, Default)]
pub struct Tracer {
    slot: SinkSlot,
}

#[derive(Debug, Default)]
enum SinkSlot {
    /// Tracing disabled (the default).
    #[default]
    Noop,
    /// The built-in ring-buffer recorder.
    Recorder(Recorder),
    /// A user-supplied sink.
    Custom(Box<dyn TraceSink>),
}

impl Tracer {
    /// True if a sink is installed.
    pub fn enabled(&self) -> bool {
        !matches!(self.slot, SinkSlot::Noop)
    }

    /// Installs the built-in recorder (replacing any sink).
    pub fn install_recorder(&mut self, capacity: usize) {
        self.slot = SinkSlot::Recorder(Recorder::with_capacity(capacity));
    }

    /// Installs a custom sink (replacing any sink).
    pub fn install_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.slot = SinkSlot::Custom(sink);
    }

    /// Removes the sink; subsequent events are discarded.
    pub fn disable(&mut self) {
        self.slot = SinkSlot::Noop;
    }

    /// Drains the built-in recorder (empty for no-op/custom sinks).
    pub fn take_events(&mut self) -> Vec<TraceEvent> {
        match &mut self.slot {
            SinkSlot::Recorder(r) => r.take(),
            _ => Vec::new(),
        }
    }

    /// A copy of the recorder's events (empty for no-op/custom sinks).
    pub fn events(&self) -> Vec<TraceEvent> {
        match &self.slot {
            SinkSlot::Recorder(r) => r.snapshot(),
            _ => Vec::new(),
        }
    }

    /// Events the built-in recorder has overwritten (0 for no-op or
    /// custom sinks).
    pub fn dropped(&self) -> u64 {
        match &self.slot {
            SinkSlot::Recorder(r) => r.dropped(),
            _ => 0,
        }
    }

    /// Passes one event to the installed sink.
    pub fn emit(&mut self, event: TraceEvent) {
        match &mut self.slot {
            SinkSlot::Noop => {}
            SinkSlot::Recorder(r) => r.record(&event),
            SinkSlot::Custom(s) => s.record(&event),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cmd(i: u64) -> TraceEvent {
        TraceEvent::Free {
            at_ms: i as f64,
            id: i,
        }
    }

    #[test]
    fn recorder_keeps_most_recent_events() {
        let mut r = Recorder::with_capacity(4);
        for i in 0..10 {
            r.record(&cmd(i));
        }
        assert_eq!(r.dropped(), 6);
        let events = r.take();
        match &events[0] {
            TraceEvent::Dropped {
                at_ms,
                dropped,
                capacity,
            } => {
                assert_eq!(*dropped, 6);
                assert_eq!(*capacity, 4);
                assert_eq!(*at_ms, 6.0);
            }
            other => panic!("expected drop marker first, got {other:?}"),
        }
        let ids: Vec<u64> = events[1..]
            .iter()
            .map(|e| match e {
                TraceEvent::Free { id, .. } => *id,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(ids, vec![6, 7, 8, 9]);
    }

    #[test]
    fn drop_marker_emitted_once_per_drain() {
        let mut r = Recorder::with_capacity(2);
        for i in 0..5 {
            r.record(&cmd(i));
        }
        assert!(matches!(r.snapshot()[0], TraceEvent::Dropped { .. }));
        assert!(matches!(
            r.take()[0],
            TraceEvent::Dropped { dropped: 3, .. }
        ));
        // No new drops: the next drain has no marker.
        r.record(&cmd(9));
        assert!(matches!(r.take()[0], TraceEvent::Free { .. }));
    }

    #[test]
    fn recorder_without_drops_has_no_marker() {
        let mut r = Recorder::with_capacity(8);
        r.record(&cmd(1));
        assert_eq!(r.take().len(), 1);
    }

    #[test]
    fn tracer_noop_discards() {
        let mut t = Tracer::default();
        assert!(!t.enabled());
        t.emit(cmd(1));
        assert!(t.take_events().is_empty());
    }

    #[test]
    fn tracer_recorder_roundtrip() {
        let mut t = Tracer::default();
        t.install_recorder(16);
        assert!(t.enabled());
        t.emit(cmd(7));
        assert_eq!(t.events().len(), 1);
        assert_eq!(t.take_events().len(), 1);
        assert!(t.take_events().is_empty());
    }
}
