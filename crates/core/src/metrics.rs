//! Std-only metrics registry and utilization profiler.
//!
//! The trace subsystem records a *timeline* of discrete events; this
//! module records *aggregates* — the shapes the capacity-planning
//! questions need ("what is p99 op latency?", "how busy is shard 3 over
//! time?", "how many bytes crossed the interconnect in each window?").
//!
//! # Instrument taxonomy
//!
//! * **Counters** — monotonically increasing `u64` values (command
//!   counts, bytes moved). Merge by summation.
//! * **Gauges** — last-written `f64` values (dropped-event counts,
//!   accumulated energy). Merge by maximum, so a merged snapshot never
//!   under-reports a peak.
//! * **Histograms** — log-bucketed distributions with `p50`/`p90`/`p99`
//!   and exact `min`/`max`/`sum`/`count`. Values are bucketed by the
//!   bit position of the value scaled by 2²⁰, so latencies down to
//!   microseconds and sizes up to terabytes land in distinct buckets.
//!   Merge by bucket-wise summation.
//!
//! # Sharding and deterministic merge
//!
//! A [`MetricsRegistry`] owns one [`InstrumentSet`] per execution shard
//! plus one device-level set, so hot-path increments never contend: each
//! recording site writes plain (non-atomic) storage owned by the device.
//! [`MetricsRegistry::snapshot`] merges the per-shard sets into the
//! aggregate view **in ascending shard order**, which — together with
//! the fact that every recorded quantity derives from the *modeled*
//! simulated clock, never wall time — makes snapshots bit-identical at
//! any `PIM_THREADS` worker count.
//!
//! # Utilization profiler
//!
//! With profiling enabled the registry also keeps raw per-shard busy
//! spans and interconnect byte samples on the simulated clock, and
//! [`MetricsRegistry::snapshot`] bins them into fixed-width occupancy
//! series ([`ProfileSnapshot`]): per-shard busy fraction per bin and
//! interconnect bytes per bin. The Chrome exporter renders these as
//! Perfetto counter tracks (`ph: "C"`); the stats JSON carries them in
//! the `"metrics"` section.

use std::collections::BTreeMap;

use crate::charge::{Charge, ChargeKind, Part};
use crate::trace::json::{num, string};

/// Fixed-point scale for histogram bucketing: values are multiplied by
/// `2^20` before taking the bit position, so sub-millisecond latencies
/// (in ms units) still spread across buckets.
const BUCKET_SCALE_SHIFT: u32 = 20;

/// Number of histogram buckets (one per bit position of the scaled
/// value, plus bucket 0 for zero).
pub const HISTOGRAM_BUCKETS: usize = 65;

/// Number of time bins a profile snapshot divides the run into.
pub const DEFAULT_PROFILE_BINS: usize = 32;

/// Version stamp of the metrics snapshot JSON layout.
pub const METRICS_SCHEMA_VERSION: u32 = 1;

/// A log-bucketed distribution with quantile estimation.
///
/// Recording is O(1): the value selects one of [`HISTOGRAM_BUCKETS`]
/// power-of-two buckets. Quantiles interpolate linearly inside the
/// selected bucket, clamped to the exact observed `min`/`max`.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    buckets: Vec<u64>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            buckets: vec![0; HISTOGRAM_BUCKETS],
        }
    }
}

fn bucket_index(value: f64) -> usize {
    let scaled = (value.max(0.0) * (1u64 << BUCKET_SCALE_SHIFT) as f64) as u64;
    (64 - scaled.leading_zeros()) as usize
}

fn bucket_upper_bound(index: usize) -> f64 {
    (1u128 << index) as f64 / (1u64 << BUCKET_SCALE_SHIFT) as f64
}

impl Histogram {
    /// Records one observation (negative values clamp to zero).
    pub fn record(&mut self, value: f64) {
        let v = value.max(0.0);
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.buckets[bucket_index(v)] += 1;
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Estimates the `q`-quantile (`0 < q <= 1`) by linear interpolation
    /// inside the bucket holding the rank, clamped to the observed
    /// `min`/`max`. Returns 0 with no observations.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if seen + n >= rank {
                let lower = if i == 0 {
                    0.0
                } else {
                    bucket_upper_bound(i - 1)
                };
                let upper = bucket_upper_bound(i);
                let frac = (rank - seen) as f64 / n as f64;
                let est = lower + (upper - lower) * frac;
                return est.clamp(self.min, self.max);
            }
            seen += n;
        }
        self.max
    }

    /// Folds another histogram in (bucket-wise sums, min/max widening).
    pub fn merge_from(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
    }

    /// Freezes the distribution into an exported summary.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count,
            sum: self.sum,
            min: if self.count == 0 { 0.0 } else { self.min },
            max: if self.count == 0 { 0.0 } else { self.max },
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
        }
    }
}

/// Exported summary of one [`Histogram`].
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Observations recorded.
    pub count: u64,
    /// Sum of all observations.
    pub sum: f64,
    /// Smallest observation (0 when empty).
    pub min: f64,
    /// Largest observation (0 when empty).
    pub max: f64,
    /// Estimated median.
    pub p50: f64,
    /// Estimated 90th percentile.
    pub p90: f64,
    /// Estimated 99th percentile.
    pub p99: f64,
}

impl HistogramSnapshot {
    fn to_json(&self) -> String {
        format!(
            "{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"p50\":{},\"p90\":{},\"p99\":{}}}",
            self.count,
            num(self.sum),
            num(self.min),
            num(self.max),
            num(self.p50),
            num(self.p90),
            num(self.p99)
        )
    }
}

/// One named collection of typed instruments. Instruments are created
/// lazily on first use; names sort deterministically in every export
/// (`BTreeMap` storage).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct InstrumentSet {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl InstrumentSet {
    /// Adds `delta` to the named monotonic counter.
    pub fn counter_add(&mut self, name: &str, delta: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Sets the named gauge to `value`.
    pub fn gauge_set(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// Adds `delta` to the named gauge (starting from 0).
    pub fn gauge_add(&mut self, name: &str, delta: f64) {
        *self.gauges.entry(name.to_string()).or_insert(0.0) += delta;
    }

    /// Records one observation into the named histogram.
    pub fn observe(&mut self, name: &str, value: f64) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .record(value);
    }

    /// The named counter's value (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The named gauge's value, if set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// The named histogram, if any observation was recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// True if no instrument was ever touched.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Merges another set in: counters sum, gauges take the maximum,
    /// histograms merge bucket-wise. Callers merge shards in ascending
    /// order so float sums re-associate identically on every run.
    pub fn merge_from(&mut self, other: &InstrumentSet) {
        for (name, v) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += v;
        }
        for (name, v) in &other.gauges {
            self.gauges
                .entry(name.clone())
                .and_modify(|g| *g = g.max(*v))
                .or_insert(*v);
        }
        for (name, h) in &other.histograms {
            self.histograms
                .entry(name.clone())
                .or_default()
                .merge_from(h);
        }
    }

    /// Freezes the set into an exported snapshot.
    pub fn snapshot(&self) -> InstrumentsSnapshot {
        InstrumentsSnapshot {
            counters: self.counters.clone(),
            gauges: self.gauges.clone(),
            histograms: self
                .histograms
                .iter()
                .map(|(k, h)| (k.clone(), h.snapshot()))
                .collect(),
        }
    }
}

/// Exported view of one [`InstrumentSet`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct InstrumentsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram summaries by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl InstrumentsSnapshot {
    fn to_json(&self) -> String {
        let counters: Vec<String> = self
            .counters
            .iter()
            .map(|(k, v)| format!("{}: {v}", string(k)))
            .collect();
        let gauges: Vec<String> = self
            .gauges
            .iter()
            .map(|(k, v)| format!("{}: {}", string(k), num(*v)))
            .collect();
        let hists: Vec<String> = self
            .histograms
            .iter()
            .map(|(k, h)| format!("{}: {}", string(k), h.to_json()))
            .collect();
        format!(
            "{{\"counters\": {{{}}}, \"gauges\": {{{}}}, \"histograms\": {{{}}}}}",
            counters.join(", "),
            gauges.join(", "),
            hists.join(", ")
        )
    }
}

/// One per-shard busy span on the simulated clock: during the command
/// window `[start_ms, start_ms + dur_ms)` the shard was busy for
/// `busy_ms` of modeled time (its proportional share of the command).
#[derive(Debug, Clone, Copy, PartialEq)]
struct ShardSpan {
    shard: usize,
    start_ms: f64,
    dur_ms: f64,
    busy_ms: f64,
}

/// One interconnect transfer sample on the simulated clock.
#[derive(Debug, Clone, Copy, PartialEq)]
struct ByteSample {
    at_ms: f64,
    bytes: u64,
}

/// Raw profiler input: spans and samples kept until snapshot time.
#[derive(Debug, Clone, Default, PartialEq)]
struct ProfileRecorder {
    spans: Vec<ShardSpan>,
    interconnect: Vec<ByteSample>,
}

/// Time-binned occupancy series produced by the profiler.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileSnapshot {
    /// Width of one bin in simulated milliseconds.
    pub bin_ms: f64,
    /// Number of bins (`0` when the run had no simulated time).
    pub bins: usize,
    /// Per-shard busy fraction per bin (`shard_busy[shard][bin]`,
    /// `0.0..=1.0` up to float rounding).
    pub shard_busy: Vec<Vec<f64>>,
    /// Interconnect bytes charged in each bin.
    pub interconnect_bytes: Vec<u64>,
}

impl ProfileSnapshot {
    fn to_json(&self) -> String {
        let shards: Vec<String> = self
            .shard_busy
            .iter()
            .map(|bins| {
                let vals: Vec<String> = bins.iter().map(|v| num(*v)).collect();
                format!("[{}]", vals.join(","))
            })
            .collect();
        let ic: Vec<String> = self.interconnect_bytes.iter().map(u64::to_string).collect();
        format!(
            "{{\"bin_ms\": {}, \"bins\": {}, \"shard_busy\": [{}], \"interconnect_bytes\": [{}]}}",
            num(self.bin_ms),
            self.bins,
            shards.join(","),
            ic.join(",")
        )
    }
}

/// The sharded metrics registry a [`crate::Device`] records into.
///
/// See the module docs for the instrument taxonomy and the determinism
/// contract. All quantities are modeled values; the registry keeps no
/// clock of its own and never reads wall time: every charge arrives
/// stamped on the device's simulated clock, and times are kept relative
/// to the registry's epoch (the clock when it was enabled).
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsRegistry {
    /// Device clock when the registry was enabled, so a registry enabled
    /// mid-run counts from its enable.
    pub(crate) epoch_ms: f64,
    device: InstrumentSet,
    shards: Vec<InstrumentSet>,
    profile: Option<ProfileRecorder>,
}

impl MetricsRegistry {
    /// A registry for `shards` execution shards; `profile` additionally
    /// keeps the raw occupancy spans for [`ProfileSnapshot`] binning.
    pub fn new(shards: usize, profile: bool) -> Self {
        MetricsRegistry {
            epoch_ms: 0.0,
            device: InstrumentSet::default(),
            shards: vec![InstrumentSet::default(); shards.max(1)],
            profile: profile.then(ProfileRecorder::default),
        }
    }

    /// Folds one charge that started at device clock `start_ms`.
    ///
    /// Commands: device-level and per-shard sets use distinct counter
    /// keys (`cmds` vs `shard_cmds`) so the merged aggregate keeps
    /// `cmds` as the true command count — invariant across shard counts
    /// — while `shard_cmds` counts command-shard occurrences; a charge
    /// without shard shares is attributed whole to shard 0.
    pub(crate) fn post(&mut self, charge: &Charge, start_ms: f64) {
        let start_ms = start_ms - self.epoch_ms;
        let Part { cost, bytes, .. } = charge.whole;
        let (time_ms, energy_mj) = (cost.time_ms, cost.energy_mj);
        let d = &mut self.device;
        match &charge.kind {
            ChargeKind::Cmd { name, category, .. } => {
                let category = category.label();
                d.counter_add("cmds", 1);
                d.counter_add(&format!("cmds.{category}"), 1);
                d.gauge_add("kernel_energy_mj", energy_mj);
                d.observe("op_latency_ms", time_ms);
                d.observe(&format!("op_latency_ms.{name}"), time_ms);
                let whole = [(0, charge.whole)];
                let shares = if charge.shares.is_empty() {
                    &whole[..]
                } else {
                    &charge.shares[..]
                };
                for &(shard, part) in shares {
                    let busy_ms = part.cost.time_ms;
                    let s = &mut self.shards[shard];
                    s.counter_add("shard_cmds", 1);
                    s.observe("busy_ms", busy_ms);
                    if let Some(p) = &mut self.profile {
                        p.spans.push(ShardSpan {
                            shard,
                            start_ms,
                            dur_ms: time_ms,
                            busy_ms,
                        });
                    }
                }
            }
            ChargeKind::Copy { direction, .. } => {
                d.counter_add("copies", 1);
                d.counter_add(&format!("copies.{}", direction.label()), 1);
                d.counter_add("copy_bytes", bytes);
                d.gauge_add("copy_energy_mj", energy_mj);
                d.observe("copy_bytes", bytes as f64);
                d.observe("copy_latency_ms", time_ms);
            }
            ChargeKind::Interconnect(kind) => {
                d.counter_add("interconnect.transfers", 1);
                d.counter_add(&format!("interconnect_bytes.{}", kind.label()), bytes);
                d.counter_add("interconnect_bytes", bytes);
                d.gauge_add("interconnect_ms", time_ms);
                d.gauge_add("interconnect_energy_mj", energy_mj);
                d.observe("interconnect_bytes_hist", bytes as f64);
                if let Some(p) = &mut self.profile {
                    p.interconnect.push(ByteSample {
                        at_ms: start_ms,
                        bytes,
                    });
                }
            }
            ChargeKind::Host => {
                d.counter_add("host_phases", 1);
                d.gauge_add("host_ms", time_ms);
            }
        }
    }

    /// Records one command-stream flush.
    pub fn record_flush(&mut self) {
        self.device.counter_add("stream_flushes", 1);
    }

    /// Records how many trace events the ring-buffer recorder dropped.
    pub fn record_trace_dropped(&mut self, dropped: u64) {
        self.device
            .gauge_set("trace_dropped_events", dropped as f64);
    }

    /// Direct access to one shard's instrument set (`None` for an
    /// out-of-range shard index).
    pub fn shard_instruments(&mut self, shard: usize) -> Option<&mut InstrumentSet> {
        self.shards.get_mut(shard)
    }

    /// Freezes the registry: per-shard sets are merged into the
    /// aggregate **in ascending shard order** (the deterministic-merge
    /// contract), raw profile spans are binned into occupancy series
    /// over the window up to device clock `clock_ms`.
    pub fn snapshot(&self, clock_ms: f64) -> MetricsSnapshot {
        let clock_ms = clock_ms - self.epoch_ms;
        let mut aggregate = self.device.clone();
        for shard in &self.shards {
            aggregate.merge_from(shard);
        }
        MetricsSnapshot {
            schema_version: METRICS_SCHEMA_VERSION,
            clock_ms,
            aggregate: aggregate.snapshot(),
            per_shard: self.shards.iter().map(InstrumentSet::snapshot).collect(),
            profile: self.profile.as_ref().map(|p| self.bin_profile(p, clock_ms)),
        }
    }

    fn bin_profile(&self, p: &ProfileRecorder, clock_ms: f64) -> ProfileSnapshot {
        if clock_ms <= 0.0 {
            return ProfileSnapshot {
                bin_ms: 0.0,
                bins: 0,
                shard_busy: vec![Vec::new(); self.shards.len()],
                interconnect_bytes: Vec::new(),
            };
        }
        let bins = DEFAULT_PROFILE_BINS;
        let bin_ms = clock_ms / bins as f64;
        let mut shard_busy = vec![vec![0.0f64; bins]; self.shards.len()];
        for span in &p.spans {
            if span.shard >= shard_busy.len() {
                continue;
            }
            let (start, dur, busy) = (span.start_ms, span.dur_ms.max(0.0), span.busy_ms.max(0.0));
            if dur <= 0.0 {
                let bin = ((start / bin_ms) as usize).min(bins - 1);
                shard_busy[span.shard][bin] += busy / bin_ms;
                continue;
            }
            let end = start + dur;
            let first = ((start / bin_ms) as usize).min(bins - 1);
            let last = ((end / bin_ms) as usize).min(bins - 1);
            let row = &mut shard_busy[span.shard];
            for (bin, slot) in row.iter_mut().enumerate().take(last + 1).skip(first) {
                let lo = (bin as f64 * bin_ms).max(start);
                let hi = ((bin + 1) as f64 * bin_ms).min(end);
                let overlap = (hi - lo).max(0.0);
                *slot += busy * (overlap / dur) / bin_ms;
            }
        }
        let mut interconnect_bytes = vec![0u64; bins];
        for s in &p.interconnect {
            let bin = ((s.at_ms / bin_ms) as usize).min(bins - 1);
            interconnect_bytes[bin] += s.bytes;
        }
        ProfileSnapshot {
            bin_ms,
            bins,
            shard_busy,
            interconnect_bytes,
        }
    }
}

/// A frozen, exportable view of a [`MetricsRegistry`].
///
/// Every field is derived from modeled quantities, so two snapshots of
/// the same workload are bit-identical at any worker-thread count
/// (compare with `==` or via [`MetricsSnapshot::to_json`]).
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Layout version of the JSON rendering.
    pub schema_version: u32,
    /// Simulated time from the registry's enable to the snapshot (ms).
    pub clock_ms: f64,
    /// Device-level instruments merged with every shard's, in ascending
    /// shard order.
    pub aggregate: InstrumentsSnapshot,
    /// Each shard's own instruments (index = shard id).
    pub per_shard: Vec<InstrumentsSnapshot>,
    /// Binned occupancy series (present only with profiling enabled).
    pub profile: Option<ProfileSnapshot>,
}

impl MetricsSnapshot {
    /// Renders the snapshot as a JSON object. Key order and float
    /// formatting are deterministic, so equal snapshots render to equal
    /// strings.
    pub fn to_json(&self) -> String {
        let shards: Vec<String> = self
            .per_shard
            .iter()
            .map(InstrumentsSnapshot::to_json)
            .collect();
        let profile = match &self.profile {
            Some(p) => format!(",\n  \"profile\": {}", p.to_json()),
            None => String::new(),
        };
        format!(
            "{{\n  \"schema_version\": {},\n  \"clock_ms\": {},\n  \"aggregate\": {},\n  \
             \"per_shard\": [{}]{}\n}}",
            self.schema_version,
            num(self.clock_ms),
            self.aggregate.to_json(),
            shards.join(", "),
            profile
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::charge::InterconnectKind;
    use crate::model::OpCost;
    use crate::ops::OpCategory;
    use crate::trace::json::Json;
    use crate::trace::CopyDirection;
    use pim_dram::TimingCounters;

    #[test]
    fn histogram_quantiles_bracket_observations() {
        let mut h = Histogram::default();
        for i in 1..=100 {
            h.record(i as f64);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 100);
        assert_eq!(snap.min, 1.0);
        assert_eq!(snap.max, 100.0);
        assert!(snap.p50 >= 1.0 && snap.p50 <= 100.0);
        assert!(snap.p50 <= snap.p90 && snap.p90 <= snap.p99);
        assert!(snap.p99 <= snap.max);
    }

    #[test]
    fn histogram_handles_zero_and_empty() {
        let empty = Histogram::default().snapshot();
        assert_eq!(empty.count, 0);
        assert_eq!(empty.p99, 0.0);
        let mut h = Histogram::default();
        h.record(0.0);
        assert_eq!(h.snapshot().p50, 0.0);
    }

    #[test]
    fn histogram_merge_matches_combined_recording() {
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        let mut combined = Histogram::default();
        for i in 0..50 {
            let v = (i * 7 % 23) as f64 * 0.125;
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            combined.record(v);
        }
        a.merge_from(&b);
        assert_eq!(a, combined);
    }

    fn part(time_ms: f64, energy_mj: f64, bytes: u64) -> Part {
        Part {
            cost: OpCost { time_ms, energy_mj },
            bytes,
            cores_used: 1,
        }
    }

    fn charge(kind: ChargeKind, whole: Part, shares: &[(usize, f64)]) -> Charge {
        Charge {
            kind,
            whole,
            protocol: TimingCounters::default(),
            shares: shares.iter().map(|&(s, t)| (s, part(t, 0.0, 0))).collect(),
        }
    }

    fn cmd(time_ms: f64, energy_mj: f64, shares: &[(usize, f64)]) -> Charge {
        let kind = ChargeKind::Cmd {
            name: "add.int32".into(),
            category: OpCategory::Add,
            micro: None,
        };
        charge(kind, part(time_ms, energy_mj, 0), shares)
    }

    fn scatter(bytes: u64) -> Charge {
        let kind = ChargeKind::Interconnect(InterconnectKind::Scatter);
        charge(kind, part(0.1, 0.001, bytes), &[])
    }

    #[test]
    fn registry_merges_shards_in_ascending_order() {
        let mut r = MetricsRegistry::new(2, false);
        r.post(&cmd(2.0, 0.5, &[(0, 1.5), (1, 0.5)]), 0.0);
        r.post(&cmd(1.0, 0.25, &[(1, 1.0)]), 2.0);
        let snap = r.snapshot(3.0);
        assert_eq!(snap.aggregate.counters["cmds"], 2); // true command count
        assert_eq!(snap.aggregate.counters["shard_cmds"], 3); // shard occurrences
        assert_eq!(snap.per_shard[0].counters["shard_cmds"], 1);
        assert_eq!(snap.per_shard[1].counters["shard_cmds"], 2);
        let busy = &snap.aggregate.histograms["busy_ms"];
        assert_eq!(busy.count, 3);
        assert!((busy.sum - 3.0).abs() < 1e-12);
    }

    #[test]
    fn epoch_makes_a_late_registry_count_from_its_enable() {
        let mut r = MetricsRegistry::new(1, true);
        r.epoch_ms = 10.0;
        r.post(&cmd(2.0, 0.0, &[]), 10.0);
        let snap = r.snapshot(12.0);
        assert_eq!(snap.clock_ms, 2.0);
        let p = snap.profile.unwrap();
        let busy: f64 = p.shard_busy[0].iter().sum::<f64>() * p.bin_ms;
        assert!((busy - 2.0).abs() < 1e-9, "busy {busy}");
    }

    #[test]
    fn snapshot_json_is_parseable_and_stable() {
        let mut r = MetricsRegistry::new(1, true);
        r.post(&cmd(1.0, 0.1, &[]), 0.0);
        let copy = ChargeKind::Copy {
            direction: CopyDirection::HostToDevice,
            replay: None,
        };
        r.post(&charge(copy, part(0.5, 0.01, 4096), &[]), 1.0);
        r.post(&scatter(1024), 1.5);
        r.post(&charge(ChargeKind::Host, part(0.25, 0.0, 0), &[]), 1.5);
        let s1 = r.snapshot(1.75);
        let s2 = r.snapshot(1.75);
        assert_eq!(s1, s2);
        assert_eq!(s1.to_json(), s2.to_json());
        let doc = Json::parse(&s1.to_json()).expect("metrics JSON parses");
        assert_eq!(
            doc.get("schema_version").unwrap().as_f64().unwrap() as u32,
            METRICS_SCHEMA_VERSION
        );
        let agg = doc.get("aggregate").unwrap();
        assert!(agg.get("counters").unwrap().get("cmds").is_some());
        assert!(agg
            .get("histograms")
            .unwrap()
            .get("op_latency_ms")
            .unwrap()
            .get("p99")
            .is_some());
        let profile = doc.get("profile").unwrap();
        assert_eq!(
            profile.get("bins").unwrap().as_f64().unwrap() as usize,
            DEFAULT_PROFILE_BINS
        );
    }

    #[test]
    fn profile_bins_conserve_busy_time() {
        let mut r = MetricsRegistry::new(2, true);
        // Two commands, each 4 ms long, split unevenly across 2 shards.
        r.post(&cmd(4.0, 0.0, &[(0, 3.0), (1, 1.0)]), 0.0);
        r.post(&cmd(4.0, 0.0, &[(0, 2.0), (1, 2.0)]), 4.0);
        let p = r.snapshot(8.0).profile.unwrap();
        assert_eq!(p.bins, DEFAULT_PROFILE_BINS);
        let busy0: f64 = p.shard_busy[0].iter().sum::<f64>() * p.bin_ms;
        let busy1: f64 = p.shard_busy[1].iter().sum::<f64>() * p.bin_ms;
        assert!((busy0 - 5.0).abs() < 1e-9, "shard0 busy {busy0}");
        assert!((busy1 - 3.0).abs() < 1e-9, "shard1 busy {busy1}");
        for bins in &p.shard_busy {
            for &b in bins {
                assert!(b <= 1.0 + 1e-9, "busy fraction {b} > 1");
            }
        }
    }

    #[test]
    fn interconnect_samples_land_in_bins() {
        let mut r = MetricsRegistry::new(2, true);
        r.post(&cmd(2.0, 0.0, &[(0, 1.0), (1, 1.0)]), 0.0);
        r.post(&scatter(512), 2.0);
        let p = r.snapshot(2.0).profile.unwrap();
        let total: u64 = p.interconnect_bytes.iter().sum();
        assert_eq!(total, 512);
    }
}
