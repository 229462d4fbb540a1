//! Sharded PIM system: per-rank execution shards behind one device API.
//!
//! A [`PimSystem`] owns `N` [`Shard`]s — one per rank by default (see
//! [`crate::DeviceConfig::sharded_per_rank`]) — each with its own
//! [`ResourceManager`], functional state, and [`SimStats`] sub-ledger.
//! Every object carries a [`ShardMap`] describing which contiguous
//! element ranges live on which shard; every command entering
//! [`crate::Device::issue`] is split by that map, executed per shard
//! (shards are the *outer* parallelism unit; the `exec` worker pool is
//! divided among them), and re-aggregated. Cross-shard data movement —
//! host⇄rank scatter/gather and inter-shard realignment for misaligned
//! operands — is charged through an [`InterconnectModel`] with per-rank
//! DDR channel bandwidth from [`pim_dram::DramTiming`].
//!
//! # Correctness contract
//!
//! Results are bit-identical between `shards = 1` and `shards = N` for
//! every target and dtype:
//!
//! * element-wise ops are positionwise, so splitting by element range
//!   cannot change any output element;
//! * the widening `i128` reduction sum is associative and commutative;
//! * min/max reductions fold per-range partials in ascending global
//!   element order with the same keep-first tie-breaking as a
//!   sequential scan (all buffer values are canonical via
//!   `DataType::truncate`, so ties are bit-equal anyway);
//! * `shards = 1` runs the exact same code path as the unsharded
//!   device did — the single shard's layout reproduces the global
//!   [`ObjectLayout`] bit for bit.
//!
//! Compute cost stays additive across shards (the per-shard ledgers sum
//! to the aggregate) while interconnect time/energy is accounted
//! *separately* and never folded into kernel time.

use std::collections::BTreeMap;

use pim_dram::exec;
use pim_dram::{make_timing_model, CopyReplay, TimingBackend, TimingCounters, TimingModel};

use crate::charge::{Charge, Part};
use crate::config::{DeviceConfig, ShardPolicy, SimMode};
use crate::dtype::{DataType, PimScalar};
use crate::error::{PimError, Result};
use crate::model::OpCost;
use crate::object::{ObjId, ObjectLayout};
use crate::resource::ResourceManager;
use crate::stats::{ResourceStats, ShardResourceStats, SimStats};

/// One contiguous run of global element indices resident on one shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRange {
    /// First global element index covered (inclusive).
    pub start: u64,
    /// One past the last global element index covered.
    pub end: u64,
    /// Index of the shard holding this range.
    pub shard: usize,
    /// Offset of `start` inside the shard-local buffer.
    pub local_start: u64,
}

/// How one object's elements are divided across shards.
///
/// Ranges are stored in ascending global-element order and partition
/// `[0, count)` exactly; each shard's local buffer is the concatenation
/// of its ranges in that same order. Splits happen only on *unit*
/// boundaries (rows for horizontal layouts, stripes for vertical ones)
/// so no DRAM row ever straddles two shards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMap {
    ranges: Vec<ShardRange>,
    counts: Vec<u64>,
}

impl ShardMap {
    /// Computes the element → shard assignment for `count` elements
    /// packed `elems_per_unit` to a row/stripe, split across
    /// `weights.len()` shards proportionally to `weights` (the modeled
    /// core count of each shard).
    ///
    /// [`ShardPolicy::Contiguous`] hands shard *s* the unit range
    /// `[⌊U·W_{<s}/W⌋, ⌊U·W_{≤s}/W⌋)`; [`ShardPolicy::RoundRobin`]
    /// deals units out cyclically (adjacent same-shard units coalesce,
    /// so with one shard both policies produce the identical map).
    pub fn compute(
        count: u64,
        elems_per_unit: u64,
        weights: &[u64],
        policy: ShardPolicy,
    ) -> ShardMap {
        let n = weights.len().max(1);
        let epu = elems_per_unit.max(1);
        let units_total = count.div_ceil(epu);
        let mut counts = vec![0u64; n];
        let mut ranges = Vec::new();
        match policy {
            ShardPolicy::Contiguous => {
                let w_total: u128 = weights.iter().map(|&w| w as u128).sum::<u128>().max(1);
                let mut cum: u128 = 0;
                let mut prev_b = 0u64;
                for (s, &w) in weights.iter().enumerate() {
                    cum += w as u128;
                    let b = ((units_total as u128 * cum) / w_total) as u64;
                    let start = prev_b.saturating_mul(epu).min(count);
                    let end = b.saturating_mul(epu).min(count);
                    prev_b = b;
                    if start >= end {
                        continue;
                    }
                    counts[s] = end - start;
                    ranges.push(ShardRange {
                        start,
                        end,
                        shard: s,
                        local_start: 0,
                    });
                }
            }
            ShardPolicy::RoundRobin => {
                for j in 0..units_total {
                    let s = (j % n as u64) as usize;
                    let start = j * epu;
                    let end = ((j + 1) * epu).min(count);
                    if start >= end {
                        continue;
                    }
                    let len = end - start;
                    if let Some(last) = ranges.last_mut() {
                        let last: &mut ShardRange = last;
                        if last.shard == s && last.end == start {
                            last.end = end;
                            counts[s] += len;
                            continue;
                        }
                    }
                    ranges.push(ShardRange {
                        start,
                        end,
                        shard: s,
                        local_start: counts[s],
                    });
                    counts[s] += len;
                }
            }
        }
        ShardMap { ranges, counts }
    }

    /// The ranges, in ascending global-element order.
    pub fn ranges(&self) -> &[ShardRange] {
        &self.ranges
    }

    /// Per-shard element counts (index = shard).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Elements resident on shard `s`.
    pub fn count_on(&self, s: usize) -> u64 {
        self.counts.get(s).copied().unwrap_or(0)
    }

    /// Number of shards this map was computed for (including empty ones).
    pub fn shard_count(&self) -> usize {
        self.counts.len()
    }
}

/// Cost model for cross-shard data movement over the per-rank DDR
/// channels.
///
/// Time is charged on the *critical path* — the busiest channel's bytes
/// at [`pim_dram::DramTiming::channel_bandwidth_gbs`] — because ranks
/// transfer concurrently; energy is charged on *total* bytes moved.
/// Interconnect cost is reported separately from kernel time (see
/// [`crate::stats::InterconnectStats`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InterconnectModel {
    channel_gbs: f64,
    pj_per_bit: f64,
}

impl InterconnectModel {
    /// Builds the model from a device configuration: per-rank channel
    /// bandwidth from the DRAM timing, per-bit wire energy from the
    /// GDL parameter of the PE model.
    pub fn from_config(config: &DeviceConfig) -> InterconnectModel {
        InterconnectModel {
            channel_gbs: config.timing.channel_bandwidth_gbs(),
            pj_per_bit: config.pe.gdl_pj_per_bit,
        }
    }

    /// Sustained bandwidth of one rank's channel (GB/s).
    pub fn channel_gbs(&self) -> f64 {
        self.channel_gbs
    }

    /// Critical-path transfer time for `critical_bytes` on the busiest
    /// channel, in ms.
    pub fn transfer_ms(&self, critical_bytes: u64) -> f64 {
        critical_bytes as f64 / self.channel_gbs / 1e6
    }

    /// Wire energy for `total_bytes` moved across all channels, in mJ.
    pub fn energy_mj(&self, total_bytes: u64) -> f64 {
        total_bytes as f64 * 8.0 * self.pj_per_bit * 1e-9
    }
}

/// One execution shard: a rank's worth of cores with its own resource
/// manager, functional state, statistics sub-ledger, and timing backend.
#[derive(Debug)]
pub struct Shard {
    rm: ResourceManager,
    stats: SimStats,
    /// Modeled cores assigned to this shard (decimation-adjusted).
    cores: usize,
    /// This shard's timing backend. Each shard owns its rank's banks, so
    /// FSM state never crosses shards and re-aggregation (ascending
    /// shard order) stays deterministic at every shard count.
    timing: Box<dyn TimingModel>,
}

impl Shard {
    /// This shard's statistics sub-ledger. Per-shard compute cost sums
    /// to the aggregate [`crate::Device::stats`] kernel cost.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// This shard's timing backend (per-bank state and counters).
    pub fn timing(&self) -> &dyn TimingModel {
        self.timing.as_ref()
    }

    /// Modeled cores assigned to this shard.
    pub fn cores(&self) -> usize {
        self.cores
    }

    /// Row-core units currently allocated on this shard.
    pub fn rows_in_use(&self) -> u64 {
        self.rm.rows_in_use()
    }

    /// High-water mark of this shard's row-core usage.
    pub fn peak_rows(&self) -> u64 {
        self.rm.peak_rows()
    }

    /// Total row-core units this shard can hold.
    pub fn rows_capacity(&self) -> u64 {
        self.rm.rows_capacity()
    }

    /// Live objects with at least one element on this shard.
    pub fn live_objects(&self) -> usize {
        self.rm.live_objects()
    }
}

/// `total` split as evenly as possible into `n` parts; part `i` gets the
/// remainder first so Σ parts = total.
fn split_even(total: usize, n: usize, i: usize) -> usize {
    total / n + usize::from(i < total % n)
}

/// Chunked parallel widening sum; per-chunk partials fold in chunk
/// order (`i128` addition is associative, so this is bit-identical to
/// the sequential sum at every thread count and every shard split).
pub(crate) fn par_sum(data: &[i64], dtype: DataType) -> i128 {
    let signed = dtype.is_signed();
    let mask = pim_microcode::encode::mask(dtype.bits());
    exec::par_fold(
        data.len(),
        |r| {
            data[r]
                .iter()
                .map(|&v| {
                    if signed {
                        v as i128
                    } else {
                        ((v as u64) & mask) as i128
                    }
                })
                .sum::<i128>()
        },
        |x, y| x + y,
    )
    .unwrap_or(0)
}

/// The sharded execution substrate behind [`crate::Device`].
///
/// Owns a metadata catalog (the authoritative global [`ObjectLayout`]s
/// the cost model charges against), the per-shard state, the per-object
/// [`ShardMap`]s, and the [`InterconnectModel`]. With `shards = 1` the
/// system is an exact pass-through to the legacy single-manager device.
#[derive(Debug)]
pub struct PimSystem {
    meta: ResourceManager,
    shards: Vec<Shard>,
    maps: BTreeMap<u64, ShardMap>,
    policy: ShardPolicy,
    interconnect: InterconnectModel,
    functional: bool,
}

impl PimSystem {
    /// Builds the shard set for `config`: `config.shards` shards
    /// (clamped to the modeled core count), each receiving an even
    /// split of the modeled and physical cores.
    ///
    /// # Errors
    ///
    /// [`PimError::InvalidArg`] if any shard's row capacity overflows
    /// `u64`.
    pub(crate) fn new(config: &DeviceConfig) -> Result<PimSystem> {
        let modeled = config.core_count().max(1);
        let physical = config.physical_core_count().max(1);
        let n = config.shards.max(1).min(modeled);
        let meta = ResourceManager::new(config.rows_per_core(), physical as u64)?;
        let row_bytes = (config.geometry.cols_per_row as u64 / 8).max(64);
        let mut shards = Vec::with_capacity(n);
        for i in 0..n {
            shards.push(Shard {
                rm: ResourceManager::new(
                    config.rows_per_core(),
                    split_even(physical, n, i) as u64,
                )?,
                stats: SimStats::new(),
                cores: split_even(modeled, n, i),
                // One rank's worth of banks per shard: shards are the
                // per-rank execution unit, and the FSM's bank state must
                // not change shape with the shard count.
                timing: make_timing_model(
                    config.timing_backend,
                    &config.timing,
                    config.geometry.banks_per_rank,
                    row_bytes,
                ),
            });
        }
        Ok(PimSystem {
            meta,
            shards,
            maps: BTreeMap::new(),
            policy: config.shard_policy,
            interconnect: InterconnectModel::from_config(config),
            functional: matches!(config.mode, SimMode::Functional),
        })
    }

    /// The metadata catalog holding every object's global layout.
    pub fn meta(&self) -> &ResourceManager {
        &self.meta
    }

    /// The execution shards.
    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// Number of execution shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The cross-shard interconnect cost model.
    pub fn interconnect(&self) -> &InterconnectModel {
        &self.interconnect
    }

    /// The shard map of a live object, if any.
    pub fn shard_map(&self, id: ObjId) -> Option<&ShardMap> {
        self.maps.get(&id.0)
    }

    /// True when both `reference` and every id in `ids` are live and
    /// share the exact same shard map (so shard-local buffers align
    /// positionwise and no realignment traffic is needed).
    pub(crate) fn maps_equal(&self, ids: &[ObjId], reference: ObjId) -> bool {
        let Some(rmap) = self.maps.get(&reference.0) else {
            return false;
        };
        ids.iter().all(|id| self.maps.get(&id.0) == Some(rmap))
    }

    // ------------------------------------------------------------------
    // Sharded allocation
    // ------------------------------------------------------------------

    /// Two-phase sharded allocation: computes the global layout, runs
    /// every capacity check (catalog first, then each shard) in the
    /// legacy error order, and only then commits the object everywhere
    /// under one global id. The catalog entry never materializes data;
    /// functional buffers live in the per-shard objects.
    ///
    /// # Errors
    ///
    /// [`PimError::InvalidArg`] for zero-element or overflowing
    /// requests, [`PimError::OutOfMemory`] when the catalog or any
    /// shard runs out of rows. Failure commits nothing.
    pub(crate) fn alloc(
        &mut self,
        config: &DeviceConfig,
        count: u64,
        dtype: DataType,
        cores_cap: Option<usize>,
    ) -> Result<ObjId> {
        let layout = ObjectLayout::compute(config, count, dtype, cores_cap)?;
        if layout.rows_per_core > self.meta.rows_per_core() {
            return Err(PimError::OutOfMemory {
                rows_needed: layout.rows_per_core,
                rows_available: self.meta.rows_per_core(),
            });
        }
        let units = layout.rows_per_core * layout.cores_used as u64;
        if self.meta.rows_in_use() + units > self.meta.rows_capacity() {
            return Err(PimError::OutOfMemory {
                rows_needed: self.meta.rows_in_use() + units,
                rows_available: self.meta.rows_capacity(),
            });
        }
        let n = self.shards.len();
        // Map weights are ALWAYS the shards' modeled-core split — never
        // cores_cap — so every object of the same count and dtype gets
        // the identical map and element-wise operands stay aligned.
        let weights: Vec<u64> = self.shards.iter().map(|s| s.cores as u64).collect();
        let map = ShardMap::compute(count, layout.elems_per_unit, &weights, self.policy);
        // rows_per_core = units_per_core × rows_per_unit, exactly.
        let rows_per_unit = layout.rows_per_core / layout.units_per_core.max(1);
        let budget_total = cores_cap.unwrap_or_else(|| config.core_count()).max(1);
        let mut locals: Vec<Option<ObjectLayout>> = vec![None; n];
        for (s, local) in locals.iter_mut().enumerate() {
            let c = map.count_on(s);
            if c == 0 {
                continue;
            }
            let local_units = c.div_ceil(layout.elems_per_unit.max(1));
            let budget = split_even(budget_total, n, s).max(1) as u64;
            let lcores = local_units.min(budget).max(1) as usize;
            let lupc = local_units.div_ceil(lcores as u64);
            let lrows = lupc.checked_mul(rows_per_unit).ok_or_else(|| {
                PimError::InvalidArg("object layout overflows u64 row arithmetic".into())
            })?;
            let shard_rm = &self.shards[s].rm;
            if lrows > shard_rm.rows_per_core() {
                return Err(PimError::OutOfMemory {
                    rows_needed: lrows,
                    rows_available: shard_rm.rows_per_core(),
                });
            }
            let lunits = lrows * lcores as u64;
            if shard_rm.rows_in_use() + lunits > shard_rm.rows_capacity() {
                return Err(PimError::OutOfMemory {
                    rows_needed: shard_rm.rows_in_use() + lunits,
                    rows_available: shard_rm.rows_capacity(),
                });
            }
            let lelems = lupc
                .checked_mul(layout.elems_per_unit)
                .map_or(c, |padded| padded.min(c));
            *local = Some(ObjectLayout {
                layout: layout.layout,
                cores_used: lcores,
                elems_per_core: lelems,
                rows_per_core: lrows,
                elems_per_unit: layout.elems_per_unit,
                units_per_core: lupc,
            });
        }
        let id = ObjId(self.meta.peek_next_id());
        self.meta.install(id, dtype, count, layout, false);
        for (s, local) in locals.into_iter().enumerate() {
            if let Some(l) = local {
                self.shards[s]
                    .rm
                    .install(id, dtype, map.count_on(s), l, self.functional);
            }
        }
        self.maps.insert(id.0, map);
        Ok(id)
    }

    /// Frees an object from the catalog and every shard holding a range.
    ///
    /// # Errors
    ///
    /// [`PimError::UnknownObject`] if the id is not live.
    pub(crate) fn free(&mut self, id: ObjId) -> Result<()> {
        self.meta.free(id)?;
        for shard in &mut self.shards {
            // Shards with no range of this object never installed it.
            let _ = shard.rm.free(id);
        }
        self.maps.remove(&id.0);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Per-shard execution
    // ------------------------------------------------------------------

    /// Runs `f` once per shard. With one shard this is a plain inline
    /// call; with more, the shards go through the persistent
    /// work-stealing pool at item granularity ([`exec::par_each_mut`]):
    /// every shard is its own stealable unit, so a skewed `ShardMap`
    /// keeps no worker idle, and element-level fan-outs *inside* a
    /// shard are ordinary nested pool jobs that idle workers can help
    /// with. The first shard error (in shard order) is returned.
    fn on_shards<F>(shards: &mut [Shard], f: F) -> Result<()>
    where
        F: Fn(usize, &mut Shard) -> Result<()> + Sync,
    {
        if shards.len() <= 1 {
            if let Some(shard) = shards.first_mut() {
                return f(0, shard);
            }
            return Ok(());
        }
        exec::par_each_mut(shards, |i, shard| f(i, shard))
            .into_iter()
            .collect::<Result<Vec<()>>>()
            .map(|_| ())
    }

    /// Reassembles an object's full canonical buffer in global element
    /// order from its per-shard pieces.
    ///
    /// # Errors
    ///
    /// [`PimError::UnknownObject`]; [`PimError::NotSupported`] in
    /// model-only mode.
    pub(crate) fn gather_full(&self, id: ObjId) -> Result<Vec<i64>> {
        let count = self.meta.get(id)?.count as usize;
        let map = self.maps.get(&id.0).ok_or(PimError::UnknownObject(id))?;
        let mut out = vec![0i64; count];
        for r in &map.ranges {
            let obj = self.shards[r.shard].rm.get(id)?;
            let data = obj
                .data
                .as_deref()
                .ok_or_else(|| PimError::NotSupported("copy_to_host in model-only mode".into()))?;
            let ls = r.local_start as usize;
            let len = (r.end - r.start) as usize;
            out[r.start as usize..r.end as usize].copy_from_slice(&data[ls..ls + len]);
        }
        Ok(out)
    }

    /// Converts an object's sharded contents into a host buffer
    /// (`pimCopyDeviceToHost` under sharding).
    ///
    /// # Errors
    ///
    /// As [`PimSystem::gather_full`].
    pub(crate) fn gather_to_host<T: PimScalar>(&self, id: ObjId, out: &mut [T]) -> Result<()> {
        let map = self.maps.get(&id.0).ok_or(PimError::UnknownObject(id))?;
        for r in &map.ranges {
            let obj = self.shards[r.shard].rm.get(id)?;
            let data = obj
                .data
                .as_deref()
                .ok_or_else(|| PimError::NotSupported("copy_to_host in model-only mode".into()))?;
            let ls = r.local_start as usize;
            let len = (r.end - r.start) as usize;
            exec::par_map_into(
                &data[ls..ls + len],
                &mut out[r.start as usize..r.end as usize],
                |&v| T::from_device(v),
            );
        }
        Ok(())
    }

    /// Packs a host buffer into per-shard canonical buffers
    /// (`pimCopyHostToDevice` under sharding). No-op in model-only mode.
    ///
    /// # Errors
    ///
    /// [`PimError::UnknownObject`].
    pub(crate) fn scatter_to_device<T: PimScalar>(
        &mut self,
        data: &[T],
        id: ObjId,
        dtype: DataType,
    ) -> Result<()> {
        if !self.functional {
            return Ok(());
        }
        let map = self
            .maps
            .get(&id.0)
            .ok_or(PimError::UnknownObject(id))?
            .clone();
        for (s, shard) in self.shards.iter_mut().enumerate() {
            let c = map.count_on(s) as usize;
            if c == 0 {
                continue;
            }
            // Reuse the shard's existing buffer when present (repeated
            // uploads into the same object allocate nothing).
            let mut buf = shard.rm.get_mut(id)?.data.take().unwrap_or_default();
            buf.resize(c, 0);
            for r in map.ranges.iter().filter(|r| r.shard == s) {
                let ls = r.local_start as usize;
                let len = (r.end - r.start) as usize;
                exec::par_map_into(
                    &data[r.start as usize..r.end as usize],
                    &mut buf[ls..ls + len],
                    |v| dtype.truncate(v.to_device()),
                );
            }
            shard.rm.get_mut(id)?.data = Some(buf);
        }
        Ok(())
    }

    /// Element-wise execution across shards. Operands whose shard map
    /// differs from the destination's (e.g. a `select` condition of a
    /// narrower dtype on a horizontal target) are realigned first:
    /// their bytes are counted as interconnect realignment traffic and,
    /// in functional mode, their values are re-dealt by the
    /// destination's map. Returns the realigned byte total.
    ///
    /// # Errors
    ///
    /// [`PimError::UnknownObject`] for dead operands.
    pub(crate) fn exec_elementwise(
        &mut self,
        kind: crate::ops::OpKind,
        dtype: DataType,
        inputs: &[ObjId],
        dst: ObjId,
    ) -> Result<u64> {
        let dst_map = self
            .maps
            .get(&dst.0)
            .ok_or(PimError::UnknownObject(dst))?
            .clone();
        let mut realign_bytes = 0u64;
        let mut rebuilt: Vec<Option<Vec<Vec<i64>>>> = vec![None; inputs.len()];
        for (j, &id) in inputs.iter().enumerate() {
            let map = self.maps.get(&id.0).ok_or(PimError::UnknownObject(id))?;
            if *map == dst_map {
                continue;
            }
            realign_bytes += self.meta.get(id)?.bytes();
            if self.functional {
                let full = self.gather_full(id)?;
                let mut per_shard: Vec<Vec<i64>> = vec![Vec::new(); self.shards.len()];
                for r in &dst_map.ranges {
                    per_shard[r.shard].extend_from_slice(&full[r.start as usize..r.end as usize]);
                }
                rebuilt[j] = Some(per_shard);
            }
        }
        if !self.functional {
            return Ok(realign_bytes);
        }
        let rebuilt = &rebuilt;
        let dst_map = &dst_map;
        // Steady-state ops write into the destination's existing buffer
        // through the `par_*_into` primitives instead of allocating a
        // fresh output per op — the dominant wall-clock cost at large
        // element counts. When an input aliases the destination the
        // buffer cannot be taken out from under the reads, so that
        // (rare) shape keeps the allocate-then-swap path.
        let aliased = inputs.contains(&dst);
        Self::on_shards(&mut self.shards, |s, shard| {
            let n = dst_map.count_on(s) as usize;
            if n == 0 {
                return Ok(());
            }
            let reuse = if aliased {
                None
            } else {
                Some(shard.rm.get_mut(dst)?.data.take().unwrap_or_default())
            };
            let out = {
                let mut ins: Vec<&[i64]> = Vec::with_capacity(inputs.len());
                for (j, &id) in inputs.iter().enumerate() {
                    ins.push(match &rebuilt[j] {
                        Some(per) => &per[s],
                        None => shard
                            .rm
                            .get(id)?
                            .data
                            .as_deref()
                            .expect("functional object has data"),
                    });
                }
                match reuse {
                    Some(mut buf) => {
                        buf.resize(n, 0);
                        match *ins.as_slice() {
                            [a] => exec::par_map_into(a, &mut buf, |&x| {
                                crate::cmd::eval(kind, dtype, &[x])
                            }),
                            [a, b] => exec::par_zip_map_into(a, b, &mut buf, |&x, &y| {
                                crate::cmd::eval(kind, dtype, &[x, y])
                            }),
                            [a, b, c] => {
                                exec::par_zip3_map_into(a, b, c, &mut buf, |&x, &y, &z| {
                                    crate::cmd::eval(kind, dtype, &[x, y, z])
                                })
                            }
                            [a, b, c, d] => {
                                exec::par_zip4_map_into(a, b, c, d, &mut buf, |&x, &y, &z, &u| {
                                    crate::cmd::eval(kind, dtype, &[x, y, z, u])
                                })
                            }
                            _ => unreachable!("element-wise arity is 1..=4"),
                        }
                        buf
                    }
                    None => match *ins.as_slice() {
                        [a] => exec::par_map(a, |&x| crate::cmd::eval(kind, dtype, &[x])),
                        [a, b] => {
                            exec::par_zip_map(a, b, |&x, &y| crate::cmd::eval(kind, dtype, &[x, y]))
                        }
                        [a, b, c] => exec::par_zip3_map(a, b, c, |&x, &y, &z| {
                            crate::cmd::eval(kind, dtype, &[x, y, z])
                        }),
                        [a, b, c, d] => {
                            let chunks = exec::par_chunks(a.len(), |r| {
                                r.map(|i| crate::cmd::eval(kind, dtype, &[a[i], b[i], c[i], d[i]]))
                                    .collect::<Vec<i64>>()
                            });
                            chunks.concat()
                        }
                        _ => unreachable!("element-wise arity is 1..=4"),
                    },
                }
            };
            shard.rm.get_mut(dst)?.data = Some(out);
            Ok(())
        })?;
        Ok(realign_bytes)
    }

    /// Device-to-device copy. Aligned maps clone shard-locally; a
    /// misaligned pair (possible only through dtype-chained
    /// associations) gathers and re-deals, returning the object's bytes
    /// as interconnect realignment traffic.
    ///
    /// # Errors
    ///
    /// [`PimError::UnknownObject`] for dead operands.
    pub(crate) fn copy_data(&mut self, src: ObjId, dst: ObjId) -> Result<u64> {
        let src_map = self.maps.get(&src.0).ok_or(PimError::UnknownObject(src))?;
        let dst_map = self.maps.get(&dst.0).ok_or(PimError::UnknownObject(dst))?;
        if src_map == dst_map {
            if self.functional && src != dst {
                Self::on_shards(&mut self.shards, |_s, shard| {
                    // Reuse the destination's existing buffer: repeated
                    // copies into the same object allocate nothing.
                    let Ok(dst_obj) = shard.rm.get_mut(dst) else {
                        return Ok(());
                    };
                    let mut buf = dst_obj.data.take().unwrap_or_default();
                    let copied = match shard.rm.get(src) {
                        Ok(obj) => match obj.data.as_deref() {
                            Some(d) => {
                                buf.resize(d.len(), 0);
                                buf.copy_from_slice(d);
                                true
                            }
                            None => false,
                        },
                        Err(_) => {
                            // Source absent on this shard: restore the
                            // destination untouched (pre-reuse semantics).
                            shard.rm.get_mut(dst)?.data = Some(buf);
                            return Ok(());
                        }
                    };
                    shard.rm.get_mut(dst)?.data = copied.then_some(buf);
                    Ok(())
                })?;
            }
            return Ok(0);
        }
        let bytes = self.meta.get(src)?.bytes();
        if self.functional {
            let full = self.gather_full(src)?;
            let dst_map = dst_map.clone();
            for (s, shard) in self.shards.iter_mut().enumerate() {
                let c = dst_map.count_on(s) as usize;
                if c == 0 {
                    continue;
                }
                let mut buf = vec![0i64; c];
                for r in dst_map.ranges.iter().filter(|r| r.shard == s) {
                    let ls = r.local_start as usize;
                    let len = (r.end - r.start) as usize;
                    buf[ls..ls + len].copy_from_slice(&full[r.start as usize..r.end as usize]);
                }
                if let Ok(obj) = shard.rm.get_mut(dst) {
                    obj.data = Some(buf);
                }
            }
        }
        Ok(bytes)
    }

    /// Fills every shard-local piece of `dst` with `value` truncated to
    /// `dtype`. No-op in model-only mode.
    ///
    /// # Errors
    ///
    /// Never fails today (missing shard pieces are skipped); kept
    /// fallible for symmetry with the other execution paths.
    pub(crate) fn broadcast_value(
        &mut self,
        dst: ObjId,
        value: i64,
        dtype: DataType,
    ) -> Result<()> {
        if !self.functional {
            return Ok(());
        }
        Self::on_shards(&mut self.shards, |_s, shard| {
            if let Ok(obj) = shard.rm.get_mut(dst) {
                let count = obj.count as usize;
                // Fill in place when a buffer already exists.
                let mut buf = obj.data.take().unwrap_or_default();
                buf.resize(count, 0);
                buf.fill(dtype.truncate(value));
                obj.data = Some(buf);
            }
            Ok(())
        })
    }

    /// Widening reduction sum across all shards (0 in model-only mode).
    /// Per-range partials accumulate in ascending global order; `i128`
    /// addition is associative so the result is bit-identical to the
    /// unsharded sum.
    ///
    /// # Errors
    ///
    /// [`PimError::UnknownObject`].
    pub(crate) fn red_sum(&self, a: ObjId, dtype: DataType) -> Result<i128> {
        let map = self.maps.get(&a.0).ok_or(PimError::UnknownObject(a))?;
        let mut total = 0i128;
        for r in &map.ranges {
            let obj = self.shards[r.shard].rm.get(a)?;
            let Some(data) = obj.data.as_deref() else {
                return Ok(0);
            };
            let ls = r.local_start as usize;
            let len = (r.end - r.start) as usize;
            total += par_sum(&data[ls..ls + len], dtype);
        }
        Ok(total)
    }

    /// Reduction extreme (`min` when `want_min`, else `max`) across all
    /// shards, 0 in model-only mode. Per-range partials fold in
    /// ascending global order with keep-first tie-breaking — exactly a
    /// sequential scan's semantics, so sharding cannot change the
    /// result.
    ///
    /// # Errors
    ///
    /// [`PimError::UnknownObject`].
    pub(crate) fn red_extreme(&self, a: ObjId, dtype: DataType, want_min: bool) -> Result<i64> {
        let map = self.maps.get(&a.0).ok_or(PimError::UnknownObject(a))?;
        let keep_first = |x: i64, y: i64| {
            let ord = dtype.compare(x, y);
            if if want_min { ord.is_le() } else { ord.is_ge() } {
                x
            } else {
                y
            }
        };
        let mut best: Option<i64> = None;
        for r in &map.ranges {
            let obj = self.shards[r.shard].rm.get(a)?;
            let Some(data) = obj.data.as_deref() else {
                return Ok(0);
            };
            let ls = r.local_start as usize;
            let len = (r.end - r.start) as usize;
            let seg = &data[ls..ls + len];
            let part = exec::par_fold(
                seg.len(),
                |rr| {
                    seg[rr]
                        .iter()
                        .copied()
                        .reduce(keep_first)
                        .expect("chunks are non-empty")
                },
                keep_first,
            );
            best = match (best, part) {
                (Some(x), Some(y)) => Some(keep_first(x, y)),
                (None, p) => p,
                (b, None) => b,
            };
        }
        Ok(best.unwrap_or(0))
    }

    /// Ranged reduction sum over global elements `[start, end)`
    /// (bounds already validated), intersected with each shard range.
    ///
    /// # Errors
    ///
    /// [`PimError::UnknownObject`].
    pub(crate) fn red_sum_range(
        &self,
        a: ObjId,
        dtype: DataType,
        start: u64,
        end: u64,
    ) -> Result<i128> {
        let map = self.maps.get(&a.0).ok_or(PimError::UnknownObject(a))?;
        let mut total = 0i128;
        for r in &map.ranges {
            let s = start.max(r.start);
            let e = end.min(r.end);
            if s >= e {
                continue;
            }
            let obj = self.shards[r.shard].rm.get(a)?;
            let Some(data) = obj.data.as_deref() else {
                return Ok(0);
            };
            let ls = (r.local_start + (s - r.start)) as usize;
            total += par_sum(&data[ls..ls + (e - s) as usize], dtype);
        }
        Ok(total)
    }

    /// Runs a batched sweep shard-locally. Requires every slot to share
    /// the destination's shard map (the device falls back to
    /// per-command execution otherwise); each shard then runs the exact
    /// chunk-local program of the unsharded batch over its own element
    /// range, which is bit-identical because every step is positionwise.
    ///
    /// # Errors
    ///
    /// [`PimError::UnknownObject`] if a written slot died mid-batch
    /// (impossible for validated streams).
    pub(crate) fn exec_batch(
        &mut self,
        slots: &[ObjId],
        steps: &[crate::cmd::BatchStep],
        dst0: ObjId,
    ) -> Result<()> {
        if !self.functional {
            return Ok(());
        }
        Self::on_shards(&mut self.shards, |_s, shard| {
            let n = match shard.rm.get(dst0) {
                Ok(obj) => obj.count as usize,
                Err(_) => return Ok(()),
            };
            let finals: Vec<(ObjId, Vec<i64>)> = {
                let initial: Vec<Option<&[i64]>> = slots
                    .iter()
                    .map(|&id| shard.rm.get(id).expect("validated").data.as_deref())
                    .collect();
                let chunk_results = exec::par_chunks(n, |r| {
                    let (start, len) = (r.start, r.len());
                    let mut local: Vec<Option<Vec<i64>>> = vec![None; slots.len()];
                    for i in r {
                        for step in steps {
                            let mut args = [0i64; 4];
                            for (j, &(slot, from_local)) in step.ins.iter().enumerate() {
                                args[j] = if from_local {
                                    local[slot].as_ref().expect("written by an earlier step")
                                        [i - start]
                                } else {
                                    initial[slot].expect("functional object has data")[i]
                                };
                            }
                            let v =
                                crate::cmd::eval(step.kind, step.dtype, &args[..step.ins.len()]);
                            local[step.dst].get_or_insert_with(|| vec![0; len])[i - start] = v;
                        }
                    }
                    local
                });
                let written: Vec<usize> = {
                    let mut seen = std::collections::BTreeSet::new();
                    steps
                        .iter()
                        .map(|s| s.dst)
                        .filter(|&d| seen.insert(d))
                        .collect()
                };
                let mut finals = Vec::with_capacity(written.len());
                for s in written {
                    let mut buf = Vec::with_capacity(n);
                    for chunk in &chunk_results {
                        buf.extend_from_slice(
                            chunk[s].as_ref().expect("every chunk runs every step"),
                        );
                    }
                    finals.push((slots[s], buf));
                }
                finals
            };
            for (id, buf) in finals {
                shard.rm.get_mut(id)?.data = Some(buf);
            }
            Ok(())
        })
    }

    // ------------------------------------------------------------------
    // Timing backends
    // ------------------------------------------------------------------

    /// The timing backend every shard of this system charges through.
    pub fn timing_backend(&self) -> TimingBackend {
        self.shards
            .first()
            .map(|s| s.timing.backend())
            .unwrap_or_default()
    }

    /// Shards holding at least one element of `costed`, ascending; shard
    /// 0 when unmapped or single-shard (whole-device attribution).
    fn holders_of(&self, costed: ObjId) -> Vec<usize> {
        if self.shards.len() > 1 {
            if let Some(map) = self.maps.get(&costed.0) {
                let holders: Vec<usize> = map
                    .counts
                    .iter()
                    .enumerate()
                    .filter(|&(_, &c)| c > 0)
                    .map(|(s, _)| s)
                    .collect();
                if !holders.is_empty() {
                    return holders;
                }
            }
        }
        vec![0]
    }

    /// Prices one command through the timing backends of every shard
    /// holding `costed`, in ascending shard order (deterministic at any
    /// thread count). Shards execute the broadcast in lockstep, so each
    /// holder charges the full per-core demand and the aggregate is the
    /// slowest holder — which keeps the aggregate shard-count-invariant.
    /// Protocol counters each backend issues are recorded into that
    /// shard's ledger; the merged delta is returned for the aggregate
    /// ledger.
    pub(crate) fn price_with_backends<F>(
        &mut self,
        costed: ObjId,
        mut price: F,
    ) -> (OpCost, TimingCounters)
    where
        F: FnMut(&mut dyn TimingModel) -> OpCost,
    {
        let mut agg: Option<OpCost> = None;
        let mut delta = TimingCounters::default();
        for s in self.holders_of(costed) {
            let shard = &mut self.shards[s];
            let before = shard.timing.counters();
            let cost = price(shard.timing.as_mut());
            let d = shard.timing.counters().delta_since(&before);
            if !d.is_empty() {
                shard.stats.record_protocol(&d);
            }
            delta.merge(&d);
            agg = Some(match agg {
                None => cost,
                Some(prev) if cost.time_ms > prev.time_ms => cost,
                Some(prev) => prev,
            });
        }
        (agg.unwrap_or_default(), delta)
    }

    /// Charges one host↔device copy of `represented_bytes` through the
    /// holders' timing backends (bandwidth-bound in both backends; the
    /// critical path is the same on every holder) and replays the
    /// protocol stream for counters. Returns the copy time in ms, the
    /// replay for the trace (stateful backends always replay so counters
    /// and state agree; the stateless backend replays only when
    /// `want_replay`, preserving its historical trace-only counters),
    /// and the merged counter delta for the aggregate ledger.
    pub(crate) fn charge_copy_with_backends(
        &mut self,
        obj: ObjId,
        represented_bytes: u64,
        functional_bytes: u64,
        ranks: usize,
        want_replay: bool,
    ) -> (f64, Option<CopyReplay>, TimingCounters) {
        let mut time_ms: Option<f64> = None;
        let mut replay: Option<CopyReplay> = None;
        let mut delta = TimingCounters::default();
        for s in self.holders_of(obj) {
            let shard = &mut self.shards[s];
            let t = shard.timing.charge_host_copy(represented_bytes, ranks);
            time_ms = Some(match time_ms {
                None => t,
                Some(prev) => prev.max(t),
            });
            let stateful = shard.timing.backend() != TimingBackend::Analytical;
            if stateful || (want_replay && replay.is_none()) {
                let before = shard.timing.counters();
                let r = shard.timing.copy_replay(functional_bytes);
                let d = shard.timing.counters().delta_since(&before);
                if !d.is_empty() {
                    shard.stats.record_protocol(&d);
                }
                delta.merge(&d);
                replay.get_or_insert(r);
            }
        }
        (time_ms.unwrap_or(0.0), replay, delta)
    }

    /// Drains every shard's timing backend (closes all open rows) and
    /// returns the longest per-shard drain time in ms.
    pub(crate) fn drain_backends(&mut self) -> f64 {
        let mut worst_ns = 0.0f64;
        for shard in &mut self.shards {
            worst_ns = worst_ns.max(shard.timing.drain());
        }
        worst_ns * 1e-6
    }

    // ------------------------------------------------------------------
    // Per-shard cost distribution
    // ------------------------------------------------------------------

    /// Splits a charge's `whole` across the shards holding `id`,
    /// proportionally to each shard's element count, into `out` (cleared
    /// first; left empty on single-shard devices or unmapped objects).
    /// The last non-empty shard absorbs the rounding remainder, so the
    /// shares sum to the whole: bytes exactly (u128 integer split), time
    /// and energy up to float re-association. Each share carries the
    /// object's shard-local core count.
    pub(crate) fn split(&self, id: ObjId, whole: Part, out: &mut Vec<(usize, Part)>) {
        out.clear();
        if self.shards.len() <= 1 {
            return;
        }
        let Some(map) = self.maps.get(&id.0) else {
            return;
        };
        let Some(last) = map.counts.iter().rposition(|&c| c > 0) else {
            return;
        };
        let total: u64 = map.counts.iter().sum();
        let (mut acc_b, mut acc_t, mut acc_e) = (0u64, 0.0f64, 0.0f64);
        for (s, &c) in map.counts.iter().enumerate().filter(|&(_, &c)| c > 0) {
            let (bytes, time_ms, energy_mj) = if s == last {
                (
                    whole.bytes - acc_b,
                    (whole.cost.time_ms - acc_t).max(0.0),
                    (whole.cost.energy_mj - acc_e).max(0.0),
                )
            } else {
                let frac = c as f64 / total as f64;
                (
                    (whole.bytes as u128 * c as u128 / total as u128) as u64,
                    whole.cost.time_ms * frac,
                    whole.cost.energy_mj * frac,
                )
            };
            acc_b += bytes;
            acc_t += time_ms;
            acc_e += energy_mj;
            let cores_used = self.shards[s]
                .rm
                .get(id)
                .map(|o| o.layout.cores_used)
                .unwrap_or(0);
            out.push((
                s,
                Part {
                    cost: OpCost { time_ms, energy_mj },
                    bytes,
                    cores_used,
                },
            ));
        }
    }

    /// Folds each of `charge`'s shard shares into that shard's ledger.
    pub(crate) fn post_shares(&mut self, charge: &Charge) {
        for &(s, part) in &charge.shares {
            self.shards[s].stats.post(charge, part);
        }
    }

    /// Critical-path and total byte loads of scattering/gathering `id`:
    /// `(busiest shard's bytes, all bytes)`.
    pub(crate) fn shard_byte_split(&self, id: ObjId) -> (u64, u64) {
        let Ok(obj) = self.meta.get(id) else {
            return (0, 0);
        };
        let bpe = (obj.dtype.bits() as u64 / 8).max(1);
        match self.maps.get(&id.0) {
            Some(map) => {
                let max_c = map.counts.iter().copied().max().unwrap_or(0);
                (max_c * bpe, obj.count * bpe)
            }
            None => (obj.count * bpe, obj.count * bpe),
        }
    }

    /// Snapshot of catalog-level and per-shard resource usage
    /// (per-shard rows are populated only when more than one shard
    /// exists).
    pub(crate) fn resource_stats(&self) -> ResourceStats {
        let per_shard = if self.shards.len() > 1 {
            self.shards
                .iter()
                .map(|s| ShardResourceStats {
                    rows_in_use: s.rm.rows_in_use(),
                    peak_rows: s.rm.peak_rows(),
                    rows_capacity: s.rm.rows_capacity(),
                    live_objects: s.rm.live_objects() as u64,
                })
                .collect()
        } else {
            Vec::new()
        };
        ResourceStats {
            rows_in_use: self.meta.rows_in_use(),
            peak_rows: self.meta.peak_rows(),
            rows_capacity: self.meta.rows_capacity(),
            live_objects: self.meta.live_objects() as u64,
            shards: self.shards.len() as u64,
            per_shard,
        }
    }

    /// Clears every shard's statistics sub-ledger and resets its timing
    /// backend to a fresh (all-banks-closed) state.
    pub(crate) fn reset_shard_stats(&mut self) {
        for shard in &mut self.shards {
            shard.stats = SimStats::new();
            shard.timing.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_partition(map: &ShardMap, count: u64) {
        let mut next = 0u64;
        let mut local_next = vec![0u64; map.shard_count()];
        for r in map.ranges() {
            assert_eq!(r.start, next, "ranges must tile [0, count) in order");
            assert!(r.end > r.start);
            assert_eq!(r.local_start, local_next[r.shard]);
            local_next[r.shard] += r.end - r.start;
            next = r.end;
        }
        assert_eq!(next, count);
        for (s, &c) in map.counts().iter().enumerate() {
            assert_eq!(c, local_next[s], "counts must match range coverage");
        }
        assert_eq!(map.counts().iter().sum::<u64>(), count);
    }

    #[test]
    fn contiguous_map_partitions_on_unit_boundaries() {
        let map = ShardMap::compute(1000, 32, &[4, 4, 4, 4], ShardPolicy::Contiguous);
        assert_partition(&map, 1000);
        for r in &map.ranges()[..map.ranges().len() - 1] {
            assert_eq!(r.start % 32, 0, "splits must land on unit boundaries");
            assert_eq!(r.end % 32, 0, "splits must land on unit boundaries");
        }
    }

    #[test]
    fn contiguous_map_respects_weights() {
        let map = ShardMap::compute(64, 1, &[3, 1], ShardPolicy::Contiguous);
        assert_partition(&map, 64);
        assert_eq!(map.count_on(0), 48);
        assert_eq!(map.count_on(1), 16);
    }

    #[test]
    fn round_robin_deals_units_cyclically() {
        let map = ShardMap::compute(100, 10, &[1, 1, 1], ShardPolicy::RoundRobin);
        assert_partition(&map, 100);
        // 10 units of 10 elements: shards get 4, 3, 3 units.
        assert_eq!(map.count_on(0), 40);
        assert_eq!(map.count_on(1), 30);
        assert_eq!(map.count_on(2), 30);
    }

    #[test]
    fn both_policies_coincide_for_one_shard() {
        let contiguous = ShardMap::compute(12345, 64, &[8], ShardPolicy::Contiguous);
        let rr = ShardMap::compute(12345, 64, &[8], ShardPolicy::RoundRobin);
        assert_eq!(contiguous, rr);
        assert_eq!(contiguous.ranges().len(), 1);
        assert_eq!(contiguous.count_on(0), 12345);
    }

    #[test]
    fn tiny_objects_leave_trailing_shards_empty() {
        let map = ShardMap::compute(5, 32, &[2, 2, 2, 2], ShardPolicy::Contiguous);
        assert_partition(&map, 5);
        assert_eq!(map.ranges().len(), 1, "one unit cannot split");
        let nonempty = map.counts().iter().filter(|&&c| c > 0).count();
        assert_eq!(nonempty, 1);
    }

    #[test]
    fn partial_final_unit_is_clamped_to_count() {
        let map = ShardMap::compute(65, 32, &[1, 1], ShardPolicy::Contiguous);
        assert_partition(&map, 65);
        // 3 units; shard 0 gets ⌊3·1/2⌋ = 1 unit, shard 1 the rest.
        assert_eq!(map.count_on(0), 32);
        assert_eq!(map.count_on(1), 33);
    }

    #[test]
    fn interconnect_model_charges_critical_path_time_and_total_energy() {
        let config = DeviceConfig::new(crate::config::PimTarget::Fulcrum, 2);
        let ic = InterconnectModel::from_config(&config);
        let ms = ic.transfer_ms(25_600_000);
        assert!((ms - 1.0).abs() < 1e-9, "25.6 MB at 25.6 GB/s is 1 ms");
        let mj = ic.energy_mj(1_000_000);
        assert!((mj - 1_000_000.0 * 8.0 * 0.015 * 1e-9).abs() < 1e-15);
    }

    #[test]
    fn split_even_sums_to_total() {
        for total in [0usize, 1, 7, 8, 8192] {
            for n in 1..=5 {
                let sum: usize = (0..n).map(|i| split_even(total, n, i)).sum();
                assert_eq!(sum, total);
            }
        }
    }
}
