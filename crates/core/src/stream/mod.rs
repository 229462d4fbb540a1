//! The deferred command stream and its dataflow optimizer.
//!
//! [`CommandStream`] defers issue: commands are *recorded* and only run
//! at [`CommandStream::flush`], which first optimizes the recorded
//! program and then executes adjacent same-length element-wise commands
//! in one batched parallel sweep. The optimization pipeline depends on
//! the [`OptLevel`] (device config `opt`,
//! `PIM_OPT` env, or [`CommandStream::set_opt`]):
//!
//! * **Level 0** — the legacy peephole: dead-write elimination plus
//!   adjacent-pair mul+add → [`OpKind::ScaledAdd`](crate::OpKind) and
//!   cmp+select → [`OpKind::FusedCmpSelect`](crate::OpKind) fusion.
//! * **Level 1** (default) — builds the SSA-style dataflow graph
//!   (`graph`) and runs the rewrites in `passes`: fusion across
//!   non-adjacent commands, value-numbering CSE, and whole-stream
//!   dead-object elimination.
//! * **Level 2** — level 1 plus [`place`]: subgraph partitioning with
//!   cost-driven target, layout, and shard-policy inference (advisory;
//!   see [`crate::Device::placement_plan`]).
//!
//! Functional results are bit-identical to eager issue at every level
//! (fusion preserves per-element semantics including intermediate
//! truncation; CSE only replaces values that are provably already
//! materialized), and the charged cost is never higher than the legacy
//! peephole's, because rewrites only remove commands or substitute a
//! copy the cost model prices no higher.
//!
//! One documented deviation: a temporary that only carried a fused-away
//! intermediate (the product of a `mul_scalar` or a comparison bitmap)
//! is never written, so its buffer contents after a flush are
//! unspecified. The rewrites only fire when no recorded command reads
//! that temporary afterward.
//!
//! Sharding composes transparently with the stream: the optimizer runs
//! *before* the shard split, on whole commands over whole objects.
//! Only when a (possibly fused or batched) command reaches
//! [`crate::Device::issue`] does [`crate::PimSystem`] cut it along each
//! object's [`crate::ShardMap`] and fan the pieces out — so optimizer
//! decisions never depend on the shard count, and an optimized program
//! on a sharded device is bit-identical to the eager single-shard run
//! (enforced by the `shard_equivalence` suite).

pub(crate) mod graph;
pub(crate) mod passes;
pub mod place;

use pim_microcode::gen::{BinaryOp, CmpOp};

use crate::cmd::PimCommand;
use crate::config::OptLevel;
use crate::device::Device;
use crate::error::Result;
use crate::object::ObjId;
use crate::ops::OpKind;
use crate::pim_debug;

pub use place::{PlacementPlan, SubgraphPlan};

/// What one [`CommandStream::flush`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlushSummary {
    /// Commands recorded since the previous flush.
    pub recorded: u64,
    /// Commands executed after the optimization passes.
    pub executed: u64,
    /// mul+add pairs rewritten to [`OpKind::ScaledAdd`].
    pub fused_scaled_add: u64,
    /// cmp+select pairs rewritten to [`OpKind::FusedCmpSelect`].
    pub fused_cmp_select: u64,
    /// Commands removed because their output was overwritten unread.
    pub dead_writes_eliminated: u64,
    /// Batched parallel sweeps over runs of same-length commands.
    pub batched_sweeps: u64,
    /// Commands executed inside those sweeps.
    pub batched_commands: u64,
    /// Value-numbering CSE hits (levels 1+): recomputes deleted or
    /// rewritten to copies.
    pub cse_hits: u64,
    /// Commands the graph pipeline removed as dead (levels 1+).
    pub dead_objects_removed: u64,
    /// Placement subgraphs priced (level 2).
    pub subgraphs: u64,
    /// Adjacent placement subgraphs assigned different targets (level 2).
    pub target_switches: u64,
    /// Objects whose placement-inferred layout differs from their
    /// current layout (level 2).
    pub inferred_layouts: u64,
}

/// A deferred command recorder bound to one device.
///
/// Obtained from [`Device::stream`]; record operations with the same
/// argument order as the eager `Device` methods, then call
/// [`CommandStream::flush`] to optimize and run them. Dropping a stream
/// with unflushed commands discards them (with a debug log) — flushing
/// is always explicit.
///
/// # Example
///
/// ```
/// use pimeval::{DataType, Device};
///
/// # fn main() -> Result<(), pimeval::PimError> {
/// let mut dev = Device::fulcrum(1)?;
/// let x = dev.alloc_vec(&[1i32, 2, 3, 4])?;
/// let y = dev.alloc_vec(&[10i32, 20, 30, 40])?;
/// let t = dev.alloc_associated(x, DataType::Int32)?;
/// let out = dev.alloc_associated(x, DataType::Int32)?;
///
/// let mut stream = dev.stream();
/// stream.mul_scalar(x, 7, t).add(t, y, out);
/// let summary = stream.flush()?;
/// drop(stream);
/// assert_eq!(summary.fused_scaled_add, 1);
/// assert_eq!(dev.to_vec::<i32>(out)?, vec![17, 34, 51, 68]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct CommandStream<'d> {
    dev: &'d mut Device,
    pending: Vec<PimCommand>,
    opt: Option<OptLevel>,
}

macro_rules! record2 {
    ($($(#[$doc:meta])* $name:ident => $kind:expr;)*) => {
        $($(#[$doc])*
        pub fn $name(&mut self, a: ObjId, b: ObjId, dst: ObjId) -> &mut Self {
            self.record(PimCommand::elementwise2($kind, a, b, dst))
        })*
    };
}

macro_rules! record_scalar {
    ($($(#[$doc:meta])* $name:ident => $kind:expr;)*) => {
        $($(#[$doc])*
        pub fn $name(&mut self, a: ObjId, k: i64, dst: ObjId) -> &mut Self {
            self.record(PimCommand::elementwise1($kind(k), a, dst))
        })*
    };
}

impl<'d> CommandStream<'d> {
    pub(crate) fn new(dev: &'d mut Device) -> CommandStream<'d> {
        CommandStream {
            dev,
            pending: Vec::new(),
            opt: None,
        }
    }

    /// Overrides the device's configured optimization level for this
    /// stream's flushes.
    pub fn set_opt(&mut self, level: OptLevel) -> &mut Self {
        self.opt = Some(level);
        self
    }

    /// The optimization level the next flush will run at.
    pub fn opt_level(&self) -> OptLevel {
        self.opt.unwrap_or(self.dev.config().opt)
    }

    /// Appends an arbitrary command.
    pub fn record(&mut self, cmd: PimCommand) -> &mut Self {
        self.pending.push(cmd);
        self
    }

    /// The commands recorded so far (cleared by [`CommandStream::flush`]).
    pub fn pending(&self) -> &[PimCommand] {
        &self.pending
    }

    record2! {
        /// Records `dst = a + b`.
        add => OpKind::Binary(BinaryOp::Add);
        /// Records `dst = a - b`.
        sub => OpKind::Binary(BinaryOp::Sub);
        /// Records `dst = a * b`.
        mul => OpKind::Binary(BinaryOp::Mul);
        /// Records `dst = a & b`.
        and => OpKind::Binary(BinaryOp::And);
        /// Records `dst = a | b`.
        or => OpKind::Binary(BinaryOp::Or);
        /// Records `dst = a ^ b`.
        xor => OpKind::Binary(BinaryOp::Xor);
        /// Records `dst = min(a, b)`.
        min => OpKind::Min;
        /// Records `dst = max(a, b)`.
        max => OpKind::Max;
        /// Records `dst = (a < b) ? 1 : 0`.
        lt => OpKind::Cmp(CmpOp::Lt);
        /// Records `dst = (a > b) ? 1 : 0`.
        gt => OpKind::Cmp(CmpOp::Gt);
        /// Records `dst = (a == b) ? 1 : 0`.
        eq => OpKind::Cmp(CmpOp::Eq);
    }

    record_scalar! {
        /// Records `dst = a + k`.
        add_scalar => |k| OpKind::BinaryScalar(BinaryOp::Add, k);
        /// Records `dst = a - k`.
        sub_scalar => |k| OpKind::BinaryScalar(BinaryOp::Sub, k);
        /// Records `dst = a * k`.
        mul_scalar => |k| OpKind::BinaryScalar(BinaryOp::Mul, k);
        /// Records `dst = min(a, k)`.
        min_scalar => OpKind::MinScalar;
        /// Records `dst = max(a, k)`.
        max_scalar => OpKind::MaxScalar;
    }

    /// Records `dst = !a`.
    pub fn not(&mut self, a: ObjId, dst: ObjId) -> &mut Self {
        self.record(PimCommand::elementwise1(OpKind::Not, a, dst))
    }

    /// Records `dst = |a|`.
    pub fn abs(&mut self, a: ObjId, dst: ObjId) -> &mut Self {
        self.record(PimCommand::elementwise1(OpKind::Abs, a, dst))
    }

    /// Records a per-element popcount.
    pub fn popcount(&mut self, a: ObjId, dst: ObjId) -> &mut Self {
        self.record(PimCommand::elementwise1(OpKind::Popcount, a, dst))
    }

    /// Records `dst = a << k`.
    pub fn shift_left(&mut self, a: ObjId, k: u32, dst: ObjId) -> &mut Self {
        self.record(PimCommand::elementwise1(OpKind::ShiftL(k), a, dst))
    }

    /// Records `dst = a >> k`.
    pub fn shift_right(&mut self, a: ObjId, k: u32, dst: ObjId) -> &mut Self {
        self.record(PimCommand::elementwise1(OpKind::ShiftR(k), a, dst))
    }

    /// Records `dst = cond ? a : b`.
    pub fn select(&mut self, cond: ObjId, a: ObjId, b: ObjId, dst: ObjId) -> &mut Self {
        self.record(PimCommand::select(cond, a, b, dst))
    }

    /// Records `dst = a * k + b` as an already-fused command.
    pub fn scaled_add(&mut self, a: ObjId, b: ObjId, dst: ObjId, k: i64) -> &mut Self {
        self.record(PimCommand::scaled_add(a, b, dst, k))
    }

    /// Records a fill of `dst` with `value`.
    pub fn broadcast(&mut self, dst: ObjId, value: i64) -> &mut Self {
        self.record(PimCommand::broadcast(dst, value))
    }

    /// Records a device-to-device copy.
    pub fn copy_object(&mut self, src: ObjId, dst: ObjId) -> &mut Self {
        self.record(PimCommand::copy(src, dst))
    }

    /// Flushes pending commands, then runs an eager reduction sum.
    ///
    /// # Errors
    ///
    /// Flush or reduction errors.
    pub fn red_sum(&mut self, a: ObjId) -> Result<i128> {
        self.flush()?;
        self.dev.red_sum(a)
    }

    /// Flushes pending commands, then runs an eager reduction minimum.
    ///
    /// # Errors
    ///
    /// Flush or reduction errors.
    pub fn red_min(&mut self, a: ObjId) -> Result<i64> {
        self.flush()?;
        self.dev.red_min(a)
    }

    /// Flushes pending commands, then runs an eager reduction maximum.
    ///
    /// # Errors
    ///
    /// Flush or reduction errors.
    pub fn red_max(&mut self, a: ObjId) -> Result<i64> {
        self.flush()?;
        self.dev.red_max(a)
    }

    /// Optimizes and executes everything recorded since the last flush.
    ///
    /// Pass order: validation of every recorded command, then the
    /// level's optimization pipeline (see the module docs), then — at
    /// level 2 — the placement analysis, then execution: runs of two or
    /// more adjacent commands over objects with the same element count
    /// go through one batched parallel sweep; the rest execute singly.
    /// Each executed command is charged to the cost model exactly as an
    /// eager issue would be. The passes therefore only ever see
    /// well-formed commands, and a command they would eliminate still
    /// reports its error.
    ///
    /// # Errors
    ///
    /// The first invalid recorded command's error, the same error
    /// [`Device::issue`] returns for it. Validation runs before anything
    /// else, so on a validation error nothing executes, the device's
    /// buffers and statistics are unchanged, and the pending commands
    /// are cleared.
    pub fn flush(&mut self) -> Result<FlushSummary> {
        let mut cmds = std::mem::take(&mut self.pending);
        for cmd in &cmds {
            self.dev.validate_cmd(cmd)?;
        }
        let recorded = cmds.len() as u64;
        let level = self.opt_level();
        let outcome = match level {
            OptLevel::O0 => passes::run_peephole(self.dev, &mut cmds),
            OptLevel::O1 | OptLevel::O2 => passes::run_graph(self.dev, &mut cmds),
        };
        let mut summary = FlushSummary {
            recorded,
            executed: cmds.len() as u64,
            fused_scaled_add: outcome.fused_scaled_add,
            fused_cmp_select: outcome.fused_cmp_select,
            dead_writes_eliminated: outcome.dead_writes_eliminated,
            cse_hits: outcome.cse_hits,
            dead_objects_removed: outcome.dead_objects_removed,
            ..FlushSummary::default()
        };
        if level == OptLevel::O2 {
            let plan = place::plan(self.dev, &cmds);
            summary.subgraphs = plan.subgraphs.len() as u64;
            summary.target_switches = plan.target_switches;
            summary.inferred_layouts = plan.inferred_layouts;
            self.dev.set_placement_plan(plan);
        }
        let counts: Vec<Option<u64>> = cmds
            .iter()
            .map(|c| c.dst.and_then(|d| self.dev.object(d).ok().map(|o| o.count)))
            .collect();
        let mut i = 0;
        while i < cmds.len() {
            let mut j = i + 1;
            while j < cmds.len() && counts[j].is_some() && counts[j] == counts[i] {
                j += 1;
            }
            if counts[i].is_some() && j - i >= 2 {
                self.dev.exec_batch(&cmds[i..j])?;
                for cmd in &cmds[i..j] {
                    self.dev.charge_cmd(cmd)?;
                }
                summary.batched_sweeps += 1;
                summary.batched_commands += (j - i) as u64;
            } else {
                for cmd in &cmds[i..j] {
                    self.dev.exec_cmd(cmd)?;
                    self.dev.charge_cmd(cmd)?;
                }
            }
            i = j;
        }
        self.dev.finish_flush(&summary);
        Ok(summary)
    }
}

impl Drop for CommandStream<'_> {
    fn drop(&mut self) {
        if !self.pending.is_empty() {
            pim_debug!(
                "command stream dropped with {} unflushed command(s)",
                self.pending.len()
            );
        }
    }
}
