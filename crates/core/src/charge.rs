//! The one record every modeled cost travels in.
//!
//! Each charge site in [`crate::Device`] builds a [`Charge`] and posts it
//! once; the aggregate [`crate::SimStats`], the per-shard sub-ledgers, the
//! metrics registry and the trace are folds over that record, driven by
//! the device's single simulated clock. No sink computes its own share
//! or keeps its own clock, so they cannot drift apart.

use std::sync::Arc;

use pim_dram::TimingCounters;

use crate::model::OpCost;
use crate::ops::OpCategory;
use crate::trace::{CopyDirection, MicroCounters, ProtocolCounters};

/// What a charge was for. The `micro` and `replay` payloads only feed
/// the trace and are computed only while it is on.
#[derive(Debug)]
pub(crate) enum ChargeKind {
    /// One PIM command (or ranged reduction) and its statistics key,
    /// e.g. `add.int32`, interned per device.
    Cmd {
        name: Arc<str>,
        category: OpCategory,
        micro: Option<MicroCounters>,
    },
    /// One host↔device or device↔device copy.
    Copy {
        direction: CopyDirection,
        replay: Option<ProtocolCounters>,
    },
    /// One cross-shard interconnect transfer; it never advances the
    /// simulated clock.
    Interconnect(InterconnectKind),
    /// One modeled host-execution phase.
    Host,
}

/// Cross-shard transfer kinds, one [`crate::InterconnectStats`] byte
/// counter each: host-to-device scatter, device-to-host gather,
/// realigning an operand whose shard map differs from the destination's,
/// and combining per-shard reduction partials.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum InterconnectKind {
    Scatter,
    Gather,
    Realign,
    Combine,
}

impl InterconnectKind {
    /// Stable label used in trace and metrics exports.
    pub(crate) fn label(self) -> &'static str {
        match self {
            InterconnectKind::Scatter => "scatter",
            InterconnectKind::Gather => "gather",
            InterconnectKind::Realign => "realign",
            InterconnectKind::Combine => "combine",
        }
    }
}

/// What one ledger accumulates: the whole charge, or one shard's
/// proportional share of it. `bytes` is 0 for commands, and only
/// commands read `cores_used`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct Part {
    pub(crate) cost: OpCost,
    pub(crate) bytes: u64,
    pub(crate) cores_used: usize,
}

/// One typed charge.
#[derive(Debug)]
pub(crate) struct Charge {
    pub(crate) kind: ChargeKind,
    /// Device-level totals.
    pub(crate) whole: Part,
    /// Protocol counters the timing backends issued while pricing it
    /// (the pricer already recorded each shard's own delta).
    pub(crate) protocol: TimingCounters,
    /// `(shard, share)` pairs in ascending shard order, from
    /// `PimSystem::split`; empty when the device has one shard or the
    /// charge has no shard map.
    pub(crate) shares: Vec<(usize, Part)>,
}

impl Charge {
    /// A device-level charge with no shard shares or protocol counters.
    pub(crate) fn new(kind: ChargeKind, cost: OpCost, bytes: u64) -> Charge {
        let whole = Part {
            cost,
            bytes,
            cores_used: 0,
        };
        Charge {
            kind,
            whole,
            protocol: TimingCounters::default(),
            shares: Vec::new(),
        }
    }
}
