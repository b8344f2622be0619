//! `imufit-trace`: the testbed's black-box flight recorder.
//!
//! The 1 Hz `FlightRecorder` and the aggregate counters of `imufit-obs`
//! explain *outcomes*; this crate captures the *causal chain* behind each
//! outcome — fault activation → detector edge → voter exclusion → cascade
//! stage → bubble violation → failsafe — at full simulation rate, without
//! perturbing results.
//!
//! # Model
//!
//! * [`TraceRecord`] — one full-rate snapshot per tick: estimator residual
//!   test ratios, per-instance IMU readings plus the delta the injector
//!   added, voter verdicts, cascade stage, bubble radii/margins.
//! * [`TraceRing`] — a fixed-capacity ring the records flow through; it
//!   runs for the whole flight and costs nothing but the copy.
//! * [`TraceEvent`] — a causally-linked edge stream: each event carries the
//!   id of the event that (transitively) triggered it, so a post-mortem can
//!   walk from a run outcome back to the fault that caused it.
//! * **Anomaly-triggered capture** — on a trigger (detector rising edge,
//!   voter exclusion, bubble violation, failsafe, panic) the surrounding
//!   pre/post window is frozen out of the ring into a segment; segments and
//!   events serialize into a compact, length-prefixed, versioned,
//!   CRC-checked `.ifbb` black-box file ([`BlackBox`]).
//! * [`triage`] — pure analysis over decoded black boxes: causal timelines,
//!   fault-to-detection / detection-to-mitigation latency tables per
//!   campaign cell, and faulty-vs-gold diffs (the `triage` binary's core).
//!
//! # Non-interference
//!
//! Like `imufit-obs`, the collector is strictly write-only from the
//! simulation's point of view: it consumes no RNG, and nothing it stores is
//! ever read back into simulation state. Without the `enabled` feature
//! [`TraceCollector`] is a zero-sized struct whose every method is an
//! inlined no-op, and a traced campaign produces byte-identical
//! `campaign_results.csv` output either way.

#![forbid(unsafe_code)]

pub mod event;
pub mod record;
pub mod ring;
pub mod settings;
pub mod triage;
pub mod wire;

/// True when this build carries the live collector (the `enabled`
/// feature). Cargo unifies features per build, so a dependent crate's own
/// `cfg!(feature = "trace")` can disagree with what the collector actually
/// does; code that needs to know whether black boxes get written asks here.
pub const ENABLED: bool = cfg!(feature = "enabled");

#[cfg(feature = "enabled")]
mod collector;
#[cfg(feature = "enabled")]
pub use collector::TraceCollector;

#[cfg(not(feature = "enabled"))]
mod stub;
#[cfg(not(feature = "enabled"))]
pub use stub::TraceCollector;

pub use event::{TraceEvent, TraceEventKind};
pub use record::{ImuInstanceTrace, TraceRecord};
pub use ring::TraceRing;
pub use settings::{TraceSettings, TraceTrigger};
pub use wire::{BlackBox, TraceError, TraceSegment, IFBB_MAGIC, IFBB_VERSION};

/// Capture accounting for one run, read out by the campaign worker and fed
/// to the `imufit-obs` counters (`trace_records_captured_total`, ...).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Records frozen into capture segments.
    pub records_captured: u64,
    /// Full-rate records that fell off the ring without being captured.
    pub records_dropped: u64,
    /// Events recorded.
    pub events: u64,
    /// Capture segments sealed (or in flight).
    pub segments: u64,
}
