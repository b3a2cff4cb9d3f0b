//! The pluggable fault abstraction: [`FaultSource`].
//!
//! Section 4.2 of the paper calls for *active* preproduction data
//! collection: subject the service to "various failures" at controlled
//! types and rates while recording observed behaviour.  The scenario
//! runner used to consume faults only through a static, hand-scripted
//! [`InjectionPlan`]; this module makes the fault schedule a first-class
//! pluggable layer, mirroring the workload side's `TraceSource`:
//!
//! * [`ScriptedSource`] — wraps an [`InjectionPlan`] verbatim (the Table 1
//!   fault/fix-matrix experiments).  Byte-identical to the pre-trait
//!   runner.
//! * [`MixSource`] — seeded stochastic generation from a
//!   [`ServiceProfile`]'s [`CauseMix`](crate::CauseMix) at a configurable
//!   rate: the paper's Figure 1/2 failure demographics as a *generator*.
//! * [`CatalogSweep`] — one fault of every [`FixCatalog`] failure class at
//!   a fixed cadence, for FixSym training-coverage runs.
//! * [`ComposedSource`] — merges any set of sources tick-wise.
//!
//! Implementations must be deterministic: after [`FaultSource::reset`], the
//! same sequence of `due_at` calls must yield the same faults, so scenario
//! fingerprints stay reproducible and a fleet replica's fault stream is a
//! pure function of its seed — never of worker count or tick-slice width.
//!
//! # Implementing the trait
//!
//! ```
//! use selfheal_faults::FaultSource;
//! use selfheal_faults::{FaultId, FaultKind, FaultSpec, FaultTarget};
//!
//! /// The same buffer-contention fault every `period` ticks — the
//! /// simplest useful recurring source.
//! #[derive(Debug, Clone)]
//! struct Metronome {
//!     period: u64,
//!     strikes: u64,
//! }
//!
//! impl FaultSource for Metronome {
//!     fn due_at(&mut self, tick: u64) -> Vec<FaultSpec> {
//!         if tick > 0 && tick % self.period == 0 && tick / self.period <= self.strikes {
//!             vec![FaultSpec::new(
//!                 FaultId(tick),
//!                 FaultKind::BufferContention,
//!                 FaultTarget::DatabaseTier,
//!                 0.9,
//!             )]
//!         } else {
//!             Vec::new()
//!         }
//!     }
//!
//!     fn reset(&mut self) {}
//!
//!     fn clone_box(&self) -> Box<dyn FaultSource> {
//!         Box::new(self.clone())
//!     }
//!
//!     fn horizon(&self) -> u64 {
//!         self.period * self.strikes
//!     }
//! }
//!
//! let mut source = Metronome { period: 100, strikes: 3 };
//! assert_eq!(source.due_at(100).len(), 1);
//! assert!(source.due_at(101).is_empty());
//! assert_eq!(source.horizon(), 300);
//! ```

use crate::catalog::FixCatalog;
use crate::fault::{FaultId, FaultKind, FaultSpec};
use crate::id_space;
use crate::injection::{default_target, random_target, InjectionPlan};
use crate::mix::ServiceProfile;
use crate::operator::OperatorModel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// Id namespace for [`MixSource`]-generated faults, disjoint from scripted
/// plans (ids from 0), surge requests, and storm faults — see
/// [`crate::id_space`] for the lane manifest.
pub const MIX_FAULT_ID_BASE: u64 = id_space::lane_base(id_space::MIX_ID_BIT);

/// Id namespace for [`CatalogSweep`]-generated faults.
pub const SWEEP_FAULT_ID_BASE: u64 = id_space::lane_base(id_space::SWEEP_ID_BIT);

/// Id namespace for [`SeasonalSource`]-generated faults.
pub const SEASON_FAULT_ID_BASE: u64 = id_space::lane_base(id_space::SEASON_ID_BIT);

/// Id namespace for [`OperatorSource`]-generated faults.
pub const OPERATOR_FAULT_ID_BASE: u64 = id_space::lane_base(id_space::OPERATOR_ID_BIT);

/// A source of scheduled fault activations.
///
/// The scenario runner asks `due_at` once per tick, with `tick` advancing
/// monotonically from zero, and injects every returned spec at that tick.
/// Sources must be deterministic (a pure function of their configuration
/// and seed) and must return faults with ids unique within the run — each
/// shipped implementation draws from its own id namespace so sources
/// compose without collisions.
pub trait FaultSource: fmt::Debug + Send {
    /// The faults that become active exactly at `tick`.
    fn due_at(&mut self, tick: u64) -> Vec<FaultSpec>;

    /// Rewinds the source to its initial state so the fault stream replays
    /// from the first tick.
    fn reset(&mut self);

    /// Clones the source behind a box, preserving its current state.
    fn clone_box(&self) -> Box<dyn FaultSource>;

    /// The last tick at which this source can still schedule work
    /// (`u64::MAX` for unbounded sources) — quiesce detection runs a
    /// scenario past the horizon plus a healing tail, so keep it tight.
    fn horizon(&self) -> u64;
}

impl Clone for Box<dyn FaultSource> {
    fn clone(&self) -> Self {
        self.as_ref().clone_box()
    }
}

impl FaultSource for Box<dyn FaultSource> {
    fn due_at(&mut self, tick: u64) -> Vec<FaultSpec> {
        self.as_mut().due_at(tick)
    }

    fn reset(&mut self) {
        self.as_mut().reset();
    }

    fn clone_box(&self) -> Box<dyn FaultSource> {
        self.as_ref().clone_box()
    }

    fn horizon(&self) -> u64 {
        self.as_ref().horizon()
    }
}

// ---------------------------------------------------------------------------
// ScriptedSource
// ---------------------------------------------------------------------------

/// A hand-scripted fault schedule: an [`InjectionPlan`] behind the
/// [`FaultSource`] API.
///
/// Emits exactly the plan's faults at exactly the plan's ticks, so a
/// scripted run is byte-identical (same `ScenarioOutcome::fingerprint()`)
/// to the pre-trait runner that held the plan directly — `tests/faults.rs`
/// pins this equivalence.
#[derive(Debug, Clone, PartialEq)]
pub struct ScriptedSource {
    plan: InjectionPlan,
}

impl ScriptedSource {
    /// Wraps a plan.
    pub fn new(plan: InjectionPlan) -> Self {
        ScriptedSource { plan }
    }
}

impl From<InjectionPlan> for ScriptedSource {
    fn from(plan: InjectionPlan) -> Self {
        ScriptedSource::new(plan)
    }
}

impl FaultSource for ScriptedSource {
    fn due_at(&mut self, tick: u64) -> Vec<FaultSpec> {
        self.plan.due_at(tick).into_iter().cloned().collect()
    }

    fn reset(&mut self) {}

    fn clone_box(&self) -> Box<dyn FaultSource> {
        Box::new(self.clone())
    }

    fn horizon(&self) -> u64 {
        self.plan.horizon()
    }
}

// ---------------------------------------------------------------------------
// MixSource
// ---------------------------------------------------------------------------

/// Salt distinguishing [`MixSource`]'s per-tick stream from other
/// consumers of [`mix64`].
const MIX_TICK_SALT: u64 = 0x6A09_E667_F3BC_C909;

/// SplitMix64-style finalizer decorrelating a per-index decision stream
/// from a base seed (the same construction `sim::seeds::split_seed` uses);
/// `salt` separates independent consumers of the same `(seed, index)`
/// space.
pub(crate) fn mix64(seed: u64, index: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(salt);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Stochastic demographic fault generation: at every tick inside the active
/// window, a fault fires with probability `rate`, its kind drawn from the
/// service profile's cause mix (Figure 1 demographics → concrete Table 1
/// manifestations), its target drawn from the service topology, its
/// severity in `[0.4, 1.0]`.
///
/// Every tick's decision is derived from `(seed, tick)` alone, so the
/// stream is a pure function of the configuration: call order, worker
/// count, and tick-slice width cannot perturb it, and
/// [`reset`](FaultSource::reset) is free.  Fleet engines hand each replica a seed
/// split via `sim::seeds::split_seed(base, replica, SeedStream::Faults)`,
/// decorrelating sibling replicas' fault streams.
///
/// Fault ids are `id_base + tick` (at most one fault fires per tick), in
/// the [`MIX_FAULT_ID_BASE`] namespace by default.
#[derive(Debug, Clone, PartialEq)]
pub struct MixSource {
    profile: ServiceProfile,
    rate: f64,
    seed: u64,
    active_ticks: u64,
    ejb_count: usize,
    table_count: usize,
    index_count: usize,
    id_base: u64,
}

impl MixSource {
    /// Creates a mix source firing with probability `rate` per tick
    /// (clamped to `[0, 1]`), unbounded in time, over the workspace's
    /// default tiny topology (4 EJBs, 3 tables, 1 index).
    pub fn new(profile: ServiceProfile, rate: f64, seed: u64) -> Self {
        MixSource {
            profile,
            rate: rate.clamp(0.0, 1.0),
            seed,
            active_ticks: u64::MAX,
            ejb_count: 4,
            table_count: 3,
            index_count: 1,
            id_base: MIX_FAULT_ID_BASE,
        }
    }

    /// Restricts generation to ticks `[0, active_ticks)` so a finite run
    /// gets a quiet tail in which the healer can drain every open episode
    /// (and [`horizon`](FaultSource::horizon) becomes finite).
    pub fn active_for(mut self, active_ticks: u64) -> Self {
        self.active_ticks = active_ticks;
        self
    }

    /// Sets the service topology random targets are drawn from.
    pub fn with_topology(
        mut self,
        ejb_count: usize,
        table_count: usize,
        index_count: usize,
    ) -> Self {
        self.ejb_count = ejb_count.max(1);
        self.table_count = table_count.max(1);
        self.index_count = index_count.max(1);
        self
    }

    /// Overrides the fault-id namespace (composition helpers give each
    /// child source a distinct base so merged streams never collide).
    pub fn with_id_base(mut self, id_base: u64) -> Self {
        self.id_base = id_base;
        self
    }
}

impl FaultSource for MixSource {
    fn due_at(&mut self, tick: u64) -> Vec<FaultSpec> {
        if tick >= self.active_ticks || self.rate <= 0.0 {
            return Vec::new();
        }
        let mut rng = StdRng::seed_from_u64(mix64(self.seed, tick, MIX_TICK_SALT));
        if rng.gen_range(0.0..1.0) >= self.rate {
            return Vec::new();
        }
        let (cause, kind) = self.profile.sample_kind(&mut rng);
        let target = random_target(
            kind,
            self.ejb_count,
            self.table_count,
            self.index_count,
            &mut rng,
        );
        let severity = rng.gen_range(0.4..=1.0);
        vec![FaultSpec::new(FaultId(self.id_base + tick), kind, target, severity).with_cause(cause)]
    }

    fn reset(&mut self) {}

    fn clone_box(&self) -> Box<dyn FaultSource> {
        Box::new(self.clone())
    }

    fn horizon(&self) -> u64 {
        if self.active_ticks == u64::MAX {
            u64::MAX
        } else {
            self.active_ticks.saturating_sub(1)
        }
    }
}

// ---------------------------------------------------------------------------
// CatalogSweep
// ---------------------------------------------------------------------------

/// One fault of every [`FixCatalog`] failure class, injected at a fixed
/// cadence: class `i` (in [`FaultKind::ALL`] order, the catalog's own
/// ordering) fires at `start_tick + i * spacing_ticks`, targeted at the
/// class's natural component.
///
/// This is the FixSym *training-coverage* run: after one sweep, a learning
/// healer has met — and, given enough spacing, healed — every failure
/// signature the catalog describes.
#[derive(Debug, Clone, PartialEq)]
pub struct CatalogSweep {
    start_tick: u64,
    spacing_ticks: u64,
    severity: f64,
    id_base: u64,
    /// Cached at construction: rebuilding the catalog per tick would
    /// allocate every entry just to index one kind.
    kinds: Vec<FaultKind>,
}

impl CatalogSweep {
    /// Creates a sweep starting at `start_tick` with `spacing_ticks`
    /// between classes (minimum 1) and the scripted experiments' default
    /// severity of 0.9.
    pub fn new(start_tick: u64, spacing_ticks: u64) -> Self {
        CatalogSweep {
            start_tick,
            spacing_ticks: spacing_ticks.max(1),
            severity: 0.9,
            id_base: SWEEP_FAULT_ID_BASE,
            kinds: Self::kinds(),
        }
    }

    /// Overrides the severity of every injected fault.
    pub fn with_severity(mut self, severity: f64) -> Self {
        self.severity = severity.clamp(0.0, 1.0);
        self
    }

    /// Overrides the fault-id namespace.
    pub fn with_id_base(mut self, id_base: u64) -> Self {
        self.id_base = id_base;
        self
    }

    /// The failure classes swept, in injection order.
    pub fn kinds() -> Vec<FaultKind> {
        FixCatalog::standard().entries().map(|e| e.fault).collect()
    }
}

impl FaultSource for CatalogSweep {
    fn due_at(&mut self, tick: u64) -> Vec<FaultSpec> {
        if tick < self.start_tick || !(tick - self.start_tick).is_multiple_of(self.spacing_ticks) {
            return Vec::new();
        }
        let index = ((tick - self.start_tick) / self.spacing_ticks) as usize;
        let Some(kind) = self.kinds.get(index).copied() else {
            return Vec::new();
        };
        vec![FaultSpec::new(
            FaultId(self.id_base + index as u64),
            kind,
            default_target(kind, 0),
            self.severity,
        )]
    }

    fn reset(&mut self) {}

    fn clone_box(&self) -> Box<dyn FaultSource> {
        Box::new(self.clone())
    }

    fn horizon(&self) -> u64 {
        self.start_tick + (self.kinds.len() as u64 - 1) * self.spacing_ticks
    }
}

// ---------------------------------------------------------------------------
// ComposedSource
// ---------------------------------------------------------------------------

/// Merges any number of fault sources tick-wise: a tick's faults are the
/// concatenation of every child's faults at that tick, in child order.
///
/// Callers are responsible for keeping the children's fault-id namespaces
/// disjoint (use [`MixSource::with_id_base`] / [`CatalogSweep::with_id_base`]
/// when composing two sources of the same type; the declarative
/// `FaultChoice::Composed` recipe does this automatically).
#[derive(Debug, Clone, Default)]
pub struct ComposedSource {
    sources: Vec<Box<dyn FaultSource>>,
}

impl ComposedSource {
    /// An empty composition (a source that never fires).
    pub fn new() -> Self {
        ComposedSource::default()
    }

    /// Adds an already-boxed child source (builder style).
    pub fn with_boxed(mut self, source: Box<dyn FaultSource>) -> Self {
        self.sources.push(source);
        self
    }
}

impl FaultSource for ComposedSource {
    fn due_at(&mut self, tick: u64) -> Vec<FaultSpec> {
        self.sources
            .iter_mut()
            .flat_map(|source| source.due_at(tick))
            .collect()
    }

    fn reset(&mut self) {
        for source in &mut self.sources {
            source.reset();
        }
    }

    fn clone_box(&self) -> Box<dyn FaultSource> {
        Box::new(self.clone())
    }

    fn horizon(&self) -> u64 {
        self.sources
            .iter()
            .map(|source| source.horizon())
            .max()
            .unwrap_or(0)
    }
}

// ---------------------------------------------------------------------------
// SeasonalSource
// ---------------------------------------------------------------------------

/// Salt keying a [`SeasonalSource`]'s season-to-rate schedule draw.
const SEASON_SCHEDULE_SALT: u64 = 0xBB67_AE85_84CA_A73B;

/// Fault *seasons*: a [`MixSource`] whose per-tick rate is not constant but
/// a seeded, time-varying schedule.  Time is cut into fixed-length seasons
/// (`season_ticks` each); season `s` draws its rate from the configured
/// `rates` menu via a hash of `(schedule_seed, s)`, so calm and stormy
/// stretches alternate deterministically.
///
/// The schedule seed is deliberately separate from the per-tick draw seed:
/// a fleet hands every replica the *same* `schedule_seed` (seasons are
/// weather — fleet-wide phenomena) while per-replica draw seeds keep the
/// concrete faults decorrelated across replicas inside a shared season.
///
/// Like [`MixSource`], every decision derives from `(seed, tick)` alone —
/// call order, worker count, and slice width cannot perturb the stream, and
/// [`reset`](FaultSource::reset) is free.  Fault ids live in the
/// [`SEASON_FAULT_ID_BASE`] namespace by default.
#[derive(Debug, Clone, PartialEq)]
pub struct SeasonalSource {
    inner: MixSource,
    rates: Vec<f64>,
    season_ticks: u64,
    schedule_seed: u64,
    active_ticks: u64,
}

impl SeasonalSource {
    /// Creates a seasonal source over `profile` demographics: each season
    /// lasts `season_ticks` (minimum 1) and draws its per-tick rate from
    /// `rates` (empty menus get a single quiet 0.0 season).  `seed` keys
    /// the per-tick fault draws, `schedule_seed` keys the season schedule.
    pub fn new(
        profile: ServiceProfile,
        rates: Vec<f64>,
        season_ticks: u64,
        seed: u64,
        schedule_seed: u64,
    ) -> Self {
        let rates = if rates.is_empty() { vec![0.0] } else { rates };
        SeasonalSource {
            inner: MixSource::new(profile, 0.0, seed).with_id_base(SEASON_FAULT_ID_BASE),
            rates: rates.into_iter().map(|r| r.clamp(0.0, 1.0)).collect(),
            season_ticks: season_ticks.max(1),
            schedule_seed,
            active_ticks: u64::MAX,
        }
    }

    /// Restricts generation to ticks `[0, active_ticks)` so the horizon
    /// becomes finite and quiesce detection can bound the run.
    pub fn active_for(mut self, active_ticks: u64) -> Self {
        self.active_ticks = active_ticks;
        self
    }

    /// Sets the service topology random targets are drawn from.
    pub fn with_topology(
        mut self,
        ejb_count: usize,
        table_count: usize,
        index_count: usize,
    ) -> Self {
        self.inner = self
            .inner
            .with_topology(ejb_count, table_count, index_count);
        self
    }

    /// Overrides the fault-id namespace.
    pub fn with_id_base(mut self, id_base: u64) -> Self {
        self.inner = self.inner.with_id_base(id_base);
        self
    }

    /// The rate in force at `tick`: the schedule's draw for that season.
    pub(crate) fn rate_at(&self, tick: u64) -> f64 {
        let season = tick / self.season_ticks;
        let draw = mix64(self.schedule_seed, season, SEASON_SCHEDULE_SALT);
        self.rates[(draw % self.rates.len() as u64) as usize]
    }
}

impl FaultSource for SeasonalSource {
    fn due_at(&mut self, tick: u64) -> Vec<FaultSpec> {
        if tick >= self.active_ticks {
            return Vec::new();
        }
        self.inner.rate = self.rate_at(tick);
        self.inner.due_at(tick)
    }

    fn reset(&mut self) {}

    fn clone_box(&self) -> Box<dyn FaultSource> {
        Box::new(self.clone())
    }

    fn horizon(&self) -> u64 {
        if self.active_ticks == u64::MAX {
            u64::MAX
        } else {
            self.active_ticks.saturating_sub(1)
        }
    }
}

// ---------------------------------------------------------------------------
// OperatorSource
// ---------------------------------------------------------------------------

/// Salt distinguishing [`OperatorSource`]'s per-tick stream.
const OPERATOR_TICK_SALT: u64 = 0x3C6E_F372_FE94_F82B;

/// The `OperatorModel` as a live stimulus: at every tick inside the
/// active window, an operator performs a configuration action with
/// probability `action_rate`; the model decides whether that action is
/// botched (its `error_rate`) and, if so, which fault the mistake
/// manifests as.  The effective fault rate is therefore
/// `action_rate * error_rate`.
///
/// Decisions are a pure function of `(seed, tick)` — the same stateless
/// construction as [`MixSource`] — so the stream survives worker-count and
/// slice-width changes untouched.  Fault ids are `id_base + tick` in the
/// [`OPERATOR_FAULT_ID_BASE`] namespace by default.
#[derive(Debug, Clone, PartialEq)]
pub struct OperatorSource {
    model: OperatorModel,
    action_rate: f64,
    seed: u64,
    active_ticks: u64,
    id_base: u64,
}

impl OperatorSource {
    /// Creates an operator source performing actions with probability
    /// `action_rate` per tick (clamped to `[0, 1]`) under the standard
    /// `OperatorModel`, unbounded in time.
    pub fn new(action_rate: f64, seed: u64) -> Self {
        OperatorSource {
            model: OperatorModel::standard(),
            action_rate: action_rate.clamp(0.0, 1.0),
            seed,
            active_ticks: u64::MAX,
            id_base: OPERATOR_FAULT_ID_BASE,
        }
    }

    /// Restricts actions to ticks `[0, active_ticks)` (finite horizon).
    pub fn active_for(mut self, active_ticks: u64) -> Self {
        self.active_ticks = active_ticks;
        self
    }

    /// Overrides the fault-id namespace.
    pub fn with_id_base(mut self, id_base: u64) -> Self {
        self.id_base = id_base;
        self
    }
}

impl FaultSource for OperatorSource {
    fn due_at(&mut self, tick: u64) -> Vec<FaultSpec> {
        if tick >= self.active_ticks || self.action_rate <= 0.0 {
            return Vec::new();
        }
        let mut rng = StdRng::seed_from_u64(mix64(self.seed, tick, OPERATOR_TICK_SALT));
        if rng.gen_range(0.0..1.0) >= self.action_rate {
            return Vec::new();
        }
        self.model
            .perform_action(self.id_base + tick, &mut rng)
            .into_iter()
            .collect()
    }

    fn reset(&mut self) {}

    fn clone_box(&self) -> Box<dyn FaultSource> {
        Box::new(self.clone())
    }

    fn horizon(&self) -> u64 {
        if self.active_ticks == u64::MAX {
            u64::MAX
        } else {
            self.active_ticks.saturating_sub(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FailureCause, FaultTarget};
    use crate::injection::InjectionPlanBuilder;

    impl OperatorSource {
        /// Overrides the operator-behaviour model.
        pub(crate) fn with_model(mut self, model: OperatorModel) -> Self {
            self.model = model;
            self
        }
    }

    impl ComposedSource {
        /// Adds one child source (builder style).
        pub(crate) fn with(mut self, source: impl FaultSource + 'static) -> Self {
            self.sources.push(Box::new(source));
            self
        }

        /// Returns `true` when the composition has no children.
        pub(crate) fn is_empty(&self) -> bool {
            self.sources.is_empty()
        }
    }

    fn scripted() -> ScriptedSource {
        ScriptedSource::new(
            InjectionPlanBuilder::new()
                .inject(
                    30,
                    FaultKind::BufferContention,
                    FaultTarget::DatabaseTier,
                    0.9,
                )
                .inject(
                    10,
                    FaultKind::DeadlockedThreads,
                    FaultTarget::Ejb { index: 1 },
                    0.7,
                )
                .build(),
        )
    }

    #[test]
    fn scripted_source_mirrors_its_plan() {
        let mut source = scripted();
        assert_eq!(source.horizon(), 30);
        assert!(source.due_at(0).is_empty());
        assert_eq!(source.due_at(10)[0].kind, FaultKind::DeadlockedThreads);
        assert_eq!(source.due_at(30)[0].kind, FaultKind::BufferContention);
        source.reset();
        assert_eq!(source.due_at(10).len(), 1, "reset replays the schedule");
    }

    #[test]
    fn mix_source_is_deterministic_and_call_order_independent() {
        let mut a = MixSource::new(ServiceProfile::Online, 0.5, 7);
        let mut b = MixSource::new(ServiceProfile::Online, 0.5, 7);
        // b asks for ticks out of order and repeatedly; every answer must
        // still match a's monotonic sweep.
        let backwards: Vec<_> = (0..50).rev().flat_map(|t| b.due_at(t)).collect();
        let forwards: Vec<_> = (0..50).flat_map(|t| a.due_at(t)).collect();
        let mut backwards_sorted = backwards;
        backwards_sorted.sort_by_key(|f| f.id);
        assert_eq!(forwards, backwards_sorted);
        assert!(!forwards.is_empty(), "rate 0.5 over 50 ticks must fire");
    }

    #[test]
    fn mix_source_respects_its_window_and_topology() {
        let mut source = MixSource::new(ServiceProfile::Content, 1.0, 3)
            .active_for(20)
            .with_topology(2, 2, 1);
        assert_eq!(source.horizon(), 19);
        for tick in 0..200 {
            for fault in source.due_at(tick) {
                assert!(tick < 20, "no faults past the window");
                assert!(fault.id.0 >= MIX_FAULT_ID_BASE);
                match fault.target {
                    FaultTarget::Ejb { index } => assert!(index < 2),
                    FaultTarget::Table { index } => assert!(index < 2),
                    _ => {}
                }
                assert!((0.4..=1.0).contains(&fault.severity));
            }
        }
        assert!(source.due_at(20).is_empty());
    }

    #[test]
    fn mix_source_seeds_decorrelate() {
        let stream = |seed: u64| -> Vec<FaultSpec> {
            let mut source = MixSource::new(ServiceProfile::Online, 0.8, seed);
            (0..100).flat_map(|t| source.due_at(t)).collect()
        };
        assert_ne!(stream(1), stream(2), "different seeds, different streams");
        assert_eq!(stream(1), stream(1), "same seed, same stream");
    }

    #[test]
    fn mix_source_records_causes_for_demographics() {
        let mut source = MixSource::new(ServiceProfile::Online, 1.0, 11);
        let faults: Vec<_> = (0..2000).flat_map(|t| source.due_at(t)).collect();
        assert_eq!(faults.len(), 2000, "rate 1.0 fires every tick");
        let operator = faults
            .iter()
            .filter(|f| f.cause == FailureCause::Operator)
            .count();
        let expected = ServiceProfile::Online
            .cause_mix()
            .probability(FailureCause::Operator);
        let freq = operator as f64 / faults.len() as f64;
        assert!(
            (freq - expected).abs() < 0.05,
            "operator frequency {freq} vs configured {expected}"
        );
    }

    #[test]
    fn catalog_sweep_covers_every_failure_class_once() {
        let mut sweep = CatalogSweep::new(50, 10);
        let kinds = CatalogSweep::kinds();
        assert_eq!(kinds.len(), FaultKind::ALL.len());
        assert_eq!(sweep.horizon(), 50 + (kinds.len() as u64 - 1) * 10);
        let mut seen = Vec::new();
        for tick in 0..2000 {
            for fault in sweep.due_at(tick) {
                assert_eq!(tick, 50 + seen.len() as u64 * 10);
                assert_eq!(fault.severity, 0.9);
                assert!(fault.id.0 >= SWEEP_FAULT_ID_BASE);
                seen.push(fault.kind);
            }
        }
        assert_eq!(seen, kinds, "one fault per class, in catalog order");
    }

    #[test]
    fn composed_sources_merge_tick_wise() {
        let mut composed = ComposedSource::new()
            .with(scripted())
            .with(CatalogSweep::new(10, 500));
        let at_10 = composed.due_at(10);
        assert_eq!(at_10.len(), 2, "scripted fault + first sweep class");
        let mut ids: Vec<u64> = at_10.iter().map(|f| f.id.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 2, "disjoint id namespaces");
        assert_eq!(
            composed.horizon(),
            CatalogSweep::new(10, 500).horizon(),
            "horizon is the max over children"
        );
        composed.reset();
        assert_eq!(composed.due_at(10).len(), 2);
    }

    #[test]
    fn empty_composition_never_fires() {
        let mut empty = ComposedSource::new();
        assert!(empty.is_empty());
        assert_eq!(empty.horizon(), 0);
        assert!(empty.due_at(0).is_empty());
    }

    #[test]
    fn seasonal_source_varies_rate_by_season_deterministically() {
        let source = SeasonalSource::new(ServiceProfile::Online, vec![0.0, 0.6], 50, 7, 99);
        // The schedule is a pure function of (schedule_seed, season): the
        // rate is constant within a season and both menu entries appear
        // across enough seasons.
        let mut seen = Vec::new();
        for season in 0..32u64 {
            let rate = source.rate_at(season * 50);
            assert_eq!(rate, source.rate_at(season * 50 + 49));
            seen.push(rate);
        }
        assert!(seen.contains(&0.0), "some seasons must be calm");
        assert!(seen.contains(&0.6), "some seasons must be stormy");

        // Calm seasons produce no faults; the stream is replayable.
        let mut a = SeasonalSource::new(ServiceProfile::Online, vec![0.0, 0.6], 50, 7, 99);
        let mut b = a.clone();
        for tick in 0..1600 {
            let faults = a.due_at(tick);
            assert_eq!(faults, b.due_at(tick));
            if a.rate_at(tick) == 0.0 {
                assert!(faults.is_empty(), "calm season fired at tick {tick}");
            }
            for fault in &faults {
                assert!(fault.id.0 >= SEASON_FAULT_ID_BASE);
            }
        }
    }

    #[test]
    fn seasonal_source_respects_window_and_shares_schedule_across_seeds() {
        let mut source =
            SeasonalSource::new(ServiceProfile::Content, vec![1.0], 10, 3, 5).active_for(30);
        assert_eq!(source.horizon(), 29);
        assert!(!source.due_at(7).is_empty(), "rate 1.0 fires inside window");
        assert!(source.due_at(30).is_empty());
        assert!(source.due_at(500).is_empty());
        // Same schedule seed, different draw seeds: identical season rates,
        // different concrete faults.
        let a = SeasonalSource::new(ServiceProfile::Online, vec![0.1, 0.9], 25, 1, 42);
        let b = SeasonalSource::new(ServiceProfile::Online, vec![0.1, 0.9], 25, 2, 42);
        for season in 0..16u64 {
            assert_eq!(a.rate_at(season * 25), b.rate_at(season * 25));
        }
    }

    #[test]
    fn operator_source_fires_operator_faults_at_the_composed_rate() {
        let model = OperatorModel {
            error_rate: 0.5,
            ..OperatorModel::standard()
        };
        let mut source = OperatorSource::new(0.5, 11).with_model(model);
        let faults: Vec<_> = (0..20_000).flat_map(|t| source.due_at(t)).collect();
        let rate = faults.len() as f64 / 20_000.0;
        assert!(
            (rate - 0.25).abs() < 0.02,
            "action 0.5 * error 0.5 should fire ~0.25/tick, got {rate}"
        );
        for fault in &faults {
            assert_eq!(fault.cause, FailureCause::Operator);
            assert!(fault.id.0 >= OPERATOR_FAULT_ID_BASE);
            assert!(fault.severity >= 0.5);
        }
    }

    #[test]
    fn operator_source_is_deterministic_and_windowed() {
        let mut a = OperatorSource::new(0.8, 13).active_for(100);
        let mut b = a.clone();
        assert_eq!(a.horizon(), 99);
        let forwards: Vec<_> = (0..200).flat_map(|t| a.due_at(t)).collect();
        let backwards: Vec<_> = (0..200).rev().flat_map(|t| b.due_at(t)).collect();
        let mut backwards_sorted = backwards;
        backwards_sorted.sort_by_key(|f| f.id);
        assert_eq!(forwards, backwards_sorted);
        assert!(!forwards.is_empty(), "dense operators must blunder");
        assert!(forwards
            .iter()
            .all(|f| f.id.0 < OPERATOR_FAULT_ID_BASE + 100));
        assert!(OperatorSource::new(0.0, 13).due_at(5).is_empty());
    }

    #[test]
    fn boxed_sources_delegate_and_clone() {
        let mut source: Box<dyn FaultSource> = Box::new(scripted());
        assert_eq!(source.horizon(), 30);
        let mut clone = source.clone();
        assert_eq!(source.due_at(10), clone.due_at(10));
        clone.reset();
        assert_eq!(clone.horizon(), 30);
    }
}
