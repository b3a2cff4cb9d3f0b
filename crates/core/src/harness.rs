//! Convenience wrapper bundling a simulated service with a healing policy.
//!
//! Examples and benchmarks repeatedly need the same assembly: build a
//! RUBiS-like service, pick a workload, schedule fault injections, choose a
//! healing policy, run, and summarize.  [`ReplicaPlan`] is that assembly as
//! data, and [`ReplicaPlan::runner`] the one place a replica is built from
//! it; [`SelfHealingService`] wraps one plan behind a small builder so the
//! examples read like the experiment descriptions in the paper.
//!
//! Six declarative enums keep configurations data, not code:
//! [`PolicyChoice`] names a healing policy, [`WorkloadChoice`] names a
//! workload shape (synthetic mix + arrivals, recorded-trace replay, or a
//! burst storm) that can be instantiated as a fresh [`TraceSource`] for
//! every replica of a fleet, with per-replica seeds and phase shifts,
//! [`FaultChoice`] names a fault schedule (a scripted plan, stochastic
//! demographic generation from a cause mix, a catalog coverage sweep, or a
//! tick-wise composition) as a recipe for a [`FaultSource`],
//! [`LearnerChoice`] names where learned synopsis state lives (a private
//! per-replica model or one fleet-shared model) as a recipe for a
//! [`SynopsisStore`], and [`EventChoice`] names a fleet-wide
//! cross-replica event (a correlated fault storm — uniform or
//! CauseMix-catalog — or a workload surge) that the fleet's tick-sliced
//! scheduler resolves into per-replica actions, and [`ReactiveChoice`]
//! names a *state-observing* chaos engine (an adversary targeting the
//! weakest replica, or a dependency cascade) evaluated at deterministic
//! epoch barriers.  The fleet crate's `events` and `reactive` modules
//! evaluate the last two as matches over the variants.

use crate::fixsym::THRESHOLD;
use crate::hybrid::HybridHealer;
use crate::policy::{DiagnosisEngine, DiagnosisPanel, Source};
use crate::proactive::ProactiveHealer;
use crate::snapshot::SynopsisSnapshot;
use crate::store::{BatchedStore, SynopsisStore};
use crate::synopsis::{Learner, SynopsisKind};
use selfheal_diagnosis::{
    AnomalyDetector, BottleneckAnalyzer, CorrelationAnalyzer, DiagnosisContext, ManualRuleBase,
};
use selfheal_faults::id_space::IdLane;
use selfheal_faults::{
    CatalogSweep, ComposedSource, FaultKind, FaultSource, InjectionPlan, MixSource, OperatorSource,
    ScriptedSource, SeasonalSource, ServiceProfile,
};
use selfheal_sim::scenario::{Healer, NoHealing, ScenarioOutcome, ScenarioRunner};
use selfheal_sim::seeds::{split_seed, SeedStream};
use selfheal_sim::{MultiTierService, ServiceConfig};
use selfheal_telemetry::{Schema, SloTargets};
use selfheal_workload::{
    ArrivalProcess, BurstSource, RecordedTrace, ReplayMode, ReplaySource, TraceGenerator,
    TraceSource, WorkloadMix,
};
use std::sync::Arc;

/// Which healing policy drives the service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyChoice {
    /// No self-healing (baseline).
    None,
    /// The manual rule base.
    ManualRules,
    /// Anomaly-detection diagnosis.
    AnomalyDetection,
    /// Correlation-analysis diagnosis.
    CorrelationAnalysis,
    /// Bottleneck-analysis diagnosis.
    BottleneckAnalysis,
    /// Signature-based FixSym with the given synopsis.
    FixSym(SynopsisKind),
    /// FixSym + diagnosis hybrid.
    Hybrid(SynopsisKind),
    /// Forecast-driven proactive healing.
    Proactive,
}

impl PolicyChoice {
    /// Builds the healer this policy describes, boxed so heterogeneous
    /// policies can drive identical runners, with a learning policy's
    /// synopsis wired to `store` — or, without one, to a fresh private store
    /// ([`ReplicaPlan::runner`] constructs every healer through here).
    fn build_healer(
        &self,
        schema: &Schema,
        targets: SloTargets,
        store: Option<Box<dyn SynopsisStore>>,
    ) -> Box<dyn Healer> {
        let synopsis = self
            .synopsis_kind()
            .map(|kind| store.unwrap_or_else(|| LearnerChoice::Private.build_store(kind)));
        match self.healer(schema, targets, synopsis) {
            Some(healer) => Box::new(healer),
            None if *self == PolicyChoice::Proactive => {
                Box::new(ProactiveHealer::new(schema, targets))
            }
            None => Box::new(NoHealing),
        }
    }

    /// Builds the healer with its signature path wired to the given
    /// [`SynopsisStore`] handle instead of a freshly built private synopsis.
    ///
    /// Only the signature-based policies (`FixSym`, `Hybrid`) have learned
    /// state to store; every other policy is stateless across replicas and
    /// ignores the store.  The store's own kind
    /// wins over the kind embedded in the policy, so one fleet cannot
    /// accidentally mix synopsis models.
    pub fn build_healer_stored(
        &self,
        schema: &Schema,
        targets: SloTargets,
        store: Box<dyn SynopsisStore>,
    ) -> Box<dyn Healer> {
        self.build_healer(schema, targets, Some(store))
    }

    /// Every policy but `None` and `Proactive` is a [`HybridHealer`]: a
    /// name, an attempt threshold, and a constant list of fix sources over
    /// `synopsis` and the diagnosis engines named here (README, "How a
    /// healer chooses its next fix").  Each difference between the lists is
    /// pinned by Table 2 or a golden fingerprint.
    pub(crate) fn healer<L: Learner>(
        &self,
        schema: &Schema,
        targets: SloTargets,
        synopsis: Option<L>,
    ) -> Option<HybridHealer<L>> {
        use DiagnosisEngine::{Anomaly, Bottleneck, Correlation, Manual};
        use Source::{CheapestUntried, Diagnosis, Escalate};
        const FIXSYM: &[Source] = &[
            Source::Synopsis {
                min_confidence: 0.05,
            },
            CheapestUntried,
        ];
        const HYBRID: &[Source] = &[
            Source::Synopsis {
                min_confidence: 0.5,
            },
            Diagnosis {
                repeat_provisioning: false,
            },
            Escalate { idle_ticks: 0 },
        ];
        const ONE_ENGINE: &[Source] = &[
            Diagnosis {
                repeat_provisioning: true,
            },
            Escalate { idle_ticks: 90 },
        ];
        let (name, threshold, sources, engines) = match self {
            PolicyChoice::None | PolicyChoice::Proactive => return None,
            PolicyChoice::FixSym(_) => ("fixsym", THRESHOLD, FIXSYM, vec![]),
            PolicyChoice::Hybrid(_) => (
                "hybrid_fixsym_diagnosis",
                THRESHOLD,
                HYBRID,
                DiagnosisEngine::hybrid(),
            ),
            PolicyChoice::ManualRules => (
                "manual_rules",
                3,
                ONE_ENGINE,
                vec![Manual(ManualRuleBase::standard())],
            ),
            PolicyChoice::AnomalyDetection => (
                "anomaly_detection",
                3,
                ONE_ENGINE,
                vec![Anomaly(AnomalyDetector::standard())],
            ),
            PolicyChoice::CorrelationAnalysis => {
                let ctx = DiagnosisContext::from_schema(schema, targets);
                let engine = Correlation(CorrelationAnalyzer::standard(&ctx));
                ("correlation_analysis", 3, ONE_ENGINE, vec![engine])
            }
            PolicyChoice::BottleneckAnalysis => (
                "bottleneck_analysis",
                3,
                ONE_ENGINE,
                vec![Bottleneck(BottleneckAnalyzer::standard())],
            ),
        };
        let panel = (!engines.is_empty()).then(|| DiagnosisPanel::new(schema, targets, engines));
        Some(HybridHealer::with_sources(
            name, threshold, sources, schema, synopsis, panel,
        ))
    }

    /// The synopsis kind embedded in the policy, if any: `Some` exactly for
    /// the policies that learn a synopsis a fleet can share.
    pub fn synopsis_kind(&self) -> Option<SynopsisKind> {
        match self {
            PolicyChoice::FixSym(kind) | PolicyChoice::Hybrid(kind) => Some(*kind),
            _ => None,
        }
    }

    /// Display label.
    pub fn label(&self) -> String {
        match self {
            PolicyChoice::None => "no_healing".to_string(),
            PolicyChoice::ManualRules => "manual_rules".to_string(),
            PolicyChoice::AnomalyDetection => "anomaly_detection".to_string(),
            PolicyChoice::CorrelationAnalysis => "correlation_analysis".to_string(),
            PolicyChoice::BottleneckAnalysis => "bottleneck_analysis".to_string(),
            PolicyChoice::FixSym(kind) => format!("fixsym_{}", kind.label()),
            PolicyChoice::Hybrid(kind) => format!("hybrid_{}", kind.label()),
            PolicyChoice::Proactive => "proactive".to_string(),
        }
    }
}

/// A fleet-wide event — the cross-replica mirror of [`PolicyChoice`],
/// [`WorkloadChoice`], and [`LearnerChoice`], so fleet configs name their
/// correlated-failure scenarios declaratively.
///
/// A choice is pure data: the fleet engine's event machinery resolves it
/// against the fleet's shape (replica count, tick horizon) into per-replica
/// actions at exact ticks, so an event-laden run stays a pure function of
/// the configuration — at any worker count and any tick-slice width.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventChoice {
    /// A correlated fault storm: at `at_tick`, inject a fault of `kind`
    /// (with `severity`) into a deterministic, evenly spread `fraction` of
    /// the fleet's replicas (see [`selfheal_faults::StormSpec`]).
    FaultStorm {
        /// Tick at which the storm strikes every victim at once.
        at_tick: u64,
        /// The failure class every victim receives.
        kind: FaultKind,
        /// Severity of each injected fault, `[0, 1]`.
        severity: f64,
        /// Fraction of the fleet hit, `[0, 1]`.
        fraction: f64,
    },
    /// A correlated *catalog* storm: at `at_tick`, a deterministic
    /// `fraction` of the fleet is hit, each victim's failure class drawn
    /// from `profile`'s cause mix (keyed by the fleet's base seed) instead
    /// of one shared class — the Figure 1 demographics as a correlated
    /// outage (see [`selfheal_faults::StormSpec::catalog`]).
    CatalogStorm {
        /// Tick at which the storm strikes every victim at once.
        at_tick: u64,
        /// The service profile whose cause mix supplies each victim's
        /// failure class.
        profile: ServiceProfile,
        /// Severity of each injected fault, `[0, 1]`.
        severity: f64,
        /// Fraction of the fleet hit, `[0, 1]`.
        fraction: f64,
    },
    /// A fleet-wide workload surge: for `duration_ticks` starting at
    /// `at_tick`, every replica's request batches are amplified by `factor`
    /// (a correlated flash crowd overlaid on whatever workload the replicas
    /// already run).
    WorkloadSurge {
        /// First surged tick.
        at_tick: u64,
        /// How many ticks the surge lasts.
        duration_ticks: u64,
        /// Request-batch amplification factor (≥ 1.0).
        factor: f64,
    },
}

impl EventChoice {
    /// Fault-storm shorthand with the scripted experiments' default
    /// severity of 0.9.
    pub fn storm(at_tick: u64, kind: FaultKind, fraction: f64) -> Self {
        EventChoice::FaultStorm {
            at_tick,
            kind,
            severity: 0.9,
            fraction,
        }
    }

    /// Catalog-storm shorthand with the default severity of 0.9.
    pub fn catalog_storm(at_tick: u64, profile: ServiceProfile, fraction: f64) -> Self {
        EventChoice::CatalogStorm {
            at_tick,
            profile,
            severity: 0.9,
            fraction,
        }
    }

    /// Workload-surge shorthand.
    pub fn surge(at_tick: u64, duration_ticks: u64, factor: f64) -> Self {
        EventChoice::WorkloadSurge {
            at_tick,
            duration_ticks,
            factor,
        }
    }
}

/// A *reactive* chaos engine — the state-observing mirror of
/// [`EventChoice`].  Where an event's schedule is fixed when the run is
/// configured, a reactive engine watches the fleet's health at deterministic
/// epoch barriers and aims its next blow at what it sees: the adversary
/// always strikes the currently-weakest replica, the cascade follows open
/// failures along the service-dependency topology.
///
/// A choice is pure data: the fleet crate's `reactive` module evaluates it
/// only at fixed barrier ticks — never mid-slice — so reactive
/// runs stay a pure function of the configuration at any worker count and
/// any compatible tick-slice width.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReactiveChoice {
    /// An adversarial injector: at each epoch barrier in
    /// `[start_tick, until_tick)`, inject one fault of `kind` into the
    /// replica with the most open failure episodes (ties broken toward the
    /// lowest replica id) — a worst-case scheduler that piles on wherever
    /// the fleet is already hurting.
    Adversary {
        /// The failure class every strike injects.
        kind: FaultKind,
        /// Severity of each injected fault, `[0, 1]`.
        severity: f64,
        /// First tick (inclusive) at which strikes may land.
        start_tick: u64,
        /// Tick (exclusive) after which the adversary stands down.
        until_tick: u64,
    },
    /// A dependency cascade: when a replica *newly* enters an open failure
    /// episode, its downstream dependent (ring topology: replica `r` feeds
    /// `r + 1 mod n`) receives a correlated fault of `kind` at the next
    /// epoch barrier, up to `budget` propagations in total.
    Cascade {
        /// The failure class propagated to dependents.
        kind: FaultKind,
        /// Severity of each propagated fault, `[0, 1]`.
        severity: f64,
        /// Maximum number of propagations over the whole run.
        budget: usize,
        /// Tick (exclusive) after which the cascade stops propagating.
        until_tick: u64,
    },
}

impl ReactiveChoice {
    /// Adversary shorthand.
    pub fn adversary(kind: FaultKind, severity: f64, start_tick: u64, until_tick: u64) -> Self {
        ReactiveChoice::Adversary {
            kind,
            severity,
            start_tick,
            until_tick,
        }
    }

    /// Cascade shorthand.
    pub fn cascade(kind: FaultKind, severity: f64, budget: usize, until_tick: u64) -> Self {
        ReactiveChoice::Cascade {
            kind,
            severity,
            budget,
            until_tick,
        }
    }
}

/// Which fault schedule drives the service — the fault-side mirror of
/// [`PolicyChoice`], [`WorkloadChoice`], and [`LearnerChoice`], so benches,
/// examples, and fleet configs name their failure scenarios declaratively.
///
/// A choice is a *recipe*: [`FaultChoice::source_for_replica`] bakes it
/// into a concrete [`FaultSource`] for one replica.  Fleet engines pass a
/// per-replica seed split via
/// [`selfheal_sim::seeds::split_seed`]`(base, replica, SeedStream::Faults)`,
/// so sibling replicas' stochastic fault streams decorrelate while staying
/// a pure function of `(base_seed, replica)` — at any worker count and any
/// tick-slice width.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultChoice {
    /// A hand-scripted [`InjectionPlan`], applied identically to every
    /// replica (the Table 1 fault/fix-matrix experiments).
    Scripted(InjectionPlan),
    /// Stochastic demographic generation: at each tick in
    /// `[0, active_ticks)` a fault fires with probability `rate`, its kind
    /// drawn from `profile`'s cause mix (see
    /// [`selfheal_faults::MixSource`]).
    Mix {
        /// The service profile whose Figure 1 demographics drive sampling.
        profile: ServiceProfile,
        /// Per-tick firing probability, clamped to `[0, 1]`.
        rate: f64,
        /// Faults may fire only in ticks `[0, active_ticks)`; bound this
        /// below the run length so the healer gets a quiet tail to drain
        /// every episode.
        active_ticks: u64,
        /// EJB count random targets are drawn from.
        ejbs: usize,
        /// Table count random targets are drawn from.
        tables: usize,
        /// Index count random targets are drawn from.
        indexes: usize,
    },
    /// One fault of every [`selfheal_faults::FixCatalog`] failure class at
    /// a fixed cadence (see [`selfheal_faults::CatalogSweep`]) — the FixSym
    /// training-coverage run.
    Sweep {
        /// Tick of the first injected class.
        start_tick: u64,
        /// Ticks between consecutive classes.
        spacing_ticks: u64,
        /// Severity of every injected fault.
        severity: f64,
    },
    /// Seeded fault *seasons*: demographic generation whose per-tick rate
    /// is re-drawn from `rates` at every `season_ticks` boundary by a
    /// schedule keyed on `schedule_seed` alone (see
    /// [`selfheal_faults::SeasonalSource`]).  Replicas with different draw
    /// seeds but one `schedule_seed` share calm and stormy seasons, giving
    /// the fleet correlated load *epochs* without correlated faults.
    Seasons {
        /// The service profile whose Figure 1 demographics drive sampling.
        profile: ServiceProfile,
        /// Candidate per-tick rates the schedule cycles through.
        rates: Vec<f64>,
        /// Ticks each season lasts before the rate is re-drawn.
        season_ticks: u64,
        /// Seed of the fleet-wide season schedule (deliberately *not* the
        /// per-replica draw seed, so siblings share seasons).
        schedule_seed: u64,
        /// Faults may fire only in ticks `[0, active_ticks)`.
        active_ticks: u64,
        /// EJB count random targets are drawn from.
        ejbs: usize,
        /// Table count random targets are drawn from.
        tables: usize,
        /// Index count random targets are drawn from.
        indexes: usize,
    },
    /// A live flaky operator: at each tick an operator action fires with
    /// probability `action_rate` and manifests as a fault per the
    /// `selfheal_faults::OperatorModel`'s error rate — the Figure 1
    /// operator-error demographics as an online [`FaultSource`] (see
    /// [`selfheal_faults::OperatorSource`]).
    Operator {
        /// Per-tick probability that the operator acts at all.
        action_rate: f64,
        /// Actions may fire only in ticks `[0, active_ticks)`.
        active_ticks: u64,
    },
    /// A tick-wise merge of child recipes; each child gets a decorrelated
    /// seed and a disjoint fault-id lane, so e.g. a scripted scenario can
    /// ride on top of background demographic noise.
    Composed(Vec<FaultChoice>),
}

impl Default for FaultChoice {
    /// No faults: an empty scripted plan.
    fn default() -> Self {
        FaultChoice::Scripted(InjectionPlan::empty())
    }
}

impl FaultChoice {
    /// Demographic-mix shorthand with the target topology taken from a
    /// [`ServiceConfig`].
    pub fn mix_for(profile: ServiceProfile, rate: f64, config: &ServiceConfig) -> Self {
        FaultChoice::Mix {
            profile,
            rate,
            active_ticks: u64::MAX,
            ejbs: config.ejb_count,
            tables: config.table_count,
            indexes: 1,
        }
    }

    /// Catalog-sweep shorthand with the default severity of 0.9.
    pub fn sweep(start_tick: u64, spacing_ticks: u64) -> Self {
        FaultChoice::Sweep {
            start_tick,
            spacing_ticks,
            severity: 0.9,
        }
    }

    /// Fault-season shorthand: unbounded window, the workspace's default
    /// tiny topology, and a schedule keyed on seed 0.  Chain
    /// [`FaultChoice::active_for`] to bound the window for finite runs.
    pub fn seasons(profile: ServiceProfile, rates: Vec<f64>, season_ticks: u64) -> Self {
        FaultChoice::Seasons {
            profile,
            rates,
            season_ticks,
            schedule_seed: 0,
            active_ticks: u64::MAX,
            ejbs: 4,
            tables: 3,
            indexes: 1,
        }
    }

    /// Composition shorthand.
    pub fn composed(children: impl IntoIterator<Item = FaultChoice>) -> Self {
        FaultChoice::Composed(children.into_iter().collect())
    }

    /// Bounds every `Mix`, `Seasons`, and `Operator` window (recursively,
    /// for compositions) to `[0, active_ticks)`.  No-op for scripted plans
    /// and sweeps, whose schedules are already finite.
    pub fn active_for(mut self, active_ticks: u64) -> Self {
        match &mut self {
            FaultChoice::Mix {
                active_ticks: window,
                ..
            }
            | FaultChoice::Seasons {
                active_ticks: window,
                ..
            }
            | FaultChoice::Operator {
                active_ticks: window,
                ..
            } => *window = active_ticks,
            FaultChoice::Composed(children) => {
                for child in std::mem::take(children) {
                    children.push(child.active_for(active_ticks));
                }
            }
            FaultChoice::Scripted(_) | FaultChoice::Sweep { .. } => {}
        }
        self
    }

    /// Display label (used by bench output alongside policy, workload, and
    /// learner labels).
    pub fn label(&self) -> String {
        match self {
            FaultChoice::Scripted(plan) if plan.is_empty() => "none".to_string(),
            FaultChoice::Scripted(_) => "scripted".to_string(),
            FaultChoice::Mix { profile, rate, .. } => {
                format!("mix_{}_{rate}", profile.name().to_lowercase())
            }
            FaultChoice::Sweep { .. } => "sweep".to_string(),
            FaultChoice::Seasons {
                profile,
                season_ticks,
                ..
            } => format!("seasons_{}_{season_ticks}", profile.name().to_lowercase()),
            FaultChoice::Operator { action_rate, .. } => format!("operator_{action_rate}"),
            FaultChoice::Composed(children) => format!("composed_{}", children.len()),
        }
    }

    /// Bakes the choice into a source for replica `replica` of a fleet.
    ///
    /// `seed` feeds stochastic generation; callers split it per replica via
    /// [`selfheal_sim::seeds::split_seed`] with [`SeedStream::Faults`], so
    /// a replica's fault stream is a pure function of `(base_seed, replica)`
    /// — the fleet determinism tests rely on this.  Scripted plans and
    /// sweeps ignore the seed (every replica runs the same schedule).
    pub fn source_for_replica(&self, seed: u64, _replica: u64) -> Box<dyn FaultSource> {
        let mut lane = 0;
        self.build_lane(seed, &mut lane)
    }

    /// Builds the source with its fault-id namespace shifted into the next
    /// free lane.  `lane` is a recipe-global counter: every id-bearing leaf
    /// (mix, sweep) claims one sequential lane regardless of composition
    /// nesting, so no two leaves of one recipe can ever share an id base.
    fn build_lane(&self, seed: u64, lane: &mut u64) -> Box<dyn FaultSource> {
        fn claim_lane(lane: &mut u64) -> u64 {
            let shift = *lane << 36;
            *lane += 1;
            shift
        }
        match self {
            FaultChoice::Scripted(plan) => Box::new(ScriptedSource::new(plan.clone())),
            FaultChoice::Mix {
                profile,
                rate,
                active_ticks,
                ejbs,
                tables,
                indexes,
            } => Box::new(
                MixSource::new(*profile, *rate, seed)
                    .active_for(*active_ticks)
                    .with_topology(*ejbs, *tables, *indexes)
                    .with_id_base(IdLane::Mix.base() + claim_lane(lane)),
            ),
            FaultChoice::Sweep {
                start_tick,
                spacing_ticks,
                severity,
            } => Box::new(
                CatalogSweep::new(*start_tick, *spacing_ticks)
                    .with_severity(*severity)
                    .with_id_base(IdLane::Sweep.base() + claim_lane(lane)),
            ),
            FaultChoice::Seasons {
                profile,
                rates,
                season_ticks,
                schedule_seed,
                active_ticks,
                ejbs,
                tables,
                indexes,
            } => Box::new(
                SeasonalSource::new(*profile, rates.clone(), *season_ticks, seed, *schedule_seed)
                    .active_for(*active_ticks)
                    .with_topology(*ejbs, *tables, *indexes)
                    .with_id_base(IdLane::Season.base() + claim_lane(lane)),
            ),
            FaultChoice::Operator {
                action_rate,
                active_ticks,
            } => Box::new(
                OperatorSource::new(*action_rate, seed)
                    .active_for(*active_ticks)
                    .with_id_base(IdLane::Operator.base() + claim_lane(lane)),
            ),
            FaultChoice::Composed(children) => {
                let mut composed = ComposedSource::new();
                for (i, child) in children.iter().enumerate() {
                    let child_seed = split_seed(seed, i as u64, SeedStream::Faults);
                    composed = composed.with_boxed(child.build_lane(child_seed, lane));
                }
                Box::new(composed)
            }
        }
    }
}

/// Where learned synopsis state lives — the learning-side mirror of
/// [`PolicyChoice`] and [`WorkloadChoice`], so fleet configs name their
/// learning topology declaratively.
///
/// A choice is a *recipe*: [`LearnerChoice::build_store`] bakes it into a
/// concrete [`SynopsisStore`] of a given [`SynopsisKind`].  The shared
/// recipe (`Locked`) is built **once** per fleet and handed to replicas via
/// [`SynopsisStore::clone_store`]; the `Private` recipe is built fresh per
/// replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LearnerChoice {
    /// Every replica learns alone in its own batch-1 [`BatchedStore`] (the
    /// paper's single-instance setup: every record refits the model at
    /// once).
    #[default]
    Private,
    /// One fleet-wide synopsis (a [`BatchedStore`]), draining queued
    /// updates in batches of `batch`.
    Locked {
        /// Queued updates that trigger one combined drain + retrain.
        batch: usize,
    },
}

impl LearnerChoice {
    /// Lock-shared learning with the default batch threshold.
    pub fn locked() -> Self {
        LearnerChoice::Locked {
            batch: BatchedStore::DEFAULT_BATCH,
        }
    }

    /// Whether the store this choice builds is shared by every replica of a
    /// fleet (`true`) or owned per replica (`false`).
    pub fn is_shared(&self) -> bool {
        !matches!(self, LearnerChoice::Private)
    }

    /// Bakes the choice into a concrete store for a synopsis of `kind`.
    pub fn build_store(&self, kind: SynopsisKind) -> Box<dyn SynopsisStore> {
        match self {
            LearnerChoice::Private => Box::new(BatchedStore::new(kind, 1)),
            LearnerChoice::Locked { batch } => Box::new(BatchedStore::new(kind, *batch)),
        }
    }

    /// [`build_store`](Self::build_store), optionally warm-started: when a
    /// snapshot is given, its experience is restored into the fresh store
    /// before first use.  The one place warm-start semantics live — the
    /// fleet engine builds its shared and its private stores through here.
    pub fn build_store_warm(
        &self,
        kind: SynopsisKind,
        warm_start: Option<&SynopsisSnapshot>,
    ) -> Box<dyn SynopsisStore> {
        let mut store = self.build_store(kind);
        if let Some(snapshot) = warm_start {
            store.restore(snapshot);
        }
        store
    }

    /// Display label (used by bench output alongside policy and workload
    /// labels).
    pub fn label(&self) -> String {
        match self {
            LearnerChoice::Private => "private".to_string(),
            LearnerChoice::Locked { .. } => "locked".to_string(),
        }
    }
}

/// Which workload shape drives the service — the workload-side mirror of
/// [`PolicyChoice`], so benches, examples, and fleet configs stay
/// declarative.
///
/// A choice is a *recipe*: [`WorkloadChoice::source_for_replica`] bakes it
/// into a concrete [`TraceSource`] for one replica, applying the replica's
/// seed (synthetic randomness) and phase shift (replay/burst stagger).
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadChoice {
    /// Synthetic arrivals: a [`WorkloadMix`] sampled under an
    /// [`ArrivalProcess`] (the paper's browsing/bidding experiments).
    Synthetic {
        /// Distribution over request kinds.
        mix: WorkloadMix,
        /// Open-loop arrival model.
        arrivals: ArrivalProcess,
    },
    /// Replay of a recorded trace.  Replica `i` starts `i * phase_step`
    /// ticks into the trace (ROADMAP's per-replica phase shifts), so a
    /// fleet spreads over the trace instead of marching in lockstep.  The
    /// trace is behind an [`Arc`]: every replica references one allocation.
    Replay {
        /// The recorded trace to replay.
        trace: Arc<RecordedTrace>,
        /// Wrap around vs go quiet when the trace ends.
        mode: ReplayMode,
        /// Per-replica phase increment, in ticks (0 = all replicas aligned).
        phase_step: u64,
    },
    /// Recurring flash-crowd storms on a Poisson baseline (see
    /// [`BurstSource`]).  With `phase_step = 0` every replica's storms land
    /// in the same tick windows (correlated flash crowds); a positive step
    /// staggers replica `i`'s storm schedule by `i * phase_step` ticks.
    Burst {
        /// Distribution over request kinds.
        mix: WorkloadMix,
        /// Baseline requests per tick.
        base_rate: f64,
        /// Rate multiplier inside each storm.
        burst_factor: f64,
        /// Ticks between storm starts.
        period_ticks: u64,
        /// Ticks each storm lasts (must be shorter than the period).
        burst_ticks: u64,
        /// Per-replica storm-schedule offset, in ticks (0 = correlated).
        phase_step: u64,
    },
}

impl Default for WorkloadChoice {
    /// The workspace-wide default: the RUBiS bidding mix at Poisson 40
    /// requests/tick.
    fn default() -> Self {
        WorkloadChoice::Synthetic {
            mix: WorkloadMix::bidding(),
            arrivals: ArrivalProcess::Poisson { rate: 40.0 },
        }
    }
}

impl WorkloadChoice {
    /// Synthetic workload shorthand.
    pub fn synthetic(mix: WorkloadMix, arrivals: ArrivalProcess) -> Self {
        WorkloadChoice::Synthetic { mix, arrivals }
    }

    /// Replay shorthand.
    pub fn replay(trace: RecordedTrace, mode: ReplayMode, phase_step: u64) -> Self {
        WorkloadChoice::Replay {
            trace: Arc::new(trace),
            mode,
            phase_step,
        }
    }

    /// Burst-storm shorthand: storms correlated across replicas
    /// (`phase_step = 0`); see `WorkloadChoice::burst_staggered`.
    pub fn burst(
        mix: WorkloadMix,
        base_rate: f64,
        burst_factor: f64,
        period_ticks: u64,
        burst_ticks: u64,
    ) -> Self {
        Self::burst_staggered(mix, base_rate, burst_factor, period_ticks, burst_ticks, 0)
    }

    /// Burst-storm shorthand with replica `i`'s storm schedule shifted by
    /// `i * phase_step` ticks.
    pub(crate) fn burst_staggered(
        mix: WorkloadMix,
        base_rate: f64,
        burst_factor: f64,
        period_ticks: u64,
        burst_ticks: u64,
        phase_step: u64,
    ) -> Self {
        WorkloadChoice::Burst {
            mix,
            base_rate,
            burst_factor,
            period_ticks,
            burst_ticks,
            phase_step,
        }
    }

    /// Display label (used by bench output alongside the policy label).
    pub fn label(&self) -> String {
        match self {
            WorkloadChoice::Synthetic { mix, .. } => format!("synthetic_{}", mix.name()),
            WorkloadChoice::Replay { mode, .. } => match mode {
                ReplayMode::Loop => "replay_loop".to_string(),
                ReplayMode::Truncate => "replay_truncate".to_string(),
            },
            WorkloadChoice::Burst { mix, .. } => format!("burst_{}", mix.name()),
        }
    }

    /// Bakes the choice into a source for replica `replica` of a fleet.
    ///
    /// `seed` feeds synthetic randomness (callers split it per replica via
    /// [`selfheal_sim::seeds::split_seed`]); the replica index drives the
    /// deterministic phase shift of replayed traces.  Replica outcomes are
    /// therefore a pure function of `(seed, replica)` — the fleet
    /// determinism tests rely on this.
    pub fn source_for_replica(&self, seed: u64, replica: u64) -> Box<dyn TraceSource> {
        match self {
            WorkloadChoice::Synthetic { mix, arrivals } => {
                Box::new(TraceGenerator::new(mix.clone(), arrivals.clone(), seed))
            }
            WorkloadChoice::Replay {
                trace,
                mode,
                phase_step,
            } => Box::new(
                ReplaySource::shared(Arc::clone(trace), *mode).with_phase(replica * phase_step),
            ),
            WorkloadChoice::Burst {
                mix,
                base_rate,
                burst_factor,
                period_ticks,
                burst_ticks,
                phase_step,
            } => Box::new(
                BurstSource::new(
                    mix.clone(),
                    *base_rate,
                    *burst_factor,
                    *period_ticks,
                    *burst_ticks,
                    seed,
                )
                .with_phase(replica * phase_step),
            ),
        }
    }
}

/// Everything one replica is made of, as data: the service it simulates,
/// the workload and faults that drive it, and the policy that heals it.
/// [`runner`](Self::runner) is the one place a replica is assembled —
/// [`SelfHealingService::run`], the fleet engine and the resident daemon's
/// supervisor all build through it and differ only in the plan, the seeds
/// and the store they pass.  A replica that differs from its fleet (the
/// daemon's per-replica fault profile, a `RECONFIGURE`d workload) is a
/// replica with a different plan.
#[derive(Debug, Clone)]
pub struct ReplicaPlan {
    /// The simulated service (its `seed` is replaced by the replica's).
    pub service: ServiceConfig,
    /// The workload recipe.
    pub workload: WorkloadChoice,
    /// The fault recipe.
    pub faults: FaultChoice,
    /// The healing policy.
    pub policy: PolicyChoice,
}

/// The three seeds one replica's simulated streams are drawn from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicaSeeds {
    /// Seeds the simulated service.
    pub service: u64,
    /// Seeds the workload source.
    pub workload: u64,
    /// Seeds the fault source.
    pub faults: u64,
}

impl ReplicaSeeds {
    /// Replica `replica` of a fleet seeded `base_seed`: each stream is a
    /// [`split_seed`] of `(base_seed, replica)`, so the replica's run is a
    /// pure function of the pair — at any fleet size, worker count and
    /// tick-slice width.
    pub fn split(base_seed: u64, replica: usize) -> Self {
        let replica = replica as u64;
        ReplicaSeeds {
            service: split_seed(base_seed, replica, SeedStream::Service),
            workload: split_seed(base_seed, replica, SeedStream::Workload),
            faults: split_seed(base_seed, replica, SeedStream::Faults),
        }
    }
}

impl ReplicaPlan {
    /// Builds replica `replica`'s runner: the service seeded with
    /// `seeds.service`, both sources baked from their recipes
    /// ([`WorkloadChoice::source_for_replica`],
    /// [`FaultChoice::source_for_replica`]), and the policy's healer — wired
    /// to `store` when one is given, else to a fresh private synopsis.
    pub fn runner(
        &self,
        replica: usize,
        seeds: ReplicaSeeds,
        store: Option<Box<dyn SynopsisStore>>,
    ) -> ScenarioRunner<Box<dyn Healer>> {
        let workload = self
            .workload
            .source_for_replica(seeds.workload, replica as u64);
        let faults = self.faults.source_for_replica(seeds.faults, replica as u64);
        let mut config = self.service.clone();
        config.seed = seeds.service;
        let targets = config.slo_targets();
        let service = MultiTierService::new(config);
        let schema = service.schema().clone();
        let healer = self.policy.build_healer(&schema, targets, store);
        ScenarioRunner::with_faults(service, workload, faults, healer)
    }
}

/// Builder/runner around one [`ReplicaPlan`].
#[derive(Debug)]
pub struct SelfHealingService {
    plan: ReplicaPlan,
    /// A caller-supplied source that replaces the plan's workload.
    custom_workload: Option<Box<dyn TraceSource>>,
    seed: u64,
}

impl SelfHealingService {
    /// Starts a builder with the RUBiS-like default configuration, the
    /// default workload ([`WorkloadChoice::default`]: bidding mix at
    /// Poisson 40 requests/tick), no faults and no healing.
    pub fn builder() -> Self {
        SelfHealingService {
            plan: ReplicaPlan {
                service: ServiceConfig::rubis_default(),
                workload: WorkloadChoice::default(),
                faults: FaultChoice::default(),
                policy: PolicyChoice::None,
            },
            custom_workload: None,
            seed: 42,
        }
    }

    /// Overrides the service configuration.
    pub fn config(mut self, config: ServiceConfig) -> Self {
        self.plan.service = config;
        self
    }

    /// Drives the service with a custom [`TraceSource`] (a recorded replay,
    /// a burst storm, or any caller-defined implementation).  The source is
    /// used exactly as given; the builder's seed does not touch it.
    pub fn workload(mut self, source: impl TraceSource + 'static) -> Self {
        self.custom_workload = Some(Box::new(source));
        self
    }

    /// Drives the service with a declarative [`WorkloadChoice`], which is
    /// instantiated with the builder's seed when the run starts.
    pub fn workload_choice(mut self, choice: WorkloadChoice) -> Self {
        self.plan.workload = choice;
        self.custom_workload = None;
        self
    }

    /// Drives the service with a declarative [`FaultChoice`], instantiated
    /// (with a fault-stream split of the builder's seed) when the run
    /// starts.
    pub fn faults(mut self, faults: FaultChoice) -> Self {
        self.plan.faults = faults;
        self
    }

    /// Chooses the healing policy.
    pub fn policy(mut self, policy: PolicyChoice) -> Self {
        self.plan.policy = policy;
        self
    }

    /// Sets the workload seed (ignored when a custom source was supplied
    /// via [`workload`](Self::workload)).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Runs the scenario for `ticks` ticks.  A learning policy learns alone,
    /// in a fresh private store.
    pub fn run(self, ticks: u64) -> ScenarioOutcome {
        // The service keeps its configured seed; the fault stream gets its
        // own split so demographic fault generation decorrelates from
        // workload randomness.
        let seeds = ReplicaSeeds {
            service: self.plan.service.seed,
            workload: self.seed,
            faults: split_seed(self.seed, 0, SeedStream::Faults),
        };
        let mut runner = self.plan.runner(0, seeds, None);
        if let Some(source) = self.custom_workload {
            runner.set_workload(source);
        }
        runner.run(ticks).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use selfheal_faults::{FaultKind, FaultTarget, InjectionPlanBuilder};

    #[test]
    fn builder_defaults_run_cleanly() {
        let outcome = SelfHealingService::builder()
            .config(ServiceConfig::tiny())
            .run(60);
        assert_eq!(outcome.ticks, 60);
        assert_eq!(outcome.violation_fraction, 0.0);
    }

    #[test]
    fn hybrid_policy_beats_no_healing_on_an_injected_fault() {
        let config = ServiceConfig::tiny();
        let plan = InjectionPlanBuilder::new()
            .inject(
                40,
                FaultKind::BufferContention,
                FaultTarget::DatabaseTier,
                0.9,
            )
            .build();

        let unhealed = SelfHealingService::builder()
            .config(config.clone())
            .faults(FaultChoice::Scripted(plan.clone()))
            .policy(PolicyChoice::None)
            .run(300);
        let healed = SelfHealingService::builder()
            .config(config)
            .faults(FaultChoice::Scripted(plan))
            .policy(PolicyChoice::Hybrid(SynopsisKind::NearestNeighbor))
            .run(300);

        assert!(
            healed.violation_fraction < unhealed.violation_fraction,
            "healed {} vs unhealed {}",
            healed.violation_fraction,
            unhealed.violation_fraction
        );
        assert!(healed.fixes_initiated >= 1);
    }

    #[test]
    fn policy_labels_are_distinct() {
        let labels: Vec<String> = [
            PolicyChoice::None,
            PolicyChoice::ManualRules,
            PolicyChoice::AnomalyDetection,
            PolicyChoice::CorrelationAnalysis,
            PolicyChoice::BottleneckAnalysis,
            PolicyChoice::FixSym(SynopsisKind::NearestNeighbor),
            PolicyChoice::Hybrid(SynopsisKind::AdaBoost(60)),
            PolicyChoice::Proactive,
        ]
        .iter()
        .map(PolicyChoice::label)
        .collect();
        let mut unique = labels.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), labels.len());
    }

    #[test]
    fn workload_choices_build_matching_sources() {
        let synthetic = WorkloadChoice::default();
        assert_eq!(synthetic.label(), "synthetic_bidding");
        let mut a = synthetic.source_for_replica(9, 0);
        let mut b = synthetic.source_for_replica(9, 0);
        assert_eq!(a.next_tick(0), b.next_tick(0));

        let mut generator = TraceGenerator::new(
            WorkloadMix::browsing(),
            ArrivalProcess::Constant { rate: 6.0 },
            1,
        );
        let trace = RecordedTrace::capture(&mut generator, 10);
        let replay = WorkloadChoice::replay(trace, ReplayMode::Loop, 4);
        assert_eq!(replay.label(), "replay_loop");
        // Replica 2 starts 8 ticks in: same kinds as the recorded tick 8.
        let mut shifted = replay.source_for_replica(0, 2);
        let expected = ReplaySource::shared(
            match &replay {
                WorkloadChoice::Replay { trace, .. } => Arc::clone(trace),
                _ => unreachable!(),
            },
            ReplayMode::Loop,
        )
        .with_phase(8)
        .next_tick(0);
        assert_eq!(shifted.next_tick(0), expected);

        let burst = WorkloadChoice::burst(WorkloadMix::bidding(), 10.0, 4.0, 60, 12);
        assert_eq!(burst.label(), "burst_bidding");
        assert!(burst.source_for_replica(3, 0).next_tick(0).len() > 10);

        // Staggered storms: replica 1 of a phase_step-30 burst fleet starts
        // its schedule 30 ticks in (outside the 12-tick storm window), so
        // its tick 0 sees baseline traffic while replica 0 is in a storm.
        let staggered =
            WorkloadChoice::burst_staggered(WorkloadMix::bidding(), 10.0, 4.0, 60, 12, 30);
        let calm = staggered.source_for_replica(3, 1).next_tick(0).len();
        assert!(calm < 25, "staggered replica 1 starts calm, got {calm}");
    }

    #[test]
    fn fault_choice_labels_are_distinct_and_descriptive() {
        let tiny = ServiceConfig::tiny();
        let labels: Vec<String> = [
            FaultChoice::default(),
            FaultChoice::Scripted(
                InjectionPlanBuilder::new()
                    .inject_default(10, FaultKind::BufferContention)
                    .build(),
            ),
            FaultChoice::mix_for(selfheal_faults::ServiceProfile::Online, 0.02, &tiny),
            FaultChoice::sweep(50, 100),
            FaultChoice::composed([
                FaultChoice::sweep(50, 100),
                FaultChoice::mix_for(selfheal_faults::ServiceProfile::Content, 0.01, &tiny),
            ]),
        ]
        .iter()
        .map(FaultChoice::label)
        .collect();
        assert_eq!(labels[0], "none");
        assert_eq!(labels[1], "scripted");
        assert!(labels[2].starts_with("mix_online"));
        assert_eq!(labels[3], "sweep");
        assert_eq!(labels[4], "composed_2");
        let mut unique = labels.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), labels.len());
    }

    #[test]
    fn fault_choices_build_deterministic_decorrelated_sources() {
        use selfheal_faults::{FaultSource as _, ServiceProfile};

        let tiny = ServiceConfig::tiny();

        let choice = FaultChoice::mix_for(ServiceProfile::Online, 0.5, &tiny).active_for(64);
        let drain = |mut source: Box<dyn selfheal_faults::FaultSource>| -> Vec<_> {
            (0..64).flat_map(|t| source.due_at(t)).collect()
        };
        // Same (seed, replica) → same stream; different seeds → different.
        assert_eq!(
            drain(choice.source_for_replica(7, 0)),
            drain(choice.source_for_replica(7, 0))
        );
        assert_ne!(
            drain(choice.source_for_replica(7, 0)),
            drain(choice.source_for_replica(8, 1))
        );

        // Composed children get decorrelated seeds and disjoint id lanes.
        let composed = FaultChoice::composed([
            FaultChoice::mix_for(ServiceProfile::Online, 1.0, &tiny),
            FaultChoice::mix_for(ServiceProfile::Online, 1.0, &tiny),
        ]);
        let faults = drain(composed.source_for_replica(7, 0).clone_box());
        assert_eq!(faults.len(), 128, "both children fire every tick");
        let mut ids: Vec<u64> = faults.iter().map(|f| f.id.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 128, "id lanes never collide");

        // Nested compositions keep lanes disjoint too: a grandchild must
        // never share an id base with a direct sibling leaf.
        let nested = FaultChoice::composed([
            FaultChoice::composed([
                FaultChoice::mix_for(ServiceProfile::Online, 1.0, &tiny),
                FaultChoice::mix_for(ServiceProfile::Online, 1.0, &tiny),
            ]),
            FaultChoice::mix_for(ServiceProfile::Online, 1.0, &tiny),
        ]);
        let faults = drain(nested.source_for_replica(7, 0).clone_box());
        assert_eq!(faults.len(), 192, "all three leaves fire every tick");
        let mut ids: Vec<u64> = faults.iter().map(|f| f.id.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 192, "nested id lanes never collide");

        // active_for reaches through compositions.
        let bounded = composed.active_for(10);
        assert_eq!(bounded.source_for_replica(7, 0).horizon(), 9);

        // Sweeps ignore the seed entirely.
        let sweep = FaultChoice::sweep(5, 3);
        assert_eq!(
            drain(sweep.source_for_replica(1, 0)),
            drain(sweep.source_for_replica(99, 3))
        );
    }

    #[test]
    fn custom_sources_drive_the_builder() {
        let mut generator = TraceGenerator::new(
            WorkloadMix::bidding(),
            ArrivalProcess::Constant { rate: 30.0 },
            5,
        );
        let trace = RecordedTrace::capture(&mut generator, 80);
        let outcome = SelfHealingService::builder()
            .config(ServiceConfig::tiny())
            .workload(ReplaySource::new(trace, ReplayMode::Truncate))
            .run(80);
        assert_eq!(outcome.arrived, 80 * 30);
    }
}
