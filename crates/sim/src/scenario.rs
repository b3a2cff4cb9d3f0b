//! Scenario runner: workload + fault injection + a pluggable healing policy.
//!
//! The runner is the harness every experiment uses: it drives the
//! [`MultiTierService`] over a workload trace and a pluggable fault source
//! (a scripted injection plan, stochastic demographic generation, a
//! catalog sweep — anything implementing
//! [`selfheal_faults::FaultSource`]), hands each tick's observations to a
//! [`Healer`], applies whatever fixes the healer requests, and keeps the
//! books (metric series, failure episodes, recovery times, fix attempts).

use crate::recovery::RecoveryLog;
use crate::service::{MultiTierService, TickOutcome};
use selfheal_faults::id_space;
use selfheal_faults::{FaultSource, FaultSpec, FixAction};
use selfheal_telemetry::SeriesStore;
use selfheal_workload::{Request, TraceSource};

/// A healing policy plugged into the scenario runner.
///
/// The healer sees exactly what a production monitoring pipeline would see —
/// the per-tick metric sample, confirmed SLO violations, and the completion
/// of fixes it previously requested — and returns the fixes to apply now.
/// It must *not* look at the simulator's ground-truth fault state.
///
/// `Send` is a supertrait so a runner (service + workload + healer) can be
/// moved onto a fleet worker thread; every healer in this workspace is plain
/// owned data (or an `Arc` handle to shared learned state), so the bound is
/// free.
pub trait Healer: Send {
    /// Short name used in benchmark output.
    fn name(&self) -> &str;

    /// Observes one tick and returns the fixes to initiate.
    fn observe(&mut self, outcome: &TickOutcome) -> Vec<FixAction>;
}

impl Healer for Box<dyn Healer> {
    fn name(&self) -> &str {
        self.as_ref().name()
    }

    fn observe(&mut self, outcome: &TickOutcome) -> Vec<FixAction> {
        self.as_mut().observe(outcome)
    }
}

/// A healer that never does anything (the "no self-healing" baseline: the
/// service stays broken until an injected fault is the kind that a human
/// would eventually notice — which in these experiments means it stays
/// broken).
#[derive(Debug, Clone, Default)]
pub struct NoHealing;

impl Healer for NoHealing {
    fn name(&self) -> &str {
        "no_healing"
    }

    fn observe(&mut self, _outcome: &TickOutcome) -> Vec<FixAction> {
        Vec::new()
    }
}

/// Summary of a completed scenario run.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// Label of the healer that drove the run.
    pub healer: String,
    /// The full metric time series of the run.
    pub series: SeriesStore,
    /// Failure episodes and recovery times.
    pub recovery: RecoveryLog,
    /// Ticks simulated.
    pub ticks: u64,
    /// Requests that arrived over the run.
    pub arrived: u64,
    /// Requests that completed successfully.
    pub completed: u64,
    /// Requests that failed.
    pub errors: u64,
    /// Fraction of ticks with a confirmed SLO violation.
    pub violation_fraction: f64,
    /// Total fixes initiated by the healer.
    pub fixes_initiated: u64,
}

impl ScenarioOutcome {
    /// Fraction of arrived requests that completed successfully.
    pub fn goodput_fraction(&self) -> f64 {
        if self.arrived == 0 {
            1.0
        } else {
            self.completed as f64 / self.arrived as f64
        }
    }

    /// A digest of everything observable in the outcome: every retained
    /// metric value (bit-exact), every failure episode, and all counters.
    ///
    /// Two runs with the same seed must produce the same fingerprint; the
    /// fleet determinism tests rely on this to assert byte-identical
    /// replica behaviour regardless of fleet size or thread interleaving.
    pub fn fingerprint(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        self.ticks.hash(&mut hasher);
        self.arrived.hash(&mut hasher);
        self.completed.hash(&mut hasher);
        self.errors.hash(&mut hasher);
        self.fixes_initiated.hash(&mut hasher);
        self.violation_fraction.to_bits().hash(&mut hasher);
        self.series.len().hash(&mut hasher);
        for sample in self.series.iter() {
            sample.tick().hash(&mut hasher);
            for value in sample.values() {
                value.to_bits().hash(&mut hasher);
            }
        }
        // Episodes field by field, so the digest says what an episode is
        // held to and not how its struct happens to be laid out.
        self.recovery.len().hash(&mut hasher);
        for episode in self.recovery.episodes() {
            (episode.detected_at, episode.recovered_at).hash(&mut hasher);
            (episode.primary_fault(), episode.primary_cause()).hash(&mut hasher);
            (episode.active_faults, episode.fixes_attempted.len()).hash(&mut hasher);
            for fix in &episode.fixes_attempted {
                (fix.kind, fix.target).hash(&mut hasher);
            }
            episode.escalated.hash(&mut hasher);
        }
        hasher.finish()
    }
}

/// Drives a service + workload + fault source + healer, one resumable
/// tick at a time.
///
/// [`ScenarioRunner::run`] remains the one-shot entry point, but all the
/// bookkeeping lives *in* the runner now, so a fleet scheduler can
/// [`ScenarioRunner::step`] many replicas in any interleaving — round-robin
/// on one thread, to completion on parallel worker threads — and take an
/// [`ScenarioRunner::outcome`] snapshot whenever it likes.
///
/// Faults enter the run through a pluggable [`FaultSource`] — a scripted
/// [`InjectionPlan`](selfheal_faults::InjectionPlan) (wrapped in a
/// [`ScriptedSource`](selfheal_faults::ScriptedSource)), stochastic
/// demographic generation, a catalog sweep, or any custom implementation
/// handed to [`ScenarioRunner::with_faults`].
pub struct ScenarioRunner<H: Healer> {
    service: MultiTierService,
    workload: Box<dyn TraceSource>,
    faults: Box<dyn FaultSource>,
    healer: H,
    series: SeriesStore,
    recovery: RecoveryLog,
    fixes_initiated: u64,
    ticks_run: u64,
    surge_factor: f64,
    surge_until: u64,
    surge_next_id: u64,
}

impl<H: Healer> ScenarioRunner<H> {
    /// Creates a runner from already-boxed workload and fault sources —
    /// what the harness and the fleet engine hand over after building a
    /// `WorkloadChoice` and a `FaultChoice`.
    pub fn with_faults(
        service: MultiTierService,
        workload: Box<dyn TraceSource>,
        faults: Box<dyn FaultSource>,
        healer: H,
    ) -> Self {
        let series = SeriesStore::new(service.schema().clone(), 100_000);
        ScenarioRunner {
            service,
            workload,
            faults,
            healer,
            series,
            recovery: RecoveryLog::new(),
            fixes_initiated: 0,
            ticks_run: 0,
            surge_factor: 1.0,
            surge_until: 0,
            surge_next_id: Self::SURGE_ID_BASE,
        }
    }

    /// Id namespace for requests synthesized by a workload surge, far above
    /// anything a [`TraceSource`] emits, so overlay traffic never collides
    /// with recorded or generated request ids — see
    /// [`selfheal_faults::id_space`] for the lane manifest.
    pub(crate) const SURGE_ID_BASE: u64 = id_space::lane_base(id_space::SURGE_ID_BIT);

    /// Limits how many samples of history are retained (older samples are
    /// evicted); the default retains the full run for typical lengths.
    ///
    /// # Panics
    /// Panics if called after the first [`ScenarioRunner::step`] (the
    /// retained history would silently be dropped).
    pub fn with_series_capacity(mut self, capacity: usize) -> Self {
        assert_eq!(
            self.ticks_run, 0,
            "set the series capacity before stepping the runner"
        );
        self.series = SeriesStore::new(self.service.schema().clone(), capacity.max(1));
        self
    }

    /// Read access to the service.
    pub fn service(&self) -> &MultiTierService {
        &self.service
    }

    /// Replaces the fault source mid-run — the live-reconfiguration hook
    /// (e.g. the resident daemon's `RECONFIGURE`/`DRAIN` commands, applied
    /// at epoch barriers).  The new source is queried from the *current*
    /// tick onward; faults already injected into the service keep running
    /// to their natural end.
    pub fn set_faults(&mut self, faults: Box<dyn FaultSource>) {
        self.faults = faults;
    }

    /// Replaces the workload source mid-run (see
    /// [`set_faults`](Self::set_faults) for the semantics): the new trace
    /// feeds arrivals from the current tick onward.
    pub fn set_workload(&mut self, workload: Box<dyn TraceSource>) {
        self.workload = workload;
    }

    /// Ticks advanced so far.
    pub fn ticks_run(&self) -> u64 {
        self.ticks_run
    }

    /// Fix attempts the healer has initiated so far.
    pub fn fixes_initiated(&self) -> u64 {
        self.fixes_initiated
    }

    /// The episode log recorded so far (an episode may still be open).
    pub fn recovery(&self) -> &RecoveryLog {
        &self.recovery
    }

    /// Injects a fault into the running service *now*, outside the
    /// scheduled [`FaultSource`] — the hook fleet-level events (fault
    /// storms hitting a fraction of the fleet mid-run) use to reach one
    /// replica.  The fault behaves exactly as if the source had scheduled
    /// it at the current tick.
    pub fn inject(&mut self, fault: FaultSpec) {
        self.service.inject(fault);
    }

    /// Overlays a workload surge on the replica: until `until_tick`
    /// (exclusive), each tick's request batch is amplified by `factor`
    /// (≥ 1.0).  The extra requests are deterministic clones of the tick's
    /// own batch, cycled in order and re-stamped with ids from
    /// `ScenarioRunner::SURGE_ID_BASE`, so a surged run stays a pure
    /// function of the seed.  A new surge replaces any active one.
    pub fn apply_surge(&mut self, factor: f64, until_tick: u64) {
        self.surge_factor = factor.max(1.0);
        self.surge_until = until_tick;
    }

    /// Advances the scenario by exactly one tick: inject due faults, serve
    /// the tick's traffic, keep the episode books, let the healer react, and
    /// record the metric sample.  Returns the tick's outcome.
    pub fn step(&mut self) -> TickOutcome {
        let tick = self.service.current_tick();

        // Inject scheduled faults.
        for fault in self.faults.due_at(tick) {
            self.service.inject(fault);
        }

        // Serve the tick's traffic.
        let mut requests = self.workload.next_tick(tick);
        if tick < self.surge_until && self.surge_factor > 1.0 && !requests.is_empty() {
            let base = requests.len();
            let extra = (base as f64 * (self.surge_factor - 1.0)).round() as usize;
            for i in 0..extra {
                let template = &requests[i % base];
                let clone = Request::new(self.surge_next_id, template.kind, tick);
                self.surge_next_id += 1;
                requests.push(clone);
            }
        }
        let outcome = self.service.tick(&requests);

        // Episode bookkeeping: open on first confirmed violation, close
        // when the monitor reports the service compliant again.
        if !outcome.violations.is_empty() && !self.recovery.in_episode() {
            let active = self.service.active_faults();
            let primary = active.iter().next().map(|f| (f.spec.kind, f.spec.cause));
            self.recovery
                .open_episode(outcome.tick, primary, active.len());
        } else if self.recovery.in_episode() && !self.service.slo_violated() {
            self.recovery.close_episode(outcome.tick);
        }

        // Let the healing policy react.
        let actions = self.healer.observe(&outcome);
        for action in actions {
            self.recovery.record_fix(action);
            self.service.apply_fix(action);
            self.fixes_initiated += 1;
        }

        self.series.push_copy(&outcome.sample);
        self.ticks_run += 1;
        outcome
    }

    /// Snapshot of the run so far.  Does not consume the runner: the fleet
    /// scheduler keeps stepping replicas after reading interim outcomes.
    pub fn outcome(&self) -> ScenarioOutcome {
        let mut recovery = self.recovery.clone();
        recovery.finish();
        let (arrived, completed, errors) = self.service.totals();
        ScenarioOutcome {
            healer: self.healer.name().to_string(),
            series: self.series.clone(),
            recovery,
            ticks: self.ticks_run,
            arrived,
            completed,
            errors,
            violation_fraction: self.service.violation_fraction(),
            fixes_initiated: self.fixes_initiated,
        }
    }

    /// Runs the scenario for `ticks` further ticks and returns the outcome
    /// together with the runner itself (so learned healer state can be
    /// reused).
    pub fn run(mut self, ticks: u64) -> (ScenarioOutcome, Self) {
        for _ in 0..ticks {
            self.step();
        }
        (self.outcome(), self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ServiceConfig;
    use selfheal_faults::{
        FaultKind, FaultTarget, FixKind, InjectionPlan, InjectionPlanBuilder, ScriptedSource,
    };
    use selfheal_workload::{ArrivalProcess, TraceGenerator, WorkloadMix};

    impl<H: Healer> ScenarioRunner<H> {
        /// Read access to the healer (e.g. to inspect learned state afterwards).
        pub(crate) fn healer(&self) -> &H {
            &self.healer
        }
    }

    fn runner<H: Healer>(healer: H, plan: InjectionPlan) -> ScenarioRunner<H> {
        let config = ServiceConfig::tiny();
        let service = MultiTierService::new(config);
        let workload = TraceGenerator::new(
            WorkloadMix::bidding(),
            ArrivalProcess::Constant { rate: 40.0 },
            11,
        );
        ScenarioRunner::with_faults(
            service,
            Box::new(workload),
            Box::new(ScriptedSource::new(plan)),
            healer,
        )
    }

    /// A trivial healer that always requests a full restart when a violation
    /// is confirmed and nothing is already in progress.
    struct RestartOnViolation {
        in_flight: bool,
    }

    impl Healer for RestartOnViolation {
        fn name(&self) -> &str {
            "restart_on_violation"
        }

        fn observe(&mut self, outcome: &TickOutcome) -> Vec<FixAction> {
            if !outcome.completed_fixes.is_empty() {
                self.in_flight = false;
            }
            if !outcome.violations.is_empty() && !self.in_flight {
                self.in_flight = true;
                vec![FixAction::untargeted(FixKind::FullServiceRestart)]
            } else {
                Vec::new()
            }
        }
    }

    #[test]
    fn healthy_run_has_no_episodes() {
        let (outcome, _) = runner(NoHealing, InjectionPlan::empty()).run(80);
        assert_eq!(outcome.recovery.len(), 0);
        assert_eq!(outcome.violation_fraction, 0.0);
        assert_eq!(outcome.fixes_initiated, 0);
        assert!(outcome.goodput_fraction() > 0.99);
        assert_eq!(outcome.series.len(), 80);
        assert_eq!(outcome.ticks, 80);
    }

    #[test]
    fn unhealed_fault_leaves_an_open_ended_episode() {
        let plan = InjectionPlanBuilder::new()
            .inject(
                20,
                FaultKind::BottleneckedTier,
                FaultTarget::DatabaseTier,
                0.95,
            )
            .build();
        let (outcome, runner) = runner(NoHealing, plan).run(120);
        assert_eq!(outcome.recovery.len(), 1);
        assert_eq!(outcome.recovery.episodes()[0].recovery_ticks(), None);
        assert!(outcome.violation_fraction > 0.3);
        assert_eq!(runner.healer().name(), "no_healing");
    }

    #[test]
    fn restart_healer_recovers_and_is_recorded() {
        let plan = InjectionPlanBuilder::new()
            .inject(
                20,
                FaultKind::UnhandledException,
                FaultTarget::Ejb { index: 1 },
                0.9,
            )
            .build();
        let (outcome, _) = runner(RestartOnViolation { in_flight: false }, plan).run(600);
        assert!(outcome.fixes_initiated >= 1);
        assert_eq!(outcome.recovery.len(), 1);
        let ep = &outcome.recovery.episodes()[0];
        assert!(
            ep.recovery_ticks().is_some(),
            "restart must eventually recover the service"
        );
        assert!(ep.escalated);
        // The restart is slow: recovery takes at least the restart duration.
        assert!(ep.recovery_ticks().unwrap() >= 300);
    }

    #[test]
    fn series_capacity_limits_history() {
        let (outcome, _) = runner(NoHealing, InjectionPlan::empty())
            .with_series_capacity(10)
            .run(50);
        assert_eq!(outcome.series.len(), 10);
    }
}
