//! Scenario runner: workload + fault injection + a pluggable healing policy.
//!
//! The runner is the harness every experiment uses: it drives the
//! [`MultiTierService`] over a workload trace and a pluggable fault source
//! (a scripted injection plan, stochastic demographic generation, a
//! catalog sweep — anything implementing
//! [`selfheal_faults::FaultSource`]), hands each tick's observations to a
//! [`Healer`], applies whatever fixes the healer requests, and keeps the
//! books (failure episodes, recovery times, fix attempts).
//!
//! The books are folds, constant in simulated time: the episode log's
//! counts and sums with its last few episodes, the counters, and a running
//! digest of every tick's metric sample and every episode as it closes.
//! No metric history is kept; [`ScenarioOutcome::fingerprint`] digests the
//! whole run all the same.

use crate::recovery::{FailureEpisode, RecoveryLog};
use crate::service::{MultiTierService, TickOutcome};
use selfheal_faults::id_space;
use selfheal_faults::{FailureCause, FaultKind, FaultSource, FaultSpec, FaultTarget, FixAction};
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
    /// The run's samples and episodes, folded as they happened.
    digest: Digest,
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

    /// A digest of everything observable in the run: every tick's metric
    /// values (bit-exact), every failure episode, and all counters — the
    /// whole run, whatever the runner retains, by a hash written out in this
    /// crate (FNV-1a over `u64` words), whatever the toolchain.
    ///
    /// Two runs with the same seed must produce the same fingerprint; the
    /// fleet determinism tests rely on this to assert byte-identical
    /// replica behaviour regardless of fleet size or thread interleaving.
    pub fn fingerprint(&self) -> u64 {
        let mut digest = self.digest;
        digest.fold([self.ticks, self.arrived, self.completed, self.errors]);
        digest.fold([self.fixes_initiated, self.violation_fraction.to_bits()]);
        digest.fold([self.recovery.len() as u64]);
        digest.0
    }
}

/// FNV-1a (Fowler–Noll–Vo) with the 64-bit offset basis and prime, applied
/// to whole `u64` words — a word is its eight little-endian bytes read as
/// one number.  A step xors one word into the state and multiplies the
/// state by the odd prime modulo 2⁶⁴; both are bijections of the state, so
/// changing any one word of an input changes the digest.
#[derive(Debug, Clone, Copy)]
struct Digest(u64);

impl Digest {
    /// The digest of no words: the offset basis.
    const EMPTY: Digest = Digest(0xcbf2_9ce4_8422_2325);
    /// 2⁴⁰ + 2⁸ + 0xb3.
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    fn fold(&mut self, words: impl IntoIterator<Item = u64>) {
        for word in words {
            self.0 = (self.0 ^ word).wrapping_mul(Self::PRIME);
        }
    }

    /// The episode that just closed, if one did, field by field: detected
    /// and recovered ticks, first fault's kind and cause, faults active at
    /// detection, the number of fixes attempted and each one's kind and
    /// target, escalated.  An optional word is two, presence (0 or 1) and
    /// value (0 when absent); an enum is its index in its `ALL` list; a fix
    /// target is its variant, 0 for none and the variants in declaration
    /// order from 1, and its component index (0 for a variant that names
    /// none).
    fn episode(&mut self, episode: Option<&FailureEpisode>) {
        fn index_in<T: PartialEq>(all: &[T], value: T) -> u64 {
            all.iter().position(|v| *v == value).expect("listed") as u64
        }
        let Some(episode) = episode else { return };
        let option = |word: Option<u64>| [u64::from(word.is_some()), word.unwrap_or(0)];
        let kind = episode
            .primary_fault()
            .map(|k| index_in(&FaultKind::ALL, k));
        self.fold([episode.detected_at]);
        self.fold(option(episode.recovered_at));
        self.fold(option(kind));
        self.fold([index_in(&FailureCause::ALL, episode.primary_cause())]);
        self.fold([episode.active_faults, episode.fixes_attempted.len()].map(|n| n as u64));
        for fix in &episode.fixes_attempted {
            let (variant, index) = match fix.target {
                None => (0, 0),
                Some(FaultTarget::WebTier) => (1, 0),
                Some(FaultTarget::Ejb { index }) => (2, index),
                Some(FaultTarget::AppTier) => (3, 0),
                Some(FaultTarget::Table { index }) => (4, index),
                Some(FaultTarget::Index { index }) => (5, index),
                Some(FaultTarget::DatabaseTier) => (6, 0),
                Some(FaultTarget::WholeService) => (7, 0),
            };
            self.fold([fix.kind.code() as u64, variant, index as u64]);
        }
        self.fold([u64::from(episode.escalated)]);
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
    recovery: RecoveryLog,
    digest: Digest,
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
        ScenarioRunner {
            service,
            workload,
            faults,
            healer,
            recovery: RecoveryLog::default(),
            digest: Digest::EMPTY,
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

    /// Does nothing: the runner keeps no metric history.
    #[deprecated(note = "the runner keeps no metric history; this does nothing")]
    #[doc(hidden)]
    pub fn with_series_capacity(self, _capacity: usize) -> Self {
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
    /// fold the metric sample into the digest.  Returns the tick's outcome.
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
            let closed = self.recovery.close_episode(Some(outcome.tick));
            self.digest.episode(closed);
        }

        // Let the healing policy react.
        let actions = self.healer.observe(&outcome);
        for action in actions {
            self.recovery.record_fix(action);
            self.service.apply_fix(action);
            self.fixes_initiated += 1;
        }

        let values = outcome.sample.values().iter().map(|v| v.to_bits());
        self.digest
            .fold(std::iter::once(outcome.sample.tick()).chain(values));
        self.ticks_run += 1;
        outcome
    }

    /// Snapshot of the run so far.  Does not consume the runner: the fleet
    /// scheduler keeps stepping replicas after reading interim outcomes.
    pub fn outcome(&self) -> ScenarioOutcome {
        let mut recovery = self.recovery.clone();
        let mut digest = self.digest;
        digest.episode(recovery.close_episode(None));
        let (arrived, completed, errors) = self.service.totals();
        ScenarioOutcome {
            healer: self.healer.name().to_string(),
            recovery,
            ticks: self.ticks_run,
            arrived,
            completed,
            errors,
            violation_fraction: self.service.violation_fraction(),
            fixes_initiated: self.fixes_initiated,
            digest,
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
    #[allow(deprecated)]
    fn the_fingerprint_does_not_depend_on_a_series_capacity() {
        let plan = || {
            InjectionPlanBuilder::new()
                .inject(
                    20,
                    FaultKind::BufferContention,
                    FaultTarget::DatabaseTier,
                    0.9,
                )
                .build()
        };
        let healer = || RestartOnViolation { in_flight: false };
        let (full, _) = runner(healer(), plan()).run(400);
        let (capped, _) = runner(healer(), plan()).with_series_capacity(10).run(400);
        assert!(!full.recovery.is_empty());
        assert_eq!(full.fingerprint(), capped.fingerprint());
    }

    /// FNV-1a by hand over the words 1, 2, 3.  The state starts at the
    /// offset basis h₀ = cbf29ce484222325; a step is h ← (h ⊕ w) · p mod
    /// 2⁶⁴ with p = 2⁴⁰ + 0x1b3, i.e. (x ≪ 40) + x · 0x1b3 for x = h ⊕ w:
    ///
    /// ```text
    /// w = 1: x = cbf29ce484222324, x≪40 = 2223240000000000,
    ///        x·0x1b3 = 8d40984c8601b62c, h₁ = af63bc4c8601b62c
    /// w = 2: x = af63bc4c8601b62e, x≪40 = 01b62e0000000000,
    ///        x·0x1b3 = 0678f607b4e8902a, h₂ = 082f2407b4e8902a
    /// w = 3: x = 082f2407b4e89029, x≪40 = e890290000000000,
    ///        x·0x1b3 = e81a3918672cf5ab, h₃ = d0aa6218672cf5ab
    /// ```
    #[test]
    fn the_digest_is_fnv_1a_over_words() {
        let mut digest = Digest::EMPTY;
        assert_eq!(digest.0, 0xcbf2_9ce4_8422_2325);
        digest.fold([1, 2, 3]);
        assert_eq!(digest.0, 0xd0aa_6218_672c_f5ab);
    }
}
