//! The multitier service simulator: one tick of end-to-end behaviour.

use crate::actuator::{CompletedFix, FixActuator};
use crate::config::ServiceConfig;
use crate::db::DatabaseTier;
use crate::ejb::EjbGraph;
use crate::faults_runtime::{ActiveFaults, CallEffects, SimTier};
use crate::metrics::MetricsCatalog;
use crate::resource::TierResource;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use selfheal_faults::{FaultId, FaultSpec, FaultTarget, FixAction, FixCatalog, FixId, FixKind};
use selfheal_telemetry::{Sample, Schema, Slo, SloMonitor, SloViolation};
use selfheal_workload::{Request, RequestKind};

/// A fix that completed during a tick, together with the faults it repaired.
#[derive(Debug, Clone, PartialEq)]
pub struct CompletedFixReport {
    /// The fix attempt id.
    pub fix_id: FixId,
    /// The action that completed.
    pub action: FixAction,
    /// Tick at which the fix was initiated.
    pub started_at: u64,
    /// Tick at which the fix completed.
    pub completed_at: u64,
    /// Ids of the faults the fix actually repaired (ground truth; empty when
    /// the fix did not address any active fault).
    pub repaired_faults: Vec<FaultId>,
}

/// Everything observable about one simulation tick.
#[derive(Debug, Clone)]
pub struct TickOutcome {
    /// The tick that just completed.
    pub tick: u64,
    /// The metric sample emitted for the tick.
    pub sample: Sample,
    /// SLO violations confirmed during the tick.
    pub violations: Vec<SloViolation>,
    /// Requests that arrived.
    pub arrived: usize,
    /// Requests that completed successfully.
    pub completed: usize,
    /// Requests that failed (errors, timeouts, shed load).
    pub errors: usize,
    /// Fixes that finished being applied during the tick.
    pub completed_fixes: Vec<CompletedFixReport>,
}

/// What serving one request of a kind takes, fixed per service: its demand
/// on the web and application tiers, [`EjbGraph::path`]'s EJB calls with
/// their counts as the `f64` they are accumulated in, and per table access
/// `(table, rows, is_write, nominal_ms)` — the kind's database demand is
/// split across its accesses proportionally to the rows each touches.
#[derive(Debug, Clone, PartialEq)]
struct KindPlan {
    web_ms: f64,
    app_ms: f64,
    ejb_calls: Vec<(usize, f64)>,
    accesses: Vec<(usize, f64, bool, f64)>,
}

impl KindPlan {
    fn new(graph: &EjbGraph, kind: RequestKind) -> Self {
        let (demand, path) = (kind.demand(), graph.path(kind));
        let total_rows: f64 = path.table_accesses.iter().map(|(_, r, _)| *r).sum();
        let planned = |&(table, rows, is_write): &(usize, f64, bool)| {
            let share = if total_rows > 0.0 {
                rows / total_rows
            } else {
                1.0
            };
            (table, rows, is_write, demand.db_ms * share)
        };
        let counted = |&(ejb, calls): &(usize, u32)| (ejb, calls as f64);
        KindPlan {
            web_ms: demand.web_ms,
            app_ms: demand.app_ms,
            ejb_calls: path.ejb_calls.iter().map(counted).collect(),
            accesses: path.table_accesses.iter().map(planned).collect(),
        }
    }
}

/// The simulated three-tier service.
#[derive(Debug, Clone)]
pub struct MultiTierService {
    config: ServiceConfig,
    fix_catalog: FixCatalog,
    metrics: MetricsCatalog,
    /// The plan of every request kind, indexed by [`RequestKind::code`]:
    /// plans are fixed per service, so they are built once and not per
    /// request.
    plans: [KindPlan; RequestKind::ALL.len()],
    /// Per-EJB call and error counts and per-table access counts of the
    /// tick being simulated: zeroed at its start, not reallocated.  They
    /// are copied into the sample at the end and not counted there directly
    /// — with hundreds of faults active that made the fault scans between
    /// the counts a third slower (CHANGES.md, PR 19).
    ejb_calls: Vec<f64>,
    ejb_errors: Vec<f64>,
    table_accesses: Vec<f64>,
    /// What the active faults do to each EJB call and table access,
    /// refilled once per tick.
    call_effects: CallEffects,
    web: TierResource,
    app: TierResource,
    db_resource: TierResource,
    db: DatabaseTier,
    faults: ActiveFaults,
    actuator: FixActuator,
    slo_monitor: SloMonitor,
    provision: [f64; 3],
    rng: StdRng,
    current_tick: u64,
    total_arrived: u64,
    total_completed: u64,
    total_errors: u64,
}

impl MultiTierService {
    /// Creates a service with the given configuration.
    pub fn new(config: ServiceConfig) -> Self {
        config.validate();
        let metrics = MetricsCatalog::build(&config);
        let slo_monitor = SloMonitor::new(
            vec![
                Slo::upper_bound("response_time", metrics.response_ms, config.slo_response_ms),
                Slo::upper_bound("error_rate", metrics.error_rate, config.slo_error_rate),
            ],
            config.slo_window,
            config.slo_confirm_after,
        );
        let graph = EjbGraph::new(config.ejb_count, config.table_count);
        MultiTierService {
            plans: RequestKind::ALL.map(|kind| KindPlan::new(&graph, kind)),
            ejb_calls: vec![0.0; config.ejb_count],
            ejb_errors: vec![0.0; config.ejb_count],
            table_accesses: vec![0.0; config.table_count],
            call_effects: CallEffects::new(config.ejb_count, config.table_count),
            web: TierResource::new(config.web_capacity_ms),
            app: TierResource::new(config.app_capacity_ms),
            db_resource: TierResource::new(config.db_capacity_ms),
            db: DatabaseTier::new(
                config.table_count,
                config.buffer_pool_pages,
                config.table_working_set_pages,
                config.staleness_threshold_writes,
            ),
            faults: ActiveFaults::new(),
            actuator: FixActuator::new(),
            slo_monitor,
            provision: [1.0; 3],
            rng: StdRng::seed_from_u64(config.seed),
            current_tick: 0,
            total_arrived: 0,
            total_completed: 0,
            total_errors: 0,
            metrics,
            fix_catalog: FixCatalog::standard(),
            config,
        }
    }

    /// The metric schema emitted by [`MultiTierService::tick`].
    pub fn schema(&self) -> &Schema {
        self.metrics.schema()
    }

    /// The current tick (number of completed ticks).
    pub fn current_tick(&self) -> u64 {
        self.current_tick
    }

    /// The currently active faults (ground truth — healing policies must not
    /// read this; the benchmarks use it for scoring).
    pub fn active_faults(&self) -> &ActiveFaults {
        &self.faults
    }

    /// Returns `true` if any SLO is currently in confirmed violation.
    pub fn slo_violated(&self) -> bool {
        self.slo_monitor.any_violated()
    }

    /// Fraction of ticks so far with at least one confirmed SLO violation.
    pub fn violation_fraction(&self) -> f64 {
        self.slo_monitor.violation_fraction()
    }

    /// Lifetime request counters: `(arrived, completed, errors)`.
    pub fn totals(&self) -> (u64, u64, u64) {
        (self.total_arrived, self.total_completed, self.total_errors)
    }

    /// Injects a fault, active from the next tick onward.
    pub fn inject(&mut self, fault: FaultSpec) {
        self.faults.activate(fault, self.current_tick);
    }

    /// Starts applying a fix.  A full service restart supersedes (cancels)
    /// any narrower fixes still in progress.
    pub fn apply_fix(&mut self, action: FixAction) -> FixId {
        if action.kind == FixKind::FullServiceRestart {
            self.actuator.cancel_all();
        }
        self.actuator.start(action, self.current_tick)
    }

    /// Simulates one tick with the given arrived requests.
    ///
    /// What a tick allocates does not depend on its batch: each request's
    /// path comes from the table built with the service, the per-EJB and
    /// per-table counts are kept in the service, and the SLO windows are
    /// evaluated where they lie.  A tick that confirms no violation and
    /// completes no fix allocates the sample's row and nothing else
    /// (`tests/alloc.rs`).
    pub fn tick(&mut self, requests: &[Request]) -> TickOutcome {
        let tick = self.current_tick;

        // 1. Fixes that finish this tick take effect before traffic is served.
        let completed = self.actuator.advance_tick(tick);
        let completed_fixes: Vec<CompletedFixReport> = completed
            .into_iter()
            .map(|c| self.apply_completed_fix(c))
            .collect();

        // 2. Capacity available this tick: provisioning × fault effects,
        //    degraded further by the disruption of in-progress fixes.
        let factors = [
            (SimTier::Web, self.faults.capacity_factor(SimTier::Web)),
            (SimTier::App, self.faults.capacity_factor(SimTier::App)),
            (SimTier::Db, self.faults.capacity_factor(SimTier::Db)),
        ];
        for (tier, fault_factor) in factors {
            let provision = self.provision[tier_index(tier)];
            let disruption = self.actuator.available_fraction(tier);
            let resource = self.resource_mut(tier);
            resource.set_capacity_factor(provision * fault_factor);
            resource.set_disruption(disruption);
        }

        // 3. Buffer-related faults shrink the effective buffer pool.
        if let Some(severity) = self.faults.buffer_fault_severity() {
            self.db
                .buffer_mut()
                .shrink_to_fraction(1.0 - 0.85 * severity);
        }

        // 4. Route every request through the tiers.
        let mut web_demand = 0.0;
        let mut app_demand = 0.0;
        let mut db_demand = 0.0;
        let mut extra_latency_total = 0.0;
        let mut errors = 0usize;
        self.ejb_calls.fill(0.0);
        self.ejb_errors.fill(0.0);
        self.table_accesses.fill(0.0);

        let service_error_p = self.faults.service_error_probability();
        let network_extra = self.faults.network_extra_latency_ms();
        self.call_effects.fill(&self.faults);

        for request in requests {
            let plan = &self.plans[request.kind.code()];

            // Does the request fail outright?
            let mut failed = self.rng.gen_bool(service_error_p.clamp(0.0, 1.0));
            let mut extra_latency = network_extra;
            for (ejb, calls) in &plan.ejb_calls {
                // Per-EJB call accounting (invasive instrumentation).
                self.ejb_calls[*ejb] += *calls;
                let p = 1.0 - self.call_effects.ejb_ok_p[*ejb];
                if p > 0.0 && self.rng.gen_bool(p.clamp(0.0, 1.0)) {
                    failed = true;
                    self.ejb_errors[*ejb] += 1.0;
                }
                extra_latency += self.call_effects.ejb_extra_ms[*ejb];
            }

            // Database work.
            let mut request_db_ms = 0.0;
            let mut request_lock_ms = 0.0;
            for &(table, rows, is_write, nominal_ms) in &plan.accesses {
                self.table_accesses[table] += 1.0;
                let charge = self.db.charge_access(
                    table,
                    rows,
                    is_write,
                    nominal_ms,
                    self.call_effects.plan_fault[table],
                    self.call_effects.contention_fault[table],
                );
                if is_write {
                    self.db.buffer_mut().record_write(rows);
                }
                // Lock waits occupy a database worker/connection while the
                // request waits, so they consume tier capacity as well as
                // adding to the request's latency.
                request_db_ms += nominal_ms + charge.extra_ms + charge.lock_wait_ms;
                request_lock_ms += charge.lock_wait_ms;
            }

            // Failed requests abort partway through and consume roughly half
            // of their nominal demand.
            let scale = if failed { 0.5 } else { 1.0 };
            web_demand += plan.web_ms * scale;
            app_demand += plan.app_ms * scale;
            db_demand += request_db_ms * scale;
            extra_latency_total += extra_latency + request_lock_ms;
            if failed {
                errors += 1;
            }
        }

        // 5. Offer aggregate demand to the tiers.
        let web_tick = self.web.offer(web_demand);
        let app_tick = self.app.offer(app_demand);
        let db_tick = self.db_resource.offer(db_demand);

        // Overloaded tiers shed work: those requests count as errors.
        let arrived = requests.len();
        let shed_fraction = web_tick
            .shed_fraction
            .max(app_tick.shed_fraction)
            .max(db_tick.shed_fraction)
            .clamp(0.0, 1.0);
        let shed = ((arrived - errors) as f64 * shed_fraction).round() as usize;
        errors = (errors + shed).min(arrived);
        let completed_requests = arrived - errors;

        // 6. Mean end-to-end response time of the tick's requests.
        let mean_response_ms = if arrived > 0 {
            let n = arrived as f64;
            (web_demand / n) * web_tick.latency_multiplier
                + (app_demand / n) * app_tick.latency_multiplier
                + (db_demand / n) * db_tick.latency_multiplier
                + extra_latency_total / n
        } else {
            0.0
        };

        // 7. Emit the metric sample.
        let db_counters = self.db.finish_tick();
        let m = &self.metrics;
        let mut sample = Sample::zeroed(m.schema(), tick);
        sample.set(m.response_ms, mean_response_ms);
        sample.set(m.throughput, completed_requests as f64);
        sample.set(m.arrivals, arrived as f64);
        sample.set(
            m.error_rate,
            if arrived > 0 {
                errors as f64 / arrived as f64
            } else {
                0.0
            },
        );
        sample.set(m.web_util, web_tick.utilization);
        sample.set(m.app_util, app_tick.utilization);
        sample.set(m.db_util, db_tick.utilization);
        sample.set(m.web_queue_ms, web_tick.backlog_ms);
        sample.set(m.app_queue_ms, app_tick.backlog_ms);
        sample.set(m.db_queue_ms, db_tick.backlog_ms);
        sample.set(m.buffer_miss_rate, db_counters.buffer_miss_rate);
        sample.set(m.rows_read, db_counters.rows_read);
        sample.set(m.rows_written, db_counters.rows_written);
        sample.set(m.lock_wait_ms, db_counters.lock_wait_ms);
        sample.set(m.plan_misestimate, db_counters.plan_misestimate);
        for (i, calls) in self.ejb_calls.iter().enumerate() {
            sample.set(m.ejb_calls[i], *calls);
        }
        for (i, errs) in self.ejb_errors.iter().enumerate() {
            sample.set(m.ejb_errors[i], *errs);
        }
        for (j, accesses) in self.table_accesses.iter().enumerate() {
            sample.set(m.table_accesses[j], *accesses);
        }

        // 8. Failure detection.
        let violations = self.slo_monitor.observe(&sample);

        // 9. Bookkeeping.
        self.total_arrived += arrived as u64;
        self.total_completed += completed_requests as u64;
        self.total_errors += errors as u64;
        self.faults.advance_tick();
        self.current_tick += 1;

        TickOutcome {
            tick,
            sample,
            violations,
            arrived,
            completed: completed_requests,
            errors,
            completed_fixes,
        }
    }

    fn resource_mut(&mut self, tier: SimTier) -> &mut TierResource {
        match tier {
            SimTier::Web => &mut self.web,
            SimTier::App => &mut self.app,
            SimTier::Db => &mut self.db_resource,
        }
    }

    /// Applies the state changes of a fix that just completed and removes
    /// the faults it repairs.
    fn apply_completed_fix(&mut self, completed: CompletedFix) -> CompletedFixReport {
        let action = completed.action;
        // Side effects of the repair mechanism itself.
        match action.kind {
            FixKind::UpdateStatistics | FixKind::RebuildIndex => {
                if let Some(FaultTarget::Table { index }) = action.target {
                    self.db.update_statistics(index);
                } else {
                    for t in 0..self.config.table_count {
                        self.db.update_statistics(t);
                    }
                }
            }
            FixKind::RepartitionTable => {
                if let Some(FaultTarget::Table { index }) = action.target {
                    self.db.repartition_table(index);
                }
            }
            FixKind::RepartitionMemory | FixKind::RollbackConfiguration => {
                self.db.repartition_memory();
            }
            FixKind::ProvisionResources => {
                if let Some(target) = action.target {
                    if let Some(tier) = SimTier::of_target(&target) {
                        self.provision[tier_index(tier)] =
                            (self.provision[tier_index(tier)] * 1.6).min(4.0);
                    }
                }
            }
            FixKind::RebootTier => {
                if let Some(target) = action.target {
                    match SimTier::of_target(&target) {
                        Some(SimTier::Web) => self.web.flush(),
                        Some(SimTier::App) => self.app.flush(),
                        Some(SimTier::Db) => {
                            self.db_resource.flush();
                            self.db.restart();
                        }
                        None => {}
                    }
                }
            }
            FixKind::FullServiceRestart => {
                self.web.flush();
                self.app.flush();
                self.db_resource.flush();
                self.db.restart();
                self.slo_monitor.reset();
            }
            FixKind::NotifyAdministrator => {
                // The administrator eventually repairs whatever is wrong:
                // modelled as a full restart's worth of cleanup without the
                // automated side effects.
                self.db.restart();
            }
            _ => {}
        }

        let repaired_faults = if action.kind == FixKind::NotifyAdministrator {
            // Human intervention repairs everything, at human timescales.
            self.faults.clear()
        } else {
            self.faults.resolve_with_fix(&action, &self.fix_catalog)
        };

        CompletedFixReport {
            fix_id: completed.id,
            action,
            started_at: completed.started_at,
            completed_at: completed.completed_at,
            repaired_faults,
        }
    }
}

fn tier_index(tier: SimTier) -> usize {
    match tier {
        SimTier::Web => 0,
        SimTier::App => 1,
        SimTier::Db => 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use selfheal_faults::FaultKind;
    use selfheal_workload::{ArrivalProcess, TraceGenerator, WorkloadMix};

    impl MultiTierService {
        /// The metric-id catalogue (named handles into the schema).
        pub(crate) fn metrics(&self) -> &MetricsCatalog {
            &self.metrics
        }

        /// The service configuration.
        pub(crate) fn config(&self) -> &ServiceConfig {
            &self.config
        }

        /// Returns `true` while any fix is still being applied.
        pub(crate) fn fix_in_progress(&self) -> bool {
            self.actuator.busy()
        }
    }

    fn workload() -> TraceGenerator {
        TraceGenerator::new(
            WorkloadMix::bidding(),
            ArrivalProcess::Constant { rate: 40.0 },
            7,
        )
    }

    fn run_ticks(
        service: &mut MultiTierService,
        gen: &mut TraceGenerator,
        n: u64,
    ) -> Vec<TickOutcome> {
        (0..n)
            .map(|_| {
                let t = service.current_tick();
                let requests = gen.tick(t);
                service.tick(&requests)
            })
            .collect()
    }

    #[test]
    fn healthy_service_meets_its_slos() {
        let mut service = MultiTierService::new(ServiceConfig::tiny());
        let mut gen = workload();
        let outcomes = run_ticks(&mut service, &mut gen, 60);
        assert!(!service.slo_violated());
        let last = outcomes.last().unwrap();
        assert!(last.errors == 0, "healthy service should not error");
        assert!(last.sample.get(service.metrics().response_ms) < service.config().slo_response_ms);
        let (arrived, completed, errors) = service.totals();
        assert_eq!(arrived, completed + errors);
        assert_eq!(service.violation_fraction(), 0.0);
    }

    #[test]
    fn database_bottleneck_violates_the_response_time_slo() {
        let mut service = MultiTierService::new(ServiceConfig::tiny());
        let mut gen = workload();
        run_ticks(&mut service, &mut gen, 20);
        service.inject(FaultSpec::new(
            FaultId(1),
            FaultKind::BottleneckedTier,
            FaultTarget::DatabaseTier,
            0.95,
        ));
        let outcomes = run_ticks(&mut service, &mut gen, 40);
        assert!(service.slo_violated(), "bottleneck must violate the SLO");
        let violated = outcomes.iter().any(|o| !o.violations.is_empty());
        assert!(violated);
        // The symptom is visible in the db utilization metric.
        let db_util = outcomes
            .last()
            .unwrap()
            .sample
            .get(service.metrics().db_util);
        assert!(db_util > 0.9, "db utilization {db_util}");
    }

    #[test]
    fn unhandled_exception_raises_the_error_rate_for_its_ejb() {
        let mut service = MultiTierService::new(ServiceConfig::tiny());
        let mut gen = workload();
        run_ticks(&mut service, &mut gen, 10);
        // EJB 1 is the QueryEngine used by browse/search requests.
        service.inject(FaultSpec::new(
            FaultId(2),
            FaultKind::UnhandledException,
            FaultTarget::Ejb { index: 1 },
            0.9,
        ));
        let outcomes = run_ticks(&mut service, &mut gen, 30);
        let last = outcomes.last().unwrap();
        let m = service.metrics();
        assert!(last.sample.get(m.error_rate) > 0.1);
        assert!(last.sample.get(m.ejb_errors[1]) > 0.0);
        assert_eq!(last.sample.get(m.ejb_errors[3]), 0.0);
        assert!(service.slo_violated());
    }

    #[test]
    fn targeted_microreboot_recovers_the_service() {
        let mut service = MultiTierService::new(ServiceConfig::tiny());
        let mut gen = workload();
        run_ticks(&mut service, &mut gen, 10);
        service.inject(FaultSpec::new(
            FaultId(3),
            FaultKind::UnhandledException,
            FaultTarget::Ejb { index: 1 },
            0.9,
        ));
        run_ticks(&mut service, &mut gen, 20);
        assert!(service.slo_violated());

        service.apply_fix(FixAction::targeted(
            FixKind::MicrorebootEjb,
            FaultTarget::Ejb { index: 1 },
        ));
        let outcomes = run_ticks(&mut service, &mut gen, 30);
        assert!(
            !service.slo_violated(),
            "microreboot should clear the violation"
        );
        assert!(service.active_faults().is_empty());
        let repaired: Vec<_> = outcomes
            .iter()
            .flat_map(|o| o.completed_fixes.iter())
            .filter(|f| !f.repaired_faults.is_empty())
            .collect();
        assert_eq!(repaired.len(), 1);
    }

    #[test]
    fn wrong_fix_does_not_repair_the_fault() {
        let mut service = MultiTierService::new(ServiceConfig::tiny());
        let mut gen = workload();
        run_ticks(&mut service, &mut gen, 10);
        service.inject(FaultSpec::new(
            FaultId(4),
            FaultKind::BufferContention,
            FaultTarget::DatabaseTier,
            0.9,
        ));
        run_ticks(&mut service, &mut gen, 15);
        service.apply_fix(FixAction::targeted(
            FixKind::MicrorebootEjb,
            FaultTarget::Ejb { index: 0 },
        ));
        run_ticks(&mut service, &mut gen, 15);
        assert_eq!(
            service.active_faults().len(),
            1,
            "fault must survive the wrong fix"
        );
    }

    #[test]
    fn full_restart_repairs_but_disrupts() {
        let mut service = MultiTierService::new(ServiceConfig::tiny());
        let mut gen = workload();
        run_ticks(&mut service, &mut gen, 10);
        service.inject(FaultSpec::new(
            FaultId(5),
            FaultKind::SoftwareAging,
            FaultTarget::AppTier,
            0.9,
        ));
        run_ticks(&mut service, &mut gen, 30);
        service.apply_fix(FixAction::untargeted(FixKind::FullServiceRestart));
        assert!(service.fix_in_progress());
        // While the restart runs the service completes little to no work.
        let during = run_ticks(&mut service, &mut gen, 5);
        let total_completed: usize = during.iter().map(|o| o.completed).sum();
        let total_arrived: usize = during.iter().map(|o| o.arrived).sum();
        assert!(
            (total_completed as f64) < 0.6 * total_arrived as f64,
            "restart should disrupt traffic: completed {total_completed} of {total_arrived}"
        );
        // After the restart's duration the fault is gone.
        run_ticks(&mut service, &mut gen, 400);
        assert!(service.active_faults().is_empty());
        assert!(!service.slo_violated());
    }

    #[test]
    fn suboptimal_plan_fault_shows_up_in_plan_metrics_and_stats_update_fixes_it() {
        let mut service = MultiTierService::new(ServiceConfig::tiny());
        let mut gen = workload();
        run_ticks(&mut service, &mut gen, 10);
        service.inject(FaultSpec::new(
            FaultId(6),
            FaultKind::SuboptimalQueryPlan,
            FaultTarget::Table { index: 0 },
            0.9,
        ));
        let during = run_ticks(&mut service, &mut gen, 20);
        let response_id = service.metrics().response_ms;
        let resp_during = during.last().unwrap().sample.get(response_id);
        service.apply_fix(FixAction::targeted(
            FixKind::UpdateStatistics,
            FaultTarget::Table { index: 0 },
        ));
        let after = run_ticks(&mut service, &mut gen, 40);
        assert!(service.active_faults().is_empty());
        let resp_after = after.last().unwrap().sample.get(response_id);
        assert!(
            resp_after < resp_during,
            "response time should improve after statistics update ({resp_after} vs {resp_during})"
        );
    }

    #[test]
    fn the_path_table_is_the_call_graph_for_every_kind() {
        for config in [ServiceConfig::tiny(), ServiceConfig::rubis_default()] {
            let graph = EjbGraph::new(config.ejb_count, config.table_count);
            let service = MultiTierService::new(config.clone());
            for kind in RequestKind::ALL {
                let (plan, path, demand) =
                    (&service.plans[kind.code()], graph.path(kind), kind.demand());
                assert_eq!((plan.web_ms, plan.app_ms), (demand.web_ms, demand.app_ms));
                let calls = path.ejb_calls.iter().map(|(e, n)| (*e, *n as f64));
                assert_eq!(plan.ejb_calls, calls.collect::<Vec<_>>(), "{kind}");
                // Every access is the path's, charged what the request loop
                // used to work out for every request.
                let total_rows: f64 = path.table_accesses.iter().map(|(_, r, _)| *r).sum();
                let accesses = path.table_accesses.iter().map(|&(table, rows, is_write)| {
                    let nominal_ms = demand.db_ms * (rows / total_rows);
                    (table, rows, is_write, nominal_ms.to_bits())
                });
                let planned = plan
                    .accesses
                    .iter()
                    .map(|&(t, r, w, ms)| (t, r, w, ms.to_bits()));
                assert!(planned.eq(accesses), "{kind}");
                // `tiny` has fewer EJBs and tables than the graph has
                // roles, so its indices wrap.
                assert!(plan.ejb_calls.iter().all(|(e, _)| *e < config.ejb_count));
                assert!(plan.accesses.iter().all(|a| a.0 < config.table_count));
            }
        }
    }

    #[test]
    fn empty_tick_is_well_formed() {
        let mut service = MultiTierService::new(ServiceConfig::tiny());
        let outcome = service.tick(&[]);
        assert_eq!(outcome.arrived, 0);
        assert_eq!(outcome.completed, 0);
        assert_eq!(outcome.errors, 0);
        assert!(outcome.sample.is_finite());
        assert_eq!(outcome.sample.get(service.metrics().throughput), 0.0);
    }
}
