//! Service topology and capacity configuration.

use selfheal_telemetry::SloTargets;
use serde::{Deserialize, Serialize};

/// Configuration of the simulated three-tier service.
///
/// Capacities are expressed in milliseconds of service time available per
/// tick (one tick ≈ one second of wall-clock service time); a tier with
/// `capacity_ms = 4000` behaves like four fully parallel workers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServiceConfig {
    /// Number of EJB components in the application tier.
    pub ejb_count: usize,
    /// Number of tables in the database schema.
    pub table_count: usize,
    /// Web-tier capacity (ms of service per tick).
    pub web_capacity_ms: f64,
    /// Application-tier capacity (ms of service per tick).
    pub app_capacity_ms: f64,
    /// Database-tier capacity (ms of service per tick).
    pub db_capacity_ms: f64,
    /// Database buffer pool size, in pages.
    pub buffer_pool_pages: u64,
    /// Working-set size of each table, in pages (all tables use the same
    /// nominal working set; hot tables are modelled through access counts).
    pub table_working_set_pages: u64,
    /// Number of writes to a table after which its optimizer statistics are
    /// considered stale (drives the organic plan-quality degradation of
    /// Example 5 in the paper).
    pub staleness_threshold_writes: u64,
    /// Mean response-time SLO threshold (ms).
    pub slo_response_ms: f64,
    /// Error-rate SLO threshold (fraction of requests).
    pub slo_error_rate: f64,
    /// Throughput-floor SLO (requests per tick), applied only when offered
    /// load is above it.
    pub slo_throughput_floor: f64,
    /// Number of samples in the SLO evaluation window.
    pub slo_window: usize,
    /// Consecutive violating evaluations needed to confirm a failure.
    pub slo_confirm_after: u32,
    /// Seed for the service's internal randomness (latency jitter).
    pub seed: u64,
}

impl ServiceConfig {
    /// A small RUBiS-like service: 8 EJBs, 6 tables.  Under the default
    /// workload (bidding at Poisson 40) with no fault and no healer, the
    /// web, application and database tiers start near 33 %, 37 % and 54 %
    /// utilization; then the tables' optimizer statistics go stale with
    /// writes (`staleness_threshold_writes`) and the database saturates.
    /// The service is violated for none of the first 400 ticks, about a
    /// third of the first 1 600 and 0.91–0.92 of 12 500 (seeds 1–3).
    /// ROADMAP item 16 makes that organic failure a named one.
    pub fn rubis_default() -> Self {
        ServiceConfig {
            ejb_count: 8,
            table_count: 6,
            web_capacity_ms: 320.0,
            app_capacity_ms: 500.0,
            db_capacity_ms: 750.0,
            buffer_pool_pages: 6_000,
            table_working_set_pages: 900,
            staleness_threshold_writes: 50_000,
            slo_response_ms: 150.0,
            slo_error_rate: 0.05,
            slo_throughput_floor: 5.0,
            slo_window: 5,
            slo_confirm_after: 2,
            seed: 0xC0FFEE,
        }
    }

    /// A smaller, faster-to-simulate configuration used by unit tests.
    pub fn tiny() -> Self {
        ServiceConfig {
            ejb_count: 4,
            table_count: 3,
            buffer_pool_pages: 1_800,
            table_working_set_pages: 500,
            ..ServiceConfig::rubis_default()
        }
    }

    /// The SLO thresholds the healing layer cares about, bundled for healer
    /// constructors.
    pub fn slo_targets(&self) -> SloTargets {
        SloTargets::new(self.slo_response_ms, self.slo_error_rate)
    }

    /// Validates invariants, panicking with a descriptive message when the
    /// configuration is unusable.
    pub(crate) fn validate(&self) {
        assert!(self.ejb_count > 0, "service needs at least one EJB");
        assert!(self.table_count > 0, "service needs at least one table");
        assert!(self.web_capacity_ms > 0.0, "web capacity must be positive");
        assert!(self.app_capacity_ms > 0.0, "app capacity must be positive");
        assert!(self.db_capacity_ms > 0.0, "db capacity must be positive");
        assert!(self.buffer_pool_pages > 0, "buffer pool must have pages");
        assert!(self.slo_window > 0, "SLO window must be positive");
        assert!(
            self.slo_confirm_after > 0,
            "SLO confirmation count must be positive"
        );
    }
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig::rubis_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_configuration_is_valid() {
        ServiceConfig::rubis_default().validate();
        ServiceConfig::tiny().validate();
        assert_eq!(ServiceConfig::default(), ServiceConfig::rubis_default());
    }

    #[test]
    fn tiny_is_smaller_than_default() {
        let tiny = ServiceConfig::tiny();
        let full = ServiceConfig::rubis_default();
        assert!(tiny.ejb_count < full.ejb_count);
        assert!(tiny.table_count < full.table_count);
    }

    #[test]
    #[should_panic(expected = "at least one EJB")]
    fn zero_ejbs_is_rejected() {
        ServiceConfig {
            ejb_count: 0,
            ..ServiceConfig::tiny()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "db capacity must be positive")]
    fn nonpositive_capacity_is_rejected() {
        ServiceConfig {
            db_capacity_ms: 0.0,
            ..ServiceConfig::tiny()
        }
        .validate();
    }
}
