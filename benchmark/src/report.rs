//! The metric registry and the result line.
//!
//! `BENCHMARK.json` must list exactly the metrics named here (a unit test
//! compares the two), and every run prints exactly one kind of them: the
//! end-to-end metrics of an untraced run, the per-layer metrics of a traced
//! one.  A per-layer metric a workload does not exercise reads 0.

use crate::stats::Better;
use selfheal::jsonl::{JsonError, Scanner};
use std::collections::BTreeMap;

/// The five workloads, in the order the suite runs them.
pub const WORKLOADS: [&str; 5] = [
    "fleet_quiet",
    "fleet_faulty",
    "gateway_reads",
    "gateway_mixed",
    "daemon_restart",
];

/// One registered metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name, as printed and as later issues cite it.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the earlier value by which a later one may be worse
    /// (end-to-end metrics only).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    e2e(name, unit, Better::Lower, 0.0)
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    e2e(name, unit, Better::Higher, 0.0)
}

/// What a user of the system sees; every workload reports every one.
///
/// `op_ms` is the time of the one operation the workload's user waits for
/// and `work_per_s` the work done per host second: simulated ticks on the
/// fleet and gateway workloads, restored examples on `daemon_restart`.
/// Where a run repeats identical CPU-bound work (a fleet `run()`, a
/// restart) both are taken from the fastest repetition: the host only ever
/// adds time, in bursts and in phases, so the floor is what repeats (see
/// README.md, "Steadiness").
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("work_per_s", "1/s", Better::Higher, 0.25),
    e2e("op_ms", "ms", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.25),
];

/// Single layers, named after the crates.
pub const PER_LAYER: &[Metric] = &[
    // crates/workload, crates/faults: the inputs of one tick.
    lower("workload.next_tick_ns", "ns"),
    higher("workload.requests_per_tick", "count"),
    lower("faults.due_at_ns", "ns"),
    higher("faults.injected", "count"),
    // crates/sim, crates/telemetry: the tick itself.
    lower("sim.step_ns", "ns"),
    lower("sim.step_self_ns", "ns"),
    lower("sim.service_tick_ns", "ns"),
    lower("telemetry.series_push_ns", "ns"),
    // crates/core, crates/diagnosis, crates/learn: healing.
    lower("core.observe_ns", "ns"),
    lower("core.observe_self_ns", "ns"),
    lower("core.store_suggest_us", "us"),
    lower("core.store_suggest_calls", "count"),
    higher("core.suggest_hit_share", "share"),
    lower("core.store_record_us", "us"),
    lower("core.store_record_calls", "count"),
    lower("core.store_flush_ms", "ms"),
    lower("core.fixes_per_episode", "count"),
    lower("learn.knn_suggest_us", "us"),
    lower("learn.knn_update_us", "us"),
    lower("learn.adaboost_retrain_ms", "ms"),
    // crates/fleet: the scheduler around the ticks, and what it simulated.
    higher("fleet.seq_ticks_per_s", "1/s"),
    higher("fleet.seq_slice64_ticks_per_s", "1/s"),
    higher("fleet.par_slice64_ticks_per_s", "1/s"),
    higher("fleet.default_vs_seq", "share"),
    lower("fleet.sched_overhead_share", "share"),
    lower("fleet.fingerprint_mismatches", "count"),
    higher("fleet.goodput_fraction", "share"),
    lower("fleet.recovery_ticks_mean", "ticks"),
    higher("fleet.episodes_closed", "count"),
    // crates/daemon: epochs, the control plane, restart.
    lower("daemon.epoch_ms", "ms"),
    higher("daemon.idle_ticks_per_s", "1/s"),
    higher("daemon.loaded_ticks_per_s", "1/s"),
    lower("daemon.load_tick_cost", "share"),
    lower("daemon.cmd_p50_ms", "ms"),
    lower("daemon.cmd_p99_ms", "ms"),
    lower("daemon.advance_epoch_us", "us"),
    lower("daemon.actor_overhead_share", "share"),
    lower("daemon.parse_command_ns", "ns"),
    lower("daemon.render_command_ns", "ns"),
    lower("daemon.launch_ms", "ms"),
    // crates/gateway: the HTTP request path.
    lower("gateway.read_request_ns", "ns"),
    lower("gateway.route_ns", "ns"),
    lower("gateway.authorize_ns", "ns"),
    lower("gateway.response_write_ns", "ns"),
    lower("gateway.response_write_calls", "count"),
    lower("gateway.overhead_p50_ms", "ms"),
    lower("gateway.read_p50_ms", "ms"),
    lower("gateway.write_p50_ms", "ms"),
    lower("gateway.req_p99_ms", "ms"),
    higher("gateway.req_samples", "count"),
    lower("gateway.connect_p50_ms", "ms"),
    // crates/jsonl, crates/core: persistence.
    lower("jsonl.parse_line_ns", "ns"),
    lower("core.snapshot_load_ms", "ms"),
    lower("core.store_restore_ms", "ms"),
    lower("core.persist_create_ms", "ms"),
    lower("core.log_append_us", "us"),
    // The instrument itself.
    lower("trace.overhead_share", "share"),
];

/// The outcome of one run of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Whether every output the run checked was right.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Measured values by metric name.
    pub values: BTreeMap<String, f64>,
}

impl Default for Report {
    fn default() -> Self {
        Report {
            correct: true,
            attempted: 0,
            failed: 0,
            values: BTreeMap::new(),
        }
    }
}

impl Report {
    /// Records one measured value.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// Counts `attempted` operations of which `failed` failed.
    pub fn count(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Marks the run incorrect (and says why on standard error).
    pub fn fail_check(&mut self, why: &str) {
        eprintln!("check failed: {why}");
        self.correct = false;
    }

    /// The result line: exactly the metrics of `registry`, each with its
    /// unit.  An end-to-end metric that was not measured makes the run
    /// incorrect; a per-layer metric the workload does not exercise reads 0.
    pub fn to_json(&self, registry: &[Metric], require_all: bool) -> String {
        let mut correct = self.correct && self.attempted >= 1 && self.failed == 0;
        let mut metrics = String::new();
        for metric in registry {
            let value = match self.values.get(metric.name) {
                Some(value) if value.is_finite() => *value,
                Some(_) => {
                    correct = false;
                    0.0
                }
                None => {
                    correct &= !require_all;
                    0.0
                }
            };
            if !metrics.is_empty() {
                metrics.push(',');
            }
            metrics.push_str(&format!(
                "\"{}\":{{\"value\":{value},\"unit\":\"{}\"}}",
                metric.name, metric.unit
            ));
        }
        format!(
            "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
            self.attempted.max(1),
            self.failed
        )
    }

    /// Parses a result line back (the suite reads its children's).
    pub fn from_json(line: &str) -> Result<Report, JsonError> {
        let mut scanner = Scanner::new(line);
        let mut report = Report::default();
        each_member(&mut scanner, |scanner, key| {
            match key {
                "correct" => report.correct = scanner.parse_bool()?,
                "attempted" => report.attempted = scanner.parse_u64()?,
                "failed" => report.failed = scanner.parse_u64()?,
                "metrics" => each_member(scanner, |scanner, name| {
                    each_member(scanner, |scanner, field| {
                        if field == "value" {
                            report.values.insert(name.to_string(), scanner.parse_f64()?);
                        } else {
                            scanner.parse_string()?;
                        }
                        Ok(())
                    })
                })?,
                other => {
                    return Err(JsonError::at(
                        scanner.pos(),
                        format!("unknown key {other:?}"),
                    ))
                }
            }
            Ok(())
        })?;
        scanner.finish()?;
        Ok(report)
    }
}

/// Walks one JSON object, calling `member` with each key once the scanner
/// stands at that key's value.
fn each_member<'a>(
    scanner: &mut Scanner<'a>,
    mut member: impl FnMut(&mut Scanner<'a>, &str) -> Result<(), JsonError>,
) -> Result<(), JsonError> {
    scanner.skip_ws();
    scanner.expect(b'{')?;
    scanner.skip_ws();
    if scanner.peek() == Some(b'}') {
        scanner.bump();
        return Ok(());
    }
    loop {
        scanner.skip_ws();
        let key = scanner.parse_string()?.into_owned();
        scanner.skip_ws();
        scanner.expect(b':')?;
        scanner.skip_ws();
        member(scanner, &key)?;
        scanner.skip_ws();
        match scanner.peek() {
            Some(b',') => scanner.bump(),
            _ => break,
        }
    }
    scanner.skip_ws();
    scanner.expect(b'}')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_result_line_round_trips() {
        let mut report = Report::default();
        report.count(1000, 0);
        for metric in END_TO_END {
            report.set(metric.name, 1.25);
        }
        let line = report.to_json(END_TO_END, true);
        assert!(line.starts_with("{\"correct\":true,\"attempted\":1000,\"failed\":0,"));
        assert!(line.contains("\"setup_s\":{\"value\":1.25,\"unit\":\"s\"}"));
        assert_eq!(Report::from_json(&line).unwrap(), report);
    }

    #[test]
    fn failures_and_gaps_make_a_run_incorrect() {
        let mut report = Report::default();
        report.count(10, 1);
        for metric in END_TO_END {
            report.set(metric.name, 2.0);
        }
        assert!(report
            .to_json(END_TO_END, true)
            .contains("\"correct\":false"));
        let mut gap = Report::default();
        gap.count(10, 0);
        assert!(gap.to_json(END_TO_END, true).contains("\"correct\":false"));
        // A layer the workload does not exercise reads 0 and is no error.
        let layers = gap.to_json(PER_LAYER, false);
        assert!(layers.contains("\"correct\":true"));
        assert!(layers.contains("\"sim.step_ns\":{\"value\":0,\"unit\":\"ns\"}"));
    }

    #[test]
    fn names_and_units_fit_the_contract_and_are_used_once() {
        let mut seen = std::collections::BTreeSet::new();
        for metric in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(metric.name), "{} is listed twice", metric.name);
            assert!(metric.name.len() <= 64 && metric.unit.len() <= 16);
            assert!(metric
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(metric
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
    }

    /// The word `BENCHMARK.json` uses for a direction.
    fn label(better: Better) -> &'static str {
        match better {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// `BENCHMARK.json` is the contract; this registry is what the program
    /// prints.  They must agree name for name.
    #[test]
    fn benchmark_json_lists_exactly_this_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for workload in WORKLOADS {
            assert!(text.contains(&format!("{{\"name\": \"{workload}\", \"why\":")));
        }
        assert_eq!(text.matches("\"why\":").count(), WORKLOADS.len());
        for metric in END_TO_END {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                metric.name,
                metric.unit,
                label(metric.better),
                metric.bound
            );
            assert!(text.contains(&entry), "missing {entry}");
        }
        for metric in PER_LAYER {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                metric.name,
                metric.unit,
                label(metric.better)
            );
            assert!(text.contains(&entry), "missing {entry}");
        }
        assert_eq!(
            text.matches("\"better\":").count(),
            END_TO_END.len() + PER_LAYER.len()
        );
    }
}
