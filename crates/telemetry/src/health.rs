//! Health reporting for long-lived fleets: per-replica liveness records and
//! the fleet-wide roll-up a resident supervisor emits as a periodic
//! JSON-lines metrics stream.
//!
//! The structs here are deliberately plain data — the supervisor that owns
//! the replicas fills them in at its epoch barriers; this crate only defines
//! the schema and the (hand-rolled, dependency-free) JSON rendering, the
//! same way [`crate::export`] handles CSV.

use crate::Tick;
use selfheal_jsonl::{push_f64, push_json_string};

/// The lifecycle state of one supervised replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicaState {
    /// The replica's runner is live and advancing ticks.
    Running,
    /// The runner panicked; the supervisor is holding the replica in
    /// backoff before building a replacement runner.
    Restarting,
    /// The replica exhausted its restart budget and was retired.
    Failed,
}

impl ReplicaState {
    /// Stable lower-case label (used in control-plane replies and metrics
    /// lines).
    pub fn label(&self) -> &'static str {
        match self {
            ReplicaState::Running => "running",
            ReplicaState::Restarting => "restarting",
            ReplicaState::Failed => "failed",
        }
    }
}

/// One replica's health record, as tracked by a supervisor at epoch
/// barriers.
#[derive(Debug, Clone)]
pub struct ReplicaHealth {
    /// The replica's fleet-unique id (never reused after removal).
    pub id: usize,
    /// Human-readable label of the replica's fault profile.
    pub profile: String,
    /// Current lifecycle state.
    pub state: ReplicaState,
    /// Simulated ticks advanced across every runner incarnation.
    pub ticks: Tick,
    /// Failure episodes closed so far (current incarnation).
    pub episodes: usize,
    /// Failure episodes currently open (0 or 1 per replica).
    pub open_episodes: usize,
    /// Fix attempts initiated so far (current incarnation).
    pub fixes_initiated: u64,
    /// Times the supervisor rebuilt this replica's runner after a panic.
    pub restarts: u32,
    /// Milliseconds (since the supervisor started) of the last epoch this
    /// replica reported in.
    pub last_heartbeat_ms: u64,
    /// Faults active in the simulated service at the last barrier (current
    /// incarnation).  Ground truth for the operator: every fault still
    /// active is scanned on each request, so this is the number an epoch's
    /// cost follows.  Healers never see it.
    pub active_faults: usize,
    /// Message of the most recent panic, when any.
    pub last_error: Option<String>,
}

/// Fleet-wide health roll-up: what a resident supervisor knows at one epoch
/// barrier, rendered as one JSON line per emission for scraping.
#[derive(Debug, Clone)]
pub struct FleetHealth {
    /// Epochs the supervisor has completed.
    pub epoch: u64,
    /// Milliseconds since the supervisor started.
    pub uptime_ms: u64,
    /// Total simulated ticks across all replica incarnations.
    pub total_ticks: Tick,
    /// Replicas currently running.
    pub running: usize,
    /// Replicas waiting out a restart backoff.
    pub restarting: usize,
    /// Replicas retired after exhausting their restart budget.
    pub failed: usize,
    /// Failure episodes currently open across the fleet.
    pub open_episodes: usize,
    /// Runner restarts performed so far, summed over replicas.
    pub restarts: u64,
    /// Successful-fix examples the shared store has learned.
    pub fixes_known: usize,
    /// Store updates recorded but not yet folded into the model.
    pub pending_updates: usize,
    /// Simulated ticks per wall-clock second since the supervisor started.
    pub ticks_per_sec: f64,
    /// Wall time of the supervisor's last epoch advance, in microseconds —
    /// what a command queued behind that epoch waited for.
    pub epoch_us: u64,
    /// Faults active across the fleet's simulated services (see
    /// [`ReplicaHealth::active_faults`]).
    pub active_faults: usize,
    /// Replica the fleet-wide adversary struck at the last barrier, when
    /// the adversarial chaos engine is enabled and found a target.
    pub adversary_target: Option<usize>,
    /// The tenant this fleet serves, when the supervisor runs inside a
    /// multi-tenant daemon; standalone fleets leave it unset and the key
    /// is omitted from the JSON line.
    pub tenant: Option<String>,
}

impl FleetHealth {
    /// Aggregates the per-replica counters shared with
    /// [`ReplicaHealth`]; store- and clock-derived fields stay as the
    /// caller set them on `self`.
    pub fn absorb_replicas<'a>(&mut self, replicas: impl IntoIterator<Item = &'a ReplicaHealth>) {
        for replica in replicas {
            match replica.state {
                ReplicaState::Running => self.running += 1,
                ReplicaState::Restarting => self.restarting += 1,
                ReplicaState::Failed => self.failed += 1,
            }
            self.total_ticks += replica.ticks;
            self.open_episodes += replica.open_episodes;
            self.restarts += u64::from(replica.restarts);
            self.active_faults += replica.active_faults;
        }
    }

    /// Renders the roll-up as one JSON line (no trailing newline) — the
    /// daemon's periodic metrics emission.
    pub fn to_json_line(&self) -> String {
        let mut out = String::with_capacity(220);
        out.push_str("{\"epoch\":");
        out.push_str(&self.epoch.to_string());
        out.push_str(",\"uptime_ms\":");
        out.push_str(&self.uptime_ms.to_string());
        out.push_str(",\"total_ticks\":");
        out.push_str(&self.total_ticks.to_string());
        out.push_str(",\"running\":");
        out.push_str(&self.running.to_string());
        out.push_str(",\"restarting\":");
        out.push_str(&self.restarting.to_string());
        out.push_str(",\"failed\":");
        out.push_str(&self.failed.to_string());
        out.push_str(",\"open_episodes\":");
        out.push_str(&self.open_episodes.to_string());
        out.push_str(",\"restarts\":");
        out.push_str(&self.restarts.to_string());
        out.push_str(",\"fixes_known\":");
        out.push_str(&self.fixes_known.to_string());
        out.push_str(",\"pending_updates\":");
        out.push_str(&self.pending_updates.to_string());
        out.push_str(",\"ticks_per_sec\":");
        push_f64(&mut out, self.ticks_per_sec);
        out.push_str(",\"epoch_us\":");
        out.push_str(&self.epoch_us.to_string());
        out.push_str(",\"active_faults\":");
        out.push_str(&self.active_faults.to_string());
        if let Some(target) = self.adversary_target {
            out.push_str(",\"adversary_target\":");
            out.push_str(&target.to_string());
        }
        if let Some(tenant) = &self.tenant {
            out.push_str(",\"tenant\":");
            push_json_string(&mut out, tenant);
        }
        out.push('}');
        out
    }
}

impl Default for FleetHealth {
    fn default() -> Self {
        FleetHealth {
            epoch: 0,
            uptime_ms: 0,
            total_ticks: 0,
            running: 0,
            restarting: 0,
            failed: 0,
            open_episodes: 0,
            restarts: 0,
            fixes_known: 0,
            pending_updates: 0,
            ticks_per_sec: 0.0,
            epoch_us: 0,
            active_faults: 0,
            adversary_target: None,
            tenant: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn replica(id: usize, state: ReplicaState) -> ReplicaHealth {
        ReplicaHealth {
            id,
            profile: "mix:online:0.02".to_string(),
            state,
            ticks: 100,
            episodes: 2,
            open_episodes: usize::from(state == ReplicaState::Running),
            fixes_initiated: 3,
            restarts: 1,
            last_heartbeat_ms: 42,
            active_faults: 5,
            last_error: (state != ReplicaState::Running).then(|| "boom \"quoted\"".to_string()),
        }
    }

    #[test]
    fn fleet_health_aggregates_replica_counters() {
        let replicas = [
            replica(0, ReplicaState::Running),
            replica(1, ReplicaState::Running),
            replica(2, ReplicaState::Restarting),
            replica(3, ReplicaState::Failed),
        ];
        let mut health = FleetHealth {
            epoch: 9,
            fixes_known: 5,
            epoch_us: 750,
            ..FleetHealth::default()
        };
        health.absorb_replicas(&replicas);
        assert_eq!(
            (health.running, health.restarting, health.failed),
            (2, 1, 1)
        );
        assert_eq!(health.total_ticks, 400);
        assert_eq!(health.open_episodes, 2);
        assert_eq!(health.restarts, 4);
        assert_eq!(health.active_faults, 20);
        let line = health.to_json_line();
        assert!(line.contains("\"active_faults\":20"));
        assert!(line.contains("\"epoch\":9"));
        assert!(line.contains("\"fixes_known\":5"));
        assert!(line.contains("\"epoch_us\":750"));
        assert!(!line.contains("adversary_target"));
        assert!(!line.contains("tenant"));
        assert!(!line.contains('\n'));
        health.adversary_target = Some(2);
        assert!(health.to_json_line().contains("\"adversary_target\":2"));
        health.tenant = Some("scout".to_string());
        assert!(health.to_json_line().contains("\"tenant\":\"scout\""));
    }
}
