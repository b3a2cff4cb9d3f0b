//! The cross-tenant pooled store: opt-in knowledge sharing between
//! otherwise-isolated tenant fleets.
//!
//! Every tenant owns a private [`SynopsisStore`] namespace (its own model,
//! snapshot log, and statistics).  Tenants created with `shared_pool = on`
//! additionally *conference* their experience: each recorded fix outcome is
//! mirrored into one daemon-wide pooled store, and suggestion lookups fall
//! back to the pool when the tenant's own store has nothing for a
//! signature.  A fix learned by a scout tenant therefore transfers to a
//! pooled victim tenant, while tenants with the flag off never see (or
//! leak) pooled experience — the multi-tenant version of the paper's
//! shared-learning result.
//!
//! Isolation contract: the tenant's *namespace* surfaces
//! ([`SynopsisStore::snapshot`], [`SynopsisStore::persist_to`] /
//! [`SynopsisStore::attach_log`], [`SynopsisStore::fix_stats`],
//! `correct_fixes_learned`) read the primary store only, so snapshots,
//! logs, and per-tenant statistics never blend in pooled data.  The pool is
//! visible exclusively through `suggest*` fallback and through the
//! supervisor's explicit `pool_*` introspection surface.

use selfheal_core::snapshot::{SnapshotLog, SynopsisSnapshot};
use selfheal_core::store::{FixStats, SynopsisStore};
use selfheal_core::synopsis::{Learner, SynopsisKind};
use selfheal_faults::FixKind;
use std::collections::HashSet;
use std::io;
use std::path::Path;

/// A tenant-facing store handle that records into both the tenant's
/// primary store and the daemon-wide pool, and falls back to the pool on
/// suggestion misses.  See the module docs for the isolation contract.
pub struct PooledStore {
    primary: Box<dyn SynopsisStore>,
    pool: Box<dyn SynopsisStore>,
}

impl PooledStore {
    /// Wraps a tenant's primary store with a handle to the shared pool.
    pub fn new(primary: Box<dyn SynopsisStore>, pool: Box<dyn SynopsisStore>) -> Self {
        PooledStore { primary, pool }
    }
}

impl Learner for PooledStore {
    fn suggest(&self, symptoms: &[f64]) -> Option<(FixKind, f64)> {
        self.primary
            .suggest(symptoms)
            .or_else(|| self.pool.suggest(symptoms))
    }

    fn suggest_excluding(
        &self,
        symptoms: &[f64],
        excluded: &HashSet<FixKind>,
    ) -> Option<(FixKind, f64)> {
        self.primary
            .suggest_excluding(symptoms, excluded)
            .or_else(|| self.pool.suggest_excluding(symptoms, excluded))
    }

    fn record(&mut self, symptoms: &[f64], fix: FixKind, success: bool) {
        self.primary.record(symptoms, fix, success);
        self.pool.record(symptoms, fix, success);
    }

    fn correct_fixes_learned(&self) -> usize {
        self.primary.correct_fixes_learned()
    }
}

impl SynopsisStore for PooledStore {
    fn kind(&self) -> SynopsisKind {
        self.primary.kind()
    }

    fn flush(&self) {
        self.primary.flush();
        self.pool.flush();
    }

    fn pending_updates(&self) -> usize {
        self.primary.pending_updates()
    }

    fn snapshot(&self) -> SynopsisSnapshot {
        self.primary.snapshot()
    }

    fn fix_stats(&self) -> Vec<FixStats> {
        self.primary.fix_stats()
    }

    fn failure_memory(&self) -> (usize, usize) {
        self.primary.failure_memory()
    }

    fn restore(&mut self, snapshot: &SynopsisSnapshot) {
        self.primary.restore(snapshot);
    }

    fn clone_store(&self) -> Box<dyn SynopsisStore> {
        Box::new(PooledStore {
            primary: self.primary.clone_store(),
            pool: self.pool.clone_store(),
        })
    }

    fn persist_to(&mut self, path: &Path) -> io::Result<()> {
        self.primary.persist_to(path)
    }

    fn attach_log(&mut self, log: SnapshotLog) -> io::Result<()> {
        self.primary.attach_log(log)
    }

    fn log_detached(&self) -> bool {
        self.primary.log_detached()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use selfheal_core::store::BatchedStore;

    fn signature() -> Vec<f64> {
        vec![4.0, 1.0, 0.0, 2.5]
    }

    fn pooled(pool: &BatchedStore) -> PooledStore {
        let primary = Box::new(BatchedStore::new(SynopsisKind::NearestNeighbor, 1));
        PooledStore::new(primary, pool.clone_store())
    }

    #[test]
    fn fixes_transfer_through_the_pool() {
        let pool = BatchedStore::new(SynopsisKind::NearestNeighbor, 1);
        let mut scout = pooled(&pool);
        let victim = pooled(&pool);
        scout.record(&signature(), FixKind::MicrorebootEjb, true);
        scout.flush();
        victim.flush();

        // The victim's own namespace is empty, but the pool fallback
        // surfaces the scout's fix.
        assert!(victim.snapshot().examples.is_empty());
        assert!(victim.fix_stats().is_empty());
        assert_eq!(victim.correct_fixes_learned(), 0);
        let (fix, confidence) = victim.suggest(&signature()).expect("pooled suggestion");
        assert_eq!(fix, FixKind::MicrorebootEjb);
        assert!(confidence > 0.0);

        // A store outside the pool sees nothing.
        let mut loner = BatchedStore::new(SynopsisKind::NearestNeighbor, 1);
        Learner::record(&mut loner, &[9.9, 9.9, 9.9, 9.9], FixKind::RebootTier, true);
        loner.flush();
        assert_eq!(
            loner.suggest(&signature()).map(|(fix, _)| fix),
            Some(FixKind::RebootTier),
            "the loner only knows its own experience"
        );
    }

    #[test]
    fn primary_experience_wins_over_the_pool() {
        let pool = BatchedStore::new(SynopsisKind::NearestNeighbor, 1);
        let mut scout = pooled(&pool);
        scout.record(&signature(), FixKind::MicrorebootEjb, true);
        let mut victim = pooled(&pool);
        victim.record(&signature(), FixKind::RebootTier, true);
        scout.flush();
        victim.flush();
        assert_eq!(
            victim.suggest(&signature()).map(|(fix, _)| fix),
            Some(FixKind::RebootTier),
            "own namespace answers before the pool fallback"
        );
    }

    #[test]
    fn namespace_surfaces_exclude_the_pool() {
        let pool = BatchedStore::new(SynopsisKind::NearestNeighbor, 1);
        let mut scout = pooled(&pool);
        let mut victim = pooled(&pool);
        scout.record(&signature(), FixKind::MicrorebootEjb, true);
        victim.record(&[1.0, 1.0, 1.0, 1.0], FixKind::RebootTier, false);
        let stats = victim.fix_stats();
        assert_eq!(stats.len(), 1, "only the victim's own record counts");
        assert_eq!(stats[0].fix, FixKind::RebootTier);
        assert_eq!(victim.snapshot().examples.len(), 1);
    }
}
