//! Multi-tenancy: named fleets sharing one daemon process.
//!
//! A tenant is one [`Supervisor`] — its own replicas, its own epoch clock,
//! its own [`SynopsisStore`] namespace,
//! and its own incremental snapshot log — addressed on the control plane by
//! `@<name>` scoping (see [`crate::protocol`]).  The registry owns every
//! tenant plus the daemon-wide *shared pool*: tenants created with
//! `shared_pool = on` mirror their learned fix outcomes into the pool and
//! fall back to it on suggestion misses (see [`crate::pool`]), so one
//! tenant's scouting transfers to another without ever entering the other's
//! namespace.
//!
//! ## Per-tenant persistence
//!
//! When the daemon template carries a
//! [`store_path`](crate::DaemonConfig::store_path) of `synopsis.jsonl`:
//!
//! * the `default` tenant keeps `synopsis.jsonl` itself (a single-tenant
//!   daemon's files are byte-compatible with earlier releases);
//! * tenant `scout` logs to the sibling `synopsis.scout.jsonl`;
//! * the tenant *set* is persisted to `synopsis.tenants.jsonl` — one JSON
//!   line per non-default tenant — rewritten on every `TENANT CREATE`/
//!   `DROP` into `synopsis.tenants.jsonl.tmp`, which is then renamed over
//!   it, so a crash mid-write leaves the previous manifest whole.  A
//!   relaunch replays the manifest first, recreating each
//!   tenant, whose own constructor then replays its per-tenant log.  A
//!   `kill -9` therefore restores every tenant's synopsis, not just the
//!   default fleet's.
//!
//! `TENANT DROP` deletes the tenant's log file: a later tenant reusing the
//! name must start cold rather than inherit a stranger's experience.
//!
//! The pool itself is deliberately *not* persisted: it is a cache of
//! cross-tenant hints rebuilt from live traffic, and persisting it would
//! blur the per-tenant namespace isolation the snapshot logs guarantee.

use crate::{DaemonConfig, Supervisor};
use selfheal_core::harness::LearnerChoice;
use selfheal_core::store::SynopsisStore;
use selfheal_jsonl::{push_json_string, JsonError, Scanner};
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

/// The tenant every daemon starts with and unscoped commands address.
pub(crate) const DEFAULT_TENANT: &str = "default";

/// Upper bound on tenant-name length, in bytes.
pub(crate) const MAX_TENANT_NAME: usize = 32;

/// One named fleet inside the daemon.
pub struct Tenant {
    supervisor: Supervisor,
    shared_pool: bool,
}

impl Tenant {
    /// Whether the tenant participates in the cross-tenant shared pool.
    pub fn shared_pool(&self) -> bool {
        self.shared_pool
    }
}

/// Owns every tenant fleet plus the daemon-wide shared pool (see the
/// module docs).
pub struct TenantRegistry {
    template: DaemonConfig,
    pool: Box<dyn SynopsisStore>,
    tenants: BTreeMap<String, Tenant>,
}

impl std::fmt::Debug for TenantRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TenantRegistry")
            .field("tenants", &self.tenants.keys().collect::<Vec<_>>())
            .finish_non_exhaustive()
    }
}

impl TenantRegistry {
    /// Builds the registry from the daemon's template config: creates the
    /// `default` tenant (inheriting the template's store path verbatim),
    /// then replays the tenant manifest when one exists, recreating every
    /// persisted tenant — each of which replays its own snapshot log.
    pub fn new(config: DaemonConfig) -> Result<TenantRegistry, String> {
        let kind = config.policy.synopsis_kind().ok_or_else(|| {
            format!(
                "the daemon requires a learning policy (got {}); try hybrid or fixsym",
                config.policy.label()
            )
        })?;
        let pool = LearnerChoice::Locked { batch: 1 }.build_store(kind);
        let mut registry = TenantRegistry {
            template: config,
            pool,
            tenants: BTreeMap::new(),
        };
        registry.insert(DEFAULT_TENANT, false)?;
        registry.restore_manifest()?;
        Ok(registry)
    }

    /// Creates a named tenant with zero replicas and rewrites the manifest.
    pub fn create(&mut self, name: &str, shared_pool: bool) -> Result<(), String> {
        self.insert(name, shared_pool)?;
        self.save_manifest()
            .map_err(|err| format!("tenant created but manifest write failed: {err}"))
    }

    /// Stops a tenant's replicas, deletes its snapshot log, and rewrites
    /// the manifest.  The `default` tenant cannot be dropped.
    pub(crate) fn drop_tenant(&mut self, name: &str) -> Result<(), String> {
        if name == DEFAULT_TENANT {
            return Err("the default tenant cannot be dropped".to_string());
        }
        let tenant = self
            .tenants
            .remove(name)
            .ok_or_else(|| format!("no tenant {name:?}"))?;
        let store_path = tenant.supervisor.store_path().map(Path::to_path_buf);
        tenant.supervisor.shutdown();
        if let Some(path) = store_path {
            let _ = fs::remove_file(path);
        }
        self.save_manifest()
            .map_err(|err| format!("tenant dropped but manifest write failed: {err}"))
    }

    /// Whether a tenant with this name exists.
    pub fn contains(&self, name: &str) -> bool {
        self.tenants.contains_key(name)
    }

    /// The named tenant.
    pub fn tenant(&self, name: &str) -> Option<&Tenant> {
        self.tenants.get(name)
    }

    /// The named tenant's fleet.
    pub fn supervisor(&self, name: &str) -> Option<&Supervisor> {
        self.tenants.get(name).map(|tenant| &tenant.supervisor)
    }

    /// The named tenant's fleet, mutably.
    pub fn supervisor_mut(&mut self, name: &str) -> Option<&mut Supervisor> {
        self.tenants
            .get_mut(name)
            .map(|tenant| &mut tenant.supervisor)
    }

    /// The `default` tenant's fleet (always present).
    pub fn default_supervisor(&self) -> &Supervisor {
        self.supervisor(DEFAULT_TENANT).expect("default tenant")
    }

    /// The `default` tenant's fleet, mutably (always present).
    pub(crate) fn default_supervisor_mut(&mut self) -> &mut Supervisor {
        self.supervisor_mut(DEFAULT_TENANT).expect("default tenant")
    }

    /// Tenant names, sorted.
    pub fn names(&self) -> Vec<String> {
        self.tenants.keys().cloned().collect()
    }

    /// One human-readable summary line per tenant (`TENANT LIST`).
    pub(crate) fn list_lines(&self) -> Vec<String> {
        self.tenants
            .iter()
            .map(|(name, tenant)| {
                let supervisor = &tenant.supervisor;
                format!(
                    "tenant={name} shared_pool={} replicas={} epoch={} fixes_known={} \
                     restored_examples={}",
                    if tenant.shared_pool { "on" } else { "off" },
                    supervisor.replica_count(),
                    supervisor.epoch(),
                    supervisor.store().correct_fixes_learned(),
                    supervisor.restored_examples(),
                )
            })
            .collect()
    }

    /// Names the file of the daemon's own that `path` resolves to, if any:
    /// a tenant's live snapshot log or the tenant manifest.  Writing
    /// anything else there — a `SNAPSHOT`, say, whose complete-snapshot
    /// header the next drained batch would then append past — leaves a file
    /// the next launch refuses to replay.
    pub(crate) fn owned_file(&self, path: &Path) -> Option<String> {
        let target = resolve(path);
        let log = self.tenants.iter().find_map(|(name, tenant)| {
            let log = tenant.supervisor.store_path()?;
            (resolve(log) == target).then(|| format!("tenant {name}'s snapshot log"))
        });
        let manifest = || {
            let manifest = self.manifest_path()?;
            (resolve(&manifest) == target).then(|| "the tenant manifest".to_string())
        };
        log.or_else(manifest)
    }

    /// Whether any tenant has replicas left to advance (the daemon loop
    /// sleeps otherwise).
    pub(crate) fn any_active(&self) -> bool {
        self.tenants
            .values()
            .any(|t| t.supervisor.replica_count() > 0 && !t.supervisor.is_drained())
    }

    /// Advances every active tenant one epoch; returns the total number of
    /// replicas that advanced.  Tenants tick independently — an empty or
    /// drained tenant's epoch clock stands still while its neighbors run.
    pub fn advance_all(&mut self) -> usize {
        let mut advanced = 0;
        for tenant in self.tenants.values_mut() {
            let supervisor = &mut tenant.supervisor;
            if supervisor.replica_count() == 0 || supervisor.is_drained() {
                continue;
            }
            advanced += supervisor.advance_epoch();
        }
        advanced
    }

    /// One tenant-tagged [`FleetHealth`](selfheal_telemetry::FleetHealth)
    /// JSON line per tenant that has replicas — the daemon's periodic
    /// metrics emission.
    pub(crate) fn health_lines(&self) -> Vec<String> {
        self.tenants
            .values()
            .filter(|tenant| tenant.supervisor.replica_count() > 0)
            .map(|tenant| tenant.supervisor.health().to_json_line())
            .collect()
    }

    /// Clean exit: shuts down every tenant (flushing each store and log),
    /// then the pool.
    pub fn shutdown(mut self) {
        let names: Vec<String> = self.tenants.keys().cloned().collect();
        for name in names {
            if let Some(tenant) = self.tenants.remove(&name) {
                tenant.supervisor.shutdown();
            }
        }
        self.pool.flush();
    }

    /// Simulated `kill -9`: drops every tenant's fleet without final
    /// flushes, so only experience already drained to each snapshot log
    /// survives.
    pub(crate) fn abort(mut self) {
        let names: Vec<String> = self.tenants.keys().cloned().collect();
        for name in names {
            if let Some(tenant) = self.tenants.remove(&name) {
                tenant.supervisor.abort();
            }
        }
    }

    fn insert(&mut self, name: &str, shared_pool: bool) -> Result<(), String> {
        validate_name(name)?;
        if self.tenants.contains_key(name) {
            return Err(format!("tenant {name:?} already exists"));
        }
        let mut config = self.template.clone();
        config.store_path = self
            .template
            .store_path
            .as_ref()
            .map(|path| tenant_store_path(path, name));
        let pool_handle = shared_pool.then(|| self.pool.clone_store());
        let mut supervisor = Supervisor::with_pool(config, pool_handle)?;
        supervisor.set_label(name);
        self.tenants.insert(
            name.to_string(),
            Tenant {
                supervisor,
                shared_pool,
            },
        );
        Ok(())
    }

    fn manifest_path(&self) -> Option<PathBuf> {
        self.template
            .store_path
            .as_ref()
            .map(|path| sibling_path(path, "tenants"))
    }

    fn save_manifest(&self) -> std::io::Result<()> {
        let Some(path) = self.manifest_path() else {
            return Ok(());
        };
        let mut out = String::new();
        for (name, tenant) in &self.tenants {
            if name == DEFAULT_TENANT {
                continue;
            }
            out.push_str("{\"name\":");
            push_json_string(&mut out, name);
            out.push_str(",\"shared_pool\":");
            out.push_str(if tenant.shared_pool { "true" } else { "false" });
            out.push_str("}\n");
        }
        // Written beside the manifest, then renamed over it: a crash leaves
        // either the old manifest or the new one, never a torn line that
        // the next launch would refuse.
        let mut temp = path.clone().into_os_string();
        temp.push(".tmp");
        fs::write(&temp, out)?;
        fs::rename(&temp, &path)
    }

    fn restore_manifest(&mut self) -> Result<(), String> {
        let Some(path) = self.manifest_path() else {
            return Ok(());
        };
        if !path.exists() {
            return Ok(());
        }
        let text = fs::read_to_string(&path)
            .map_err(|err| format!("cannot read tenant manifest {path:?}: {err}"))?;
        for line in text.lines().filter(|line| !line.trim().is_empty()) {
            let (name, shared_pool) = parse_manifest_line(line)
                .map_err(|err| format!("bad tenant manifest line {line:?}: {err}"))?;
            self.insert(&name, shared_pool)?;
        }
        Ok(())
    }
}

/// The snapshot-log path of one tenant, derived from the daemon's template
/// path: the `default` tenant keeps the template path itself, tenant `t`
/// gets the sibling `<stem>.<t>.<ext>`.
pub(crate) fn tenant_store_path(base: &Path, tenant: &str) -> PathBuf {
    if tenant == DEFAULT_TENANT {
        base.to_path_buf()
    } else {
        sibling_path(base, tenant)
    }
}

/// `path` with symlinks, `.` and `..` resolved as far as the file system
/// can tell: the file itself when it exists, else its directory plus its
/// name, else `path` as given.
fn resolve(path: &Path) -> PathBuf {
    fs::canonicalize(path).unwrap_or_else(|_| {
        let dir = match path.parent() {
            Some(dir) if !dir.as_os_str().is_empty() => dir,
            _ => Path::new("."),
        };
        match (fs::canonicalize(dir), path.file_name()) {
            (Ok(dir), Some(name)) => dir.join(name),
            _ => path.to_path_buf(),
        }
    })
}

fn sibling_path(base: &Path, tag: &str) -> PathBuf {
    let stem = base
        .file_stem()
        .and_then(|stem| stem.to_str())
        .unwrap_or("store");
    let name = match base.extension().and_then(|ext| ext.to_str()) {
        Some(ext) => format!("{stem}.{tag}.{ext}"),
        None => format!("{stem}.{tag}"),
    };
    base.with_file_name(name)
}

fn validate_name(name: &str) -> Result<(), String> {
    if name.is_empty() || name.len() > MAX_TENANT_NAME {
        return Err(format!(
            "tenant names are 1..={MAX_TENANT_NAME} bytes, got {:?}",
            name.len()
        ));
    }
    if !name
        .bytes()
        .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'-' || b == b'_')
    {
        return Err(format!(
            "tenant name {name:?} has characters outside [a-z0-9_-]"
        ));
    }
    Ok(())
}

fn parse_manifest_line(line: &str) -> Result<(String, bool), String> {
    let mut scanner = Scanner::new(line);
    let mut name: Option<String> = None;
    let mut shared_pool: Option<bool> = None;
    scanner
        .object(|s, key, key_at| {
            match key {
                "name" => name = Some(s.parse_string()?.into_owned()),
                "shared_pool" => shared_pool = Some(s.parse_bool()?),
                other => {
                    let message = format!("unknown manifest key {other:?}");
                    return Err(JsonError::at(key_at, message));
                }
            }
            Ok(())
        })
        .and_then(|()| scanner.finish())
        .map_err(|err| err.to_string())?;
    match (name, shared_pool) {
        (Some(name), Some(shared_pool)) => Ok((name, shared_pool)),
        _ => Err("manifest line needs both name and shared_pool".to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_paths_namespace_by_tenant() {
        let base = Path::new("/tmp/daemon/synopsis.jsonl");
        assert_eq!(tenant_store_path(base, DEFAULT_TENANT), base);
        assert_eq!(
            tenant_store_path(base, "scout"),
            Path::new("/tmp/daemon/synopsis.scout.jsonl")
        );
        assert_eq!(
            tenant_store_path(Path::new("bare"), "scout"),
            Path::new("bare.scout")
        );
    }

    #[test]
    fn names_are_validated() {
        assert!(validate_name("scout-7_a").is_ok());
        assert!(validate_name("").is_err());
        assert!(validate_name("Scout").is_err());
        assert!(validate_name("a b").is_err());
        assert!(validate_name(&"x".repeat(MAX_TENANT_NAME + 1)).is_err());
    }

    #[test]
    fn manifest_lines_round_trip() {
        assert_eq!(
            parse_manifest_line("{\"name\":\"scout\",\"shared_pool\":true}"),
            Ok(("scout".to_string(), true))
        );
        assert_eq!(
            parse_manifest_line("{ \"shared_pool\": false , \"name\" : \"loner\" }"),
            Ok(("loner".to_string(), false))
        );
        assert!(parse_manifest_line("{\"name\":\"scout\"}").is_err());
        assert!(parse_manifest_line("not json").is_err());
    }

    #[test]
    fn a_manifest_line_naming_a_key_twice_is_refused() {
        let twice = "{\"name\":\"a\",\"name\":\"b\",\"shared_pool\":true}";
        let err = parse_manifest_line(twice).unwrap_err();
        assert!(err.contains("duplicate key \"name\""), "{err}");
        assert!(err.contains(&format!("byte {}", twice.rfind("\"name\"").unwrap())));
    }

    #[test]
    fn registry_creates_drops_and_protects_default() {
        let mut registry = TenantRegistry::new(DaemonConfig::default()).unwrap();
        assert!(registry.contains(DEFAULT_TENANT));
        registry.create("scout", true).unwrap();
        assert!(registry.tenant("scout").unwrap().shared_pool());
        assert_eq!(registry.supervisor("scout").unwrap().label(), Some("scout"));
        assert!(registry.create("scout", false).is_err(), "duplicate");
        assert!(registry.create("Bad Name", false).is_err());
        assert!(registry.drop_tenant(DEFAULT_TENANT).is_err());
        assert!(registry.drop_tenant("ghost").is_err());
        registry.drop_tenant("scout").unwrap();
        assert!(!registry.contains("scout"));
        registry.shutdown();
    }
}
