//! Integration tests for daemon multi-tenancy: fingerprint isolation
//! against a standalone fleet, cross-tenant fix transfer through the
//! opt-in shared pool, and manifest-driven crash-restart of the whole
//! tenant set over the line protocol.

use selfheal::daemon::protocol::send_command;
use selfheal::daemon::{Daemon, DaemonConfig, DaemonOptions, Supervisor, TenantRegistry};
use selfheal::faults::FixKind;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::thread;
use std::time::{Duration, Instant};

/// A scratch directory unique to one test, cleaned up on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir =
            std::env::temp_dir().join(format!("selfheal-tenants-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch(dir)
    }

    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The isolation pin from the issue: a tenant's fleet is gated into the
/// sequential id order whatever its size, so — checked at one replica and
/// at three — its outcome fingerprints are byte-identical to the same
/// config run as a standalone supervisor.  Tenancy must add *no* new
/// nondeterminism for unpooled tenants.
#[test]
fn single_replica_tenant_fingerprints_match_standalone() {
    const EPOCHS: usize = 40;
    for replicas in [1, 3] {
        let config = DaemonConfig::default();

        let mut standalone = Supervisor::new(config.clone()).unwrap();
        for _ in 0..replicas {
            standalone.add_replica("default").unwrap();
        }
        for _ in 0..EPOCHS {
            standalone.advance_epoch();
        }
        let expected = standalone.fingerprints();

        let mut registry = TenantRegistry::new(config).unwrap();
        registry.create("iso", false).unwrap();
        for _ in 0..replicas {
            registry
                .supervisor_mut("iso")
                .unwrap()
                .add_replica("default")
                .unwrap();
        }
        for _ in 0..EPOCHS {
            // The default tenant is empty, so only `iso` advances — tenants
            // tick independently.
            registry.advance_all();
        }
        let tenant = registry.supervisor("iso").unwrap();
        assert_eq!(tenant.epoch(), EPOCHS as u64);
        let actual = tenant.fingerprints();

        assert_eq!(expected.len(), replicas);
        assert_eq!(
            actual, expected,
            "an unpooled {replicas}-replica tenant must reproduce the standalone fleet bit-for-bit"
        );
        assert_ne!(expected[0].1, 0, "the fingerprint witnessed real work");

        standalone.shutdown();
        registry.shutdown();
    }
}

/// The pool contract at registry level: experience recorded by a pooled
/// tenant becomes suggestible to *other pooled tenants* (without entering
/// their namespaces), while unpooled tenants see none of it.
#[test]
fn shared_pool_transfers_fixes_between_consenting_tenants() {
    let mut registry = TenantRegistry::new(DaemonConfig::default()).unwrap();
    registry.create("scout", true).unwrap();
    registry.create("victim", true).unwrap();
    registry.create("loner", false).unwrap();
    assert!(!registry.tenant("loner").unwrap().shared_pool());
    assert!(registry.tenant("victim").unwrap().shared_pool());

    let signature = vec![4.0, 1.0, 0.0, 2.5];
    let mut scout_store = registry.supervisor("scout").unwrap().store_handle();
    scout_store.record(&signature, FixKind::MicrorebootEjb, true);
    scout_store.flush();

    // The victim's own namespace is empty, but its store falls back to the
    // pool: the scout's fix transfers.
    let victim = registry.supervisor("victim").unwrap();
    assert_eq!(victim.store().correct_fixes_learned(), 0);
    let suggested = victim.store_handle().suggest(&signature);
    assert_eq!(
        suggested.map(|(fix, _)| fix),
        Some(FixKind::MicrorebootEjb),
        "a pooled tenant benefits from the scout's experience"
    );

    // The loner opted out: no pool fallback, no suggestion.
    let loner = registry.supervisor("loner").unwrap();
    assert!(!loner.pooled());
    assert_eq!(loner.store_handle().suggest(&signature), None);

    // The default tenant never joins the pool.
    assert!(!registry.default_supervisor().pooled());
    registry.shutdown();
}

/// Extracts `key=<u64>` from a space-separated reply.
fn field(reply: &str, key: &str) -> Option<u64> {
    reply
        .split_whitespace()
        .find_map(|token| token.strip_prefix(key))
        .and_then(|value| value.parse().ok())
}

/// Polls `command` against the socket until `predicate` accepts the reply.
fn wait_for(socket: &Path, command: &str, what: &str, predicate: impl Fn(&str) -> bool) -> String {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        if let Ok(reply) = send_command(socket, command, Duration::from_secs(10)) {
            if predicate(&reply) {
                return reply;
            }
        }
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        thread::sleep(Duration::from_millis(50));
    }
}

fn ctl(socket: &Path, command: &str) -> String {
    send_command(socket, command, Duration::from_secs(10))
        .unwrap_or_else(|err| panic!("{command}: {err}"))
}

/// The tenant lifecycle over the line protocol, including per-tenant
/// crash-restart: `TENANT CREATE`/`LIST`, `@<tenant>` scoping, `METRICS`
/// tenant tags, `kill -9`, and a relaunch that replays the manifest plus
/// every tenant's own snapshot log.
#[test]
fn tenant_set_survives_kill_dash_nine_over_the_line_protocol() {
    let scratch = Scratch::new("e2e");
    let socket = scratch.path("control.sock");
    let config = DaemonConfig {
        store_path: Some(scratch.path("synopsis.jsonl")),
        ..DaemonConfig::default()
    };
    let mut options = DaemonOptions::new(&socket);
    options.replicas = 1;

    // First life.
    let daemon = Daemon::launch(config.clone(), options.clone()).unwrap();
    let kill = daemon.kill_switch();
    let life_one = thread::spawn(move || daemon.run());
    wait_for(&socket, "STATUS", "the daemon socket", |reply| {
        reply.ends_with("OK\n")
    });

    // Tenant lifecycle and validation over the wire.
    assert!(ctl(&socket, "TENANT CREATE scout pool").ends_with("OK\n"));
    assert!(
        ctl(&socket, "TENANT CREATE scout pool").starts_with("ERR"),
        "duplicate"
    );
    assert!(ctl(&socket, "TENANT CREATE Bad Name").starts_with("ERR"));
    assert!(ctl(&socket, "TENANT DROP default").starts_with("ERR"));
    assert!(
        ctl(&socket, "@ghost STATUS").starts_with("ERR"),
        "unknown tenant"
    );
    let list = ctl(&socket, "TENANT LIST");
    assert!(
        list.contains("tenant=default shared_pool=off"),
        "list: {list}"
    );
    assert!(list.contains("tenant=scout shared_pool=on"), "list: {list}");

    // Scoped commands drive the scout's own fleet; its metrics line is
    // tenant-tagged while the default tenant's is not.
    assert!(ctl(&socket, "@scout ADD default").ends_with("OK\n"));
    assert!(ctl(&socket, "@scout ADD default").ends_with("OK\n"));
    let metrics = ctl(&socket, "@scout METRICS");
    assert!(
        metrics.contains("\"tenant\":\"scout\""),
        "metrics: {metrics}"
    );
    let default_metrics = ctl(&socket, "METRICS");
    assert!(
        default_metrics.contains("\"tenant\":\"default\""),
        "unscoped METRICS addresses the default tenant: {default_metrics}"
    );

    // Both tenants learn and drain to their *own* snapshot logs.
    wait_for(
        &socket,
        "@scout STATUS",
        "the scout to learn a fix",
        |reply| field(reply, "fixes_known=").unwrap_or(0) >= 1,
    );
    wait_for(
        &socket,
        "STATUS",
        "the default tenant to learn a fix",
        |reply| field(reply, "fixes_known=").unwrap_or(0) >= 1,
    );
    let scout_status = ctl(&socket, "@scout STATUS");
    assert!(
        scout_status.contains("tenant=scout shared_pool=on"),
        "status names its tenant: {scout_status}"
    );
    assert!(
        scratch.path("synopsis.scout.jsonl").exists(),
        "the scout drains to its namespaced log"
    );
    assert!(
        scratch.path("synopsis.tenants.jsonl").exists(),
        "the manifest records the tenant set"
    );

    // kill -9: no flushes, no manifest rewrite.
    kill.store(true, Ordering::SeqCst);
    life_one.join().unwrap().unwrap();

    // Second life: the manifest recreates the scout, and each tenant's log
    // replay restores its own synopsis.
    let daemon = Daemon::launch(config, options).unwrap();
    let registry = daemon.registry();
    assert!(registry.contains("scout"), "manifest replayed");
    assert!(
        registry.tenant("scout").unwrap().shared_pool(),
        "pool flag survived"
    );
    assert!(
        registry.supervisor("scout").unwrap().restored_examples() >= 1,
        "the scout's own log replayed"
    );
    assert!(
        registry.default_supervisor().restored_examples() >= 1,
        "the default tenant's log replayed"
    );
    let life_two = thread::spawn(move || daemon.run());

    let list = wait_for(
        &socket,
        "TENANT LIST",
        "the relaunched tenant list",
        |reply| reply.ends_with("OK\n"),
    );
    assert!(list.contains("tenant=scout shared_pool=on"), "list: {list}");

    // DROP deletes the tenant and its log: a recreated scout starts cold.
    assert!(ctl(&socket, "TENANT DROP scout").ends_with("OK\n"));
    assert!(
        !scratch.path("synopsis.scout.jsonl").exists(),
        "dropping a tenant deletes its log"
    );
    assert!(ctl(&socket, "TENANT CREATE scout").ends_with("OK\n"));
    let list = ctl(&socket, "TENANT LIST");
    assert!(
        list.contains("tenant=scout shared_pool=off replicas=0 epoch=0 fixes_known=0"),
        "the reborn scout starts cold: {list}"
    );

    let bye = ctl(&socket, "SHUTDOWN");
    assert!(bye.ends_with("OK\n"), "shutdown accepted: {bye}");
    life_two.join().unwrap().unwrap();
}

/// The manifest is replaced whole or not at all: it is written to a
/// sibling temp file and renamed over.  With a directory squatting on that
/// temp path the write fails, the command answers `ERR`, and the manifest
/// on disk is the previous one byte for byte — where an in-place rewrite
/// would have truncated it first.
#[test]
fn a_failed_manifest_write_leaves_the_previous_manifest_whole() {
    let scratch = Scratch::new("manifest");
    let socket = scratch.path("control.sock");
    let config = DaemonConfig {
        store_path: Some(scratch.path("synopsis.jsonl")),
        ..DaemonConfig::default()
    };
    let mut options = DaemonOptions::new(&socket);
    options.replicas = 0;
    let daemon = Daemon::launch(config, options).unwrap();
    let daemon = thread::spawn(move || daemon.run());
    wait_for(&socket, "STATUS", "the daemon socket", |reply| {
        reply.ends_with("OK\n")
    });

    assert!(ctl(&socket, "TENANT CREATE scout pool").ends_with("OK\n"));
    let manifest = scratch.path("synopsis.tenants.jsonl");
    let before = std::fs::read(&manifest).expect("the manifest was written");
    std::fs::create_dir(scratch.path("synopsis.tenants.jsonl.tmp")).unwrap();

    let reply = ctl(&socket, "TENANT CREATE loner");
    assert!(
        reply.starts_with("ERR"),
        "the manifest write failed: {reply}"
    );
    assert_eq!(
        std::fs::read(&manifest).unwrap(),
        before,
        "the previous manifest is untouched"
    );

    assert!(ctl(&socket, "SHUTDOWN").ends_with("OK\n"));
    daemon.join().unwrap().unwrap();
}
