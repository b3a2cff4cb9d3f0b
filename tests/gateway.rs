//! End-to-end tests for the HTTP gateway: an in-process daemon behind an
//! in-process [`Gateway`], driven through the real TCP client — auth
//! denials, tenant lifecycle, the streaming metrics feed, the audit log,
//! daemon-unreachable handling, keep-alive request latency, and stopping
//! with a client connected.

use selfheal::daemon::protocol::send_command;
use selfheal::daemon::{Daemon, DaemonConfig, DaemonOptions};
use selfheal::gateway::auth::{AuthConfig, Scope, Token};
use selfheal::gateway::client::{request, stream_lines, HttpReply};
use selfheal::gateway::server::{Gateway, GatewayOptions};
use selfheal::sim::MultiTierService;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::thread;
use std::time::{Duration, Instant};

/// A scratch directory unique to one test, cleaned up on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir =
            std::env::temp_dir().join(format!("selfheal-gateway-{tag}-{}", std::process::id()));
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

/// The three-persona token set the issue's smoke test also uses: a
/// wildcard admin, an operator bound to `scout`, a reader bound to
/// `victim`.
fn tokens() -> AuthConfig {
    AuthConfig::new(vec![
        Token::new("ops", "swordfish", "*", Scope::Admin),
        Token::new("scout-op", "hunter2", "scout", Scope::Operate),
        Token::new("victim-ro", "letmein", "victim", Scope::Read),
    ])
}

fn get(addr: &str, target: &str, token: Option<&str>) -> HttpReply {
    request(addr, "GET", target, token, None).expect("GET")
}

fn post(addr: &str, target: &str, token: Option<&str>, body: Option<&str>) -> HttpReply {
    request(addr, "POST", target, token, body).expect("POST")
}

#[test]
fn gateway_serves_tenants_auth_and_streams_end_to_end() {
    let scratch = Scratch::new("e2e");
    let socket = scratch.path("control.sock");
    let audit_path = scratch.path("audit.log");

    // The daemon runs in-process, exactly as `selfheal-daemon` would.
    let mut options = DaemonOptions::new(&socket);
    options.replicas = 1;
    let daemon = Daemon::launch(DaemonConfig::default(), options).unwrap();
    let daemon_thread = thread::spawn(move || daemon.run());

    let mut gateway_options = GatewayOptions::new("127.0.0.1:0", &socket, tokens());
    gateway_options.audit = Some(audit_path.clone());
    gateway_options.stream_interval = Duration::from_millis(20);
    let gateway = Gateway::launch(gateway_options).unwrap();
    let addr = gateway.addr().to_string();

    // Routing comes before auth: unknown paths are 404 for everyone.
    assert_eq!(get(&addr, "/nope", None).status, 404);
    // Known routes demand a token...
    assert_eq!(get(&addr, "/v1/tenants", None).status, 401);
    assert_eq!(get(&addr, "/v1/tenants", Some("wrong")).status, 401);
    // ...with the right binding: daemon-wide routes need a `*` token, and
    // scope ranks are enforced per route.
    assert_eq!(get(&addr, "/v1/tenants", Some("hunter2")).status, 403);
    let denied = post(
        &addr,
        "/v1/tenants",
        Some("letmein"),
        Some("{\"name\":\"x\"}"),
    );
    assert_eq!(denied.status, 403);
    assert!(
        denied.body.contains("error"),
        "structured body: {}",
        denied.body
    );

    // Tenant lifecycle through the admin token.
    let created = post(
        &addr,
        "/v1/tenants",
        Some("swordfish"),
        Some("{\"name\":\"scout\",\"shared_pool\":true}"),
    );
    assert_eq!(created.status, 200, "create scout: {}", created.body);
    assert!(
        created.body.contains("\"ok\":true"),
        "body: {}",
        created.body
    );
    // A misspelt key is refused, not dropped: `shared_pol` would otherwise
    // create an unpooled tenant.
    let misspelt = post(
        &addr,
        "/v1/tenants",
        Some("swordfish"),
        Some("{\"name\":\"typo\",\"shared_pol\":true}"),
    );
    assert_eq!(misspelt.status, 400, "misspelt key: {}", misspelt.body);
    assert!(
        misspelt.body.contains("shared_pol"),
        "body: {}",
        misspelt.body
    );
    let duplicate = post(
        &addr,
        "/v1/tenants",
        Some("swordfish"),
        Some("{\"name\":\"scout\"}"),
    );
    assert_eq!(
        duplicate.status, 400,
        "daemon ERR maps to 400: {}",
        duplicate.body
    );
    assert!(duplicate.body.contains("error"), "body: {}", duplicate.body);
    let listed = get(&addr, "/v1/tenants", Some("swordfish"));
    assert_eq!(listed.status, 200);
    assert!(
        listed.body.contains("tenant=scout shared_pool=on"),
        "list: {}",
        listed.body
    );
    assert!(
        !listed.body.contains("tenant=typo"),
        "list: {}",
        listed.body
    );

    // The scout operator drives its own fleet but nobody else's.
    let added = post(
        &addr,
        "/v1/tenants/scout/replicas",
        Some("hunter2"),
        Some("{\"profile\":\"default\"}"),
    );
    assert_eq!(added.status, 200, "add replica: {}", added.body);
    // A hostile signature query is refused at the daemon boundary (400) and
    // the daemon keeps serving: a non-finite component, then a wrong length.
    let width = MultiTierService::new(DaemonConfig::default().service)
        .schema()
        .len();
    for bad in [
        format!("nan{}", ",1".repeat(width - 1)),
        "1,2,3".to_string(),
    ] {
        let target = format!("/v1/tenants/scout/fixes?signature={bad}");
        let refused = get(&addr, &target, Some("hunter2"));
        assert_eq!(refused.status, 400, "{bad}: {}", refused.body);
    }
    assert_eq!(
        get(&addr, "/v1/tenants/scout/status", Some("hunter2")).status,
        200
    );
    assert_eq!(
        get(&addr, "/v1/tenants/default/status", Some("hunter2")).status,
        403,
        "tenant-bound tokens cannot reach other tenants"
    );

    // The metrics stream is chunked JSON-lines, tenant-tagged.
    let lines = stream_lines(
        &addr,
        "/v1/tenants/scout/metrics/stream",
        Some("hunter2"),
        2,
        Duration::from_secs(30),
    )
    .expect("stream");
    assert_eq!(lines.len(), 2);
    for line in &lines {
        assert!(
            line.contains("\"tenant\":\"scout\"") && line.contains("\"epoch\""),
            "stream line: {line}"
        );
    }

    // Mutating requests — granted and denied — landed in the audit log.
    let audit = std::fs::read_to_string(&audit_path).expect("audit log");
    assert!(
        audit.contains("token=ops") && audit.contains("path=/v1/tenants status=200"),
        "audit: {audit}"
    );
    assert!(
        audit.contains("token=victim-ro") && audit.contains("status=403"),
        "denied mutations are audited too: {audit}"
    );
    assert!(
        !audit.contains("swordfish"),
        "secrets never reach the audit log"
    );

    // Shutdown is an admin route; the daemon thread exits cleanly.
    assert_eq!(
        post(&addr, "/v1/shutdown", Some("hunter2"), None).status,
        403
    );
    assert_eq!(
        post(&addr, "/v1/shutdown", Some("swordfish"), None).status,
        200
    );
    daemon_thread.join().unwrap().unwrap();

    // With the daemon gone the gateway stays up and reports 502.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let reply = get(&addr, "/v1/tenants", Some("swordfish"));
        if reply.status == 502 {
            assert!(
                reply.body.contains("daemon unreachable"),
                "body: {}",
                reply.body
            );
            break;
        }
        assert!(
            Instant::now() < deadline,
            "expected 502 once the daemon exited"
        );
        thread::sleep(Duration::from_millis(50));
    }

    gateway.stop();
}

/// `POST /v1/tenants/<t>/snapshot` onto a file the daemon itself writes is
/// the client's error (the daemon's `ERR`), not a snapshot; any other path
/// still is one.
#[test]
fn snapshot_onto_the_daemons_own_log_is_a_client_error() {
    let scratch = Scratch::new("snapshot-own-log");
    let socket = scratch.path("control.sock");
    let store_path = scratch.path("synopsis.jsonl");
    let mut options = DaemonOptions::new(&socket);
    options.replicas = 1;
    let config = DaemonConfig {
        store_path: Some(store_path.clone()),
        ..DaemonConfig::default()
    };
    let daemon = Daemon::launch(config, options).unwrap();
    let daemon_thread = thread::spawn(move || daemon.run());
    let gateway = Gateway::launch(GatewayOptions::new("127.0.0.1:0", &socket, tokens())).unwrap();
    let addr = gateway.addr().to_string();

    let snapshot = |path: &std::path::Path| {
        let body = format!("{{\"path\":\"{}\"}}", path.display());
        post(
            &addr,
            "/v1/tenants/default/snapshot",
            Some("swordfish"),
            Some(&body),
        )
    };
    let header = std::fs::read_to_string(&store_path).unwrap();
    let refused = snapshot(&store_path);
    assert_eq!(refused.status, 400, "body: {}", refused.body);
    assert!(
        refused.body.contains("the daemon itself writes"),
        "body: {}",
        refused.body
    );
    assert!(std::fs::read_to_string(&store_path)
        .unwrap()
        .starts_with(&header));
    let free = scratch.path("fixes.jsonl");
    assert_eq!(snapshot(&free).status, 200);
    assert!(free.exists());

    assert_eq!(
        post(&addr, "/v1/shutdown", Some("swordfish"), None).status,
        200
    );
    daemon_thread.join().unwrap().unwrap();
    gateway.stop();
}

/// One request over a held keep-alive connection; returns status and body.
fn keep_alive_get(link: &mut BufReader<TcpStream>, target: &str, token: &str) -> (u16, String) {
    let request =
        format!("GET {target} HTTP/1.1\r\nHost: gateway\r\nAuthorization: Bearer {token}\r\n\r\n");
    link.get_mut().write_all(request.as_bytes()).unwrap();
    let mut line = String::new();
    link.read_line(&mut line).unwrap();
    let status = line
        .split_whitespace()
        .nth(1)
        .and_then(|code| code.parse().ok())
        .unwrap_or_else(|| panic!("bad status line {line:?}"));
    let mut length = 0usize;
    loop {
        line.clear();
        link.read_line(&mut line).unwrap();
        let header = line.trim_end().to_ascii_lowercase();
        if header.is_empty() {
            break;
        }
        if let Some(value) = header.strip_prefix("content-length:") {
            length = value.trim().parse().unwrap();
        }
    }
    let mut body = vec![0u8; length];
    link.read_exact(&mut body).unwrap();
    (status, String::from_utf8(body).unwrap())
}

/// Every reply leaves the gateway as one segment on a no-delay socket, so
/// a keep-alive client is not held ~40 ms per request by Nagle's algorithm
/// waiting for its own delayed ACK; the chunked stream still arrives; and
/// dropping the gateway does not wait out an idle keep-alive connection.
#[test]
fn keep_alive_requests_are_not_stalled_and_drop_is_prompt() {
    let scratch = Scratch::new("keepalive");
    let socket = scratch.path("control.sock");
    let mut options = DaemonOptions::new(&socket);
    options.replicas = 1;
    options.profile = "none".to_string();
    let daemon = Daemon::launch(DaemonConfig::default(), options).unwrap();
    let daemon_thread = thread::spawn(move || daemon.run());

    let mut gateway_options = GatewayOptions::new("127.0.0.1:0", &socket, tokens());
    gateway_options.stream_interval = Duration::from_millis(10);
    let gateway = Gateway::launch(gateway_options).unwrap();
    let addr = gateway.addr().to_string();

    let stream = TcpStream::connect(&addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut link = BufReader::new(stream);
    // The first reply waits for the daemon to come up; time the rest.
    let target = "/v1/tenants/default/status";
    assert_eq!(keep_alive_get(&mut link, target, "swordfish").0, 200);
    let started = Instant::now();
    for _ in 0..50 {
        let (status, body) = keep_alive_get(&mut link, target, "swordfish");
        assert_eq!(status, 200, "body: {body}");
        assert!(body.contains("tenant=default"), "body: {body}");
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(1),
        "50 keep-alive reads took {elapsed:?}: the replies are being delayed"
    );

    let lines = stream_lines(
        &addr,
        "/v1/tenants/default/metrics/stream",
        Some("swordfish"),
        3,
        Duration::from_secs(30),
    )
    .expect("stream");
    assert_eq!(lines.len(), 3);
    assert!(lines.iter().all(|line| line.contains("\"epoch\"")));

    // `link` is still open and idle: the drop must hang up on it.
    let dropped = Instant::now();
    drop(gateway);
    assert!(
        dropped.elapsed() < Duration::from_millis(500),
        "drop took {:?}",
        dropped.elapsed()
    );
    let mut rest = Vec::new();
    assert_eq!(link.read_to_end(&mut rest).unwrap(), 0, "connection closed");

    send_command(&socket, "SHUTDOWN", Duration::from_secs(10)).unwrap();
    daemon_thread.join().unwrap().unwrap();
}
