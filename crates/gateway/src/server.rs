//! The gateway server: accepts HTTP connections, authorizes each request,
//! and proxies it onto the daemon's Unix-socket control plane.
//!
//! The order of checks is deliberate: **route first, then authenticate**.
//! An unroutable path is a 404 for everyone (no information beyond the
//! route table leaks), while a routable request without the right token is
//! a 401/403 *before* anything touches the daemon.  Mutating routes get an
//! audit line — token name, tenant, method, path, final status — whether
//! they succeeded or were denied; secrets never appear in the log.
//!
//! Replies translate mechanically: a daemon `OK` becomes
//! `200 {"ok":true,"lines":[...]}` (the payload lines, verbatim), a daemon
//! `ERR <msg>` becomes `400 {"error":"<msg>"}`, and a transport failure
//! reaching the daemon becomes `502`.  The streaming route holds its
//! connection open and forwards one `METRICS` JSON line per poll as a
//! chunked body.

use crate::auth::AuthConfig;
use crate::http::{read_request, ChunkWriter, HttpError, Request, Response};
use crate::router::{route, Lowered, Plan};
use selfheal_daemon::protocol::{is_ok_reply, is_terminator, render_command, send_command};
use selfheal_jsonl::push_json_string;
use std::fs::{File, OpenOptions};
use std::io::{self, BufReader, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, SystemTime};

/// Launch options for a [`Gateway`].
#[derive(Debug, Clone)]
pub struct GatewayOptions {
    /// TCP address to listen on (`127.0.0.1:0` picks a free port).
    pub listen: String,
    /// The daemon's control socket.
    pub socket: PathBuf,
    /// The bearer-token set.
    pub auth: AuthConfig,
    /// Audit log file for mutating requests (append); `None` disables.
    pub audit: Option<PathBuf>,
    /// Pause between polls on the streaming metrics route.
    pub stream_interval: Duration,
    /// Per-command timeout toward the daemon.
    pub command_timeout: Duration,
}

impl GatewayOptions {
    /// Defaults: given listen address and daemon socket, no audit log,
    /// 200 ms stream interval, 30 s command timeout.
    pub fn new(listen: impl Into<String>, socket: impl Into<PathBuf>, auth: AuthConfig) -> Self {
        GatewayOptions {
            listen: listen.into(),
            socket: socket.into(),
            auth,
            audit: None,
            stream_interval: Duration::from_millis(200),
            command_timeout: Duration::from_secs(30),
        }
    }
}

struct ServerShared {
    options: GatewayOptions,
    stop: AtomicBool,
    audit: Option<Mutex<File>>,
}

/// How long a keep-alive connection may sit between requests before it is
/// cut loose.
const IDLE_LIMIT: Duration = Duration::from_secs(300);

/// One entry per live connection: its thread, and a clone of its stream so
/// a stop can end the thread's blocking read.
type Connections = Arc<Mutex<Vec<(JoinHandle<()>, TcpStream)>>>;

/// A running gateway server: an accept thread plus one thread per live
/// connection.  Dropping it stops accepting and joins every thread.
pub struct Gateway {
    addr: SocketAddr,
    shared: Arc<ServerShared>,
    accept: Option<JoinHandle<()>>,
    connections: Connections,
}

impl std::fmt::Debug for Gateway {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Gateway")
            .field("addr", &self.addr)
            .finish_non_exhaustive()
    }
}

impl Gateway {
    /// Binds the listen address and starts serving.
    pub fn launch(options: GatewayOptions) -> Result<Gateway, String> {
        let audit = match &options.audit {
            Some(path) => Some(Mutex::new(
                OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)
                    .map_err(|err| format!("cannot open audit log {path:?}: {err}"))?,
            )),
            None => None,
        };
        let listener = TcpListener::bind(&options.listen)
            .map_err(|err| format!("cannot bind {:?}: {err}", options.listen))?;
        let addr = listener
            .local_addr()
            .map_err(|err| format!("cannot read bound address: {err}"))?;
        let shared = Arc::new(ServerShared {
            options,
            stop: AtomicBool::new(false),
            audit,
        });
        let connections: Connections = Arc::new(Mutex::new(Vec::new()));
        let accept_shared = Arc::clone(&shared);
        let accept_connections = Arc::clone(&connections);
        let accept = thread::Builder::new()
            .name("gateway-accept".to_string())
            .spawn(move || accept_loop(listener, accept_shared, accept_connections))
            .map_err(|err| format!("cannot spawn the accept thread: {err}"))?;
        Ok(Gateway {
            addr,
            shared,
            accept: Some(accept),
            connections,
        })
    }

    /// The address actually bound (resolves a `:0` port request).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Asks every server thread to wind down: connections stop reading (a
    /// reply already on its way is still written), and the accept thread,
    /// which blocks in `accept`, is woken by a connection to its own
    /// address.
    pub fn stop(&self) {
        if self.shared.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // Called from `Drop` too, so a poisoned list is skipped, not a panic.
        if let Ok(live) = self.connections.lock() {
            for (_, stream) in live.iter() {
                let _ = stream.shutdown(Shutdown::Read);
            }
        }
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let _ = TcpStream::connect(wake);
    }

    /// Blocks until the accept thread exits (it only does on [`stop`]
    /// — this is the serving binary's park position).
    ///
    /// [`stop`]: Gateway::stop
    pub fn join(mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }
}

impl Drop for Gateway {
    fn drop(&mut self) {
        self.stop();
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        let live = match self.connections.lock() {
            Ok(mut live) => std::mem::take(&mut *live),
            Err(_) => return,
        };
        for (handle, _) in live {
            let _ = handle.join();
        }
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<ServerShared>, connections: Connections) {
    while let Ok((stream, _)) = listener.accept() {
        // The stop flag is read under the list's lock, which `stop` takes
        // after setting it: a connection is either in the list when the stop
        // hangs up on everything in it, or never served.
        let mut live = connections.lock().expect("connection list poisoned");
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        live.retain(|(handle, _)| !handle.is_finished());
        let Ok(peer) = stream.try_clone() else {
            continue;
        };
        let conn_shared = Arc::clone(&shared);
        if let Ok(handle) = thread::Builder::new()
            .name("gateway-conn".to_string())
            .spawn(move || {
                let _ = serve_connection(stream, &conn_shared);
            })
        {
            live.push((handle, peer));
        }
    }
}

fn serve_connection(stream: TcpStream, shared: &ServerShared) -> io::Result<()> {
    // Every reply is one write; without Nagle it leaves at once.
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(IDLE_LIMIT))?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            return Ok(());
        }
        let request = match read_request(&mut reader) {
            Ok(Some(request)) => request,
            // EOF: the peer hung up, or a stop shut the read side.
            Ok(None) => return Ok(()),
            // Includes the read that timed out after `IDLE_LIMIT`.
            Err(HttpError::Io(err)) => return Err(err),
            Err(HttpError::Bad { status, message }) => {
                let response = Response::json(status, error_body(&message));
                let _ = response.write_to(&mut writer, false);
                return Ok(());
            }
        };
        let keep_alive = request.keep_alive();
        match handle_request(shared, &request, &mut writer)? {
            Handled::Response(response) => response.write_to(&mut writer, keep_alive)?,
            Handled::Streamed => return Ok(()),
        }
        if !keep_alive {
            return Ok(());
        }
    }
}

enum Handled {
    Response(Response),
    Streamed,
}

fn handle_request(
    shared: &ServerShared,
    request: &Request,
    writer: &mut TcpStream,
) -> io::Result<Handled> {
    // Route first: unroutable paths 404 without touching credentials.
    let lowered = match route(
        &request.method,
        &request.path,
        request.query.as_deref(),
        &request.body,
    ) {
        Ok(lowered) => lowered,
        Err(err) => {
            return Ok(Handled::Response(Response::json(
                err.status,
                error_body(&err.message),
            )))
        }
    };
    let token = match shared.options.auth.authorize(
        request.bearer_token(),
        lowered.tenant.as_deref(),
        lowered.scope,
    ) {
        Ok(token) => token,
        Err(denied) => {
            if lowered.mutating {
                // A 403 carries an authenticated token — name it in the
                // audit trail; only a 401 stays anonymous.
                let name = shared
                    .options
                    .auth
                    .authenticate(request.bearer_token())
                    .map(|token| token.name.as_str())
                    .unwrap_or("-");
                audit(shared, name, &lowered, request, denied.status());
            }
            return Ok(Handled::Response(Response::json(
                denied.status(),
                error_body(denied.message()),
            )));
        }
    };
    let token_name = token.name.clone();
    match &lowered.plan {
        Plan::Command(command) => {
            let response = execute_command(shared, command);
            if lowered.mutating {
                audit(shared, &token_name, &lowered, request, response.status);
            }
            Ok(Handled::Response(response))
        }
        Plan::MetricsStream { tenant } => {
            stream_metrics(shared, tenant, writer)?;
            Ok(Handled::Streamed)
        }
    }
}

/// Sends one rendered command to the daemon and translates the reply.
fn execute_command(shared: &ServerShared, command: &selfheal_daemon::Command) -> Response {
    let line = render_command(command);
    match send_command(
        &shared.options.socket,
        &line,
        shared.options.command_timeout,
    ) {
        Err(err) => Response::json(
            502,
            error_body(&format!(
                "daemon unreachable at {:?}: {err}",
                shared.options.socket
            )),
        ),
        Ok(reply) if is_ok_reply(&reply) => {
            let mut body = String::from("{\"ok\":true,\"lines\":[");
            let mut first = true;
            for payload in reply.lines().filter(|l| !is_terminator(l)) {
                if !first {
                    body.push(',');
                }
                first = false;
                push_json_string(&mut body, payload);
            }
            body.push_str("]}");
            Response::json(200, body)
        }
        Ok(reply) => {
            let message = reply
                .lines()
                .last()
                .and_then(|l| l.strip_prefix("ERR "))
                .unwrap_or("daemon replied with a malformed terminator");
            Response::json(400, error_body(message))
        }
    }
}

/// The streaming route: poll `@<tenant> METRICS` and forward each JSON
/// line as one chunk until the client hangs up, the daemon goes away, or
/// the server stops.
fn stream_metrics(shared: &ServerShared, tenant: &str, writer: &mut TcpStream) -> io::Result<()> {
    let mut chunks = ChunkWriter::start(writer, 200, "application/jsonl")?;
    let line = format!("@{tenant} METRICS");
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        match send_command(
            &shared.options.socket,
            &line,
            shared.options.command_timeout,
        ) {
            Ok(reply) if is_ok_reply(&reply) => {
                let Some(payload) = reply.lines().find(|l| !is_terminator(l)) else {
                    break;
                };
                if chunks.chunk(&format!("{payload}\n")).is_err() {
                    // The client hung up; nothing left to finish.
                    return Ok(());
                }
            }
            Ok(reply) => {
                let message = reply.lines().last().unwrap_or("ERR").to_string();
                let _ = chunks.chunk(&format!("{}\n", error_body(&message)));
                break;
            }
            Err(err) => {
                let _ = chunks.chunk(&format!(
                    "{}\n",
                    error_body(&format!("daemon unreachable: {err}"))
                ));
                break;
            }
        }
        thread::sleep(shared.options.stream_interval);
    }
    chunks.finish()
}

fn error_body(message: &str) -> String {
    let mut body = String::from("{\"error\":");
    push_json_string(&mut body, message);
    body.push('}');
    body
}

/// One audit line per mutating request, successful or denied.  `token` is
/// the token *name* (never the secret), `-` when unauthenticated.
fn audit(shared: &ServerShared, token: &str, lowered: &Lowered, request: &Request, status: u16) {
    let Some(file) = &shared.audit else {
        return;
    };
    let ts = SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let tenant = lowered.tenant.as_deref().unwrap_or("*");
    let line = format!(
        "ts={ts} token={token} tenant={tenant} method={} path={} status={status}",
        request.method, request.path
    );
    if let Ok(mut file) = file.lock() {
        let _ = writeln!(file, "{line}");
    }
}
