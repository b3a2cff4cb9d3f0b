//! The route table: one HTTP surface, lowered onto the daemon's
//! [`Command`] protocol.
//!
//! The gateway adds *no* second command vocabulary — every route lowers to
//! a [`Command`] (tenant routes to a `@<tenant>`-scoped one), which is then
//! rendered by [`render_command`](selfheal_daemon::render_command) and sent
//! over the same Unix socket `selfheal-ctl` uses.  The only exception is
//! the streaming metrics route, which is a *loop* of `@<tenant> METRICS`
//! commands rather than a single one.
//!
//! | Method & path                              | Command             | Scope   |
//! |--------------------------------------------|---------------------|---------|
//! | `GET /v1/tenants`                          | `TENANT LIST`       | read    |
//! | `POST /v1/tenants`                         | `TENANT CREATE`     | admin   |
//! | `DELETE /v1/tenants/<t>`                   | `TENANT DROP`       | admin   |
//! | `GET /v1/tenants/<t>/status`               | `@t STATUS`         | read    |
//! | `GET /v1/tenants/<t>/replicas`             | `@t REPLICAS`       | read    |
//! | `POST /v1/tenants/<t>/replicas`            | `@t ADD`            | operate |
//! | `DELETE /v1/tenants/<t>/replicas/<id>`     | `@t REMOVE`         | operate |
//! | `POST /v1/tenants/<t>/replicas/<id>/config`| `@t RECONFIGURE`    | operate |
//! | `GET /v1/tenants/<t>/fixes[?signature=..]` | `@t QUERY FIXES`    | read    |
//! | `GET /v1/tenants/<t>/episodes`             | `@t EPISODES OPEN`  | read    |
//! | `POST /v1/tenants/<t>/snapshot`            | `@t SNAPSHOT`       | operate |
//! | `POST /v1/tenants/<t>/drain`               | `@t DRAIN`          | operate |
//! | `GET /v1/tenants/<t>/metrics`              | `@t METRICS`        | read    |
//! | `GET /v1/tenants/<t>/metrics/stream`       | (`@t METRICS` loop) | read    |
//! | `POST /v1/shutdown`                        | `SHUTDOWN`          | admin   |
//!
//! Daemon-wide routes (no `<t>`) additionally require a `*`-bound token
//! (see [`crate::auth`]).  Request bodies are flat JSON objects of the keys
//! each route names; any other key, or one given twice, is a 400.

use crate::auth::Scope;
use selfheal_daemon::protocol::Command;
use selfheal_jsonl::{JsonError, Scanner};
use std::path::PathBuf;

/// What the server should do for one routed request.
#[derive(Debug, Clone, PartialEq)]
pub enum Plan {
    /// Send one command, translate its reply.
    Command(Command),
    /// Poll `@<tenant> METRICS` and stream the JSON lines as chunks.
    MetricsStream {
        /// The tenant whose health is streamed.
        tenant: String,
    },
}

/// A routed request: the plan plus what authorizing it requires.
#[derive(Debug, Clone, PartialEq)]
pub struct Lowered {
    /// What to execute.
    pub plan: Plan,
    /// The tenant the route addresses (`None` = daemon-wide).
    pub tenant: Option<String>,
    /// Minimum token scope.
    pub scope: Scope,
    /// Whether the route changes daemon state (audit-logged).
    pub mutating: bool,
}

/// A request the router rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteError {
    /// HTTP status (400, 404, or 405).
    pub status: u16,
    /// Human-readable cause.
    pub message: String,
}

fn bad(message: impl Into<String>) -> RouteError {
    RouteError {
        status: 400,
        message: message.into(),
    }
}

fn not_found(path: &str) -> RouteError {
    RouteError {
        status: 404,
        message: format!("no route for {path}"),
    }
}

fn method_not_allowed(method: &str, path: &str) -> RouteError {
    RouteError {
        status: 405,
        message: format!("{method} is not supported on {path}"),
    }
}

/// Routes one request.  `query` is the raw query string (if any), `body`
/// the raw request body (routes that take none reject a non-empty one).
pub fn route(
    method: &str,
    path: &str,
    query: Option<&str>,
    body: &[u8],
) -> Result<Lowered, RouteError> {
    let segments: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
    match segments.as_slice() {
        ["v1", "tenants"] => match method {
            "GET" => global(Command::TenantList, Scope::Read, false, body),
            "POST" => {
                let fields = parse_body(body, &["name", "shared_pool"])?;
                let name = require_word(&fields, "name")?;
                let shared_pool = get_bool(&fields, "shared_pool")?.unwrap_or(false);
                Ok(Lowered {
                    plan: Plan::Command(Command::TenantCreate { name, shared_pool }),
                    tenant: None,
                    scope: Scope::Admin,
                    mutating: true,
                })
            }
            _ => Err(method_not_allowed(method, path)),
        },
        ["v1", "tenants", tenant] => match method {
            "DELETE" => {
                let tenant = word(tenant, "tenant name")?;
                global(Command::TenantDrop(tenant), Scope::Admin, true, body)
            }
            _ => Err(method_not_allowed(method, path)),
        },
        ["v1", "tenants", tenant, rest @ ..] => {
            let tenant = word(tenant, "tenant name")?;
            tenant_route(method, path, &tenant, rest, query, body)
        }
        ["v1", "shutdown"] => match method {
            "POST" => global(Command::Shutdown, Scope::Admin, true, body),
            _ => Err(method_not_allowed(method, path)),
        },
        _ => Err(not_found(path)),
    }
}

fn global(
    command: Command,
    scope: Scope,
    mutating: bool,
    body: &[u8],
) -> Result<Lowered, RouteError> {
    reject_body(body)?;
    Ok(Lowered {
        plan: Plan::Command(command),
        tenant: None,
        scope,
        mutating,
    })
}

fn tenant_route(
    method: &str,
    path: &str,
    tenant: &str,
    rest: &[&str],
    query: Option<&str>,
    body: &[u8],
) -> Result<Lowered, RouteError> {
    let fleet = |inner: Command, scope: Scope, mutating: bool| Lowered {
        plan: Plan::Command(Command::Scoped {
            tenant: tenant.to_string(),
            inner: Box::new(inner),
        }),
        tenant: Some(tenant.to_string()),
        scope,
        mutating,
    };
    match (method, rest) {
        ("GET", ["status"]) => Ok(fleet(Command::Status, Scope::Read, false)),
        ("GET", ["replicas"]) => Ok(fleet(Command::Replicas, Scope::Read, false)),
        ("POST", ["replicas"]) => {
            let fields = parse_body(body, &["profile"])?;
            let profile = match get_str(&fields, "profile")? {
                Some(profile) => check_word(profile, "profile")?,
                None => "default".to_string(),
            };
            Ok(fleet(Command::Add(profile), Scope::Operate, true))
        }
        ("DELETE", ["replicas", id]) => {
            reject_body(body)?;
            Ok(fleet(Command::Remove(parse_id(id)?), Scope::Operate, true))
        }
        ("POST", ["replicas", id, "config"]) => {
            let fields = parse_body(body, &["key", "value"])?;
            let key = require_word(&fields, "key")?;
            let value = require_word(&fields, "value")?;
            Ok(fleet(
                Command::Reconfigure {
                    id: parse_id(id)?,
                    key,
                    value,
                },
                Scope::Operate,
                true,
            ))
        }
        ("GET", ["fixes"]) => {
            let signature = match query_value(query, "signature") {
                None => None,
                Some(text) => Some(parse_signature(text)?),
            };
            Ok(fleet(Command::QueryFixes(signature), Scope::Read, false))
        }
        ("GET", ["episodes"]) => Ok(fleet(Command::EpisodesOpen, Scope::Read, false)),
        ("POST", ["snapshot"]) => {
            let fields = parse_body(body, &["path"])?;
            let target = require_word(&fields, "path")?;
            Ok(fleet(
                Command::Snapshot(PathBuf::from(target)),
                Scope::Operate,
                true,
            ))
        }
        ("POST", ["drain"]) => {
            reject_body(body)?;
            Ok(fleet(Command::Drain, Scope::Operate, true))
        }
        ("GET", ["metrics"]) => Ok(fleet(Command::Metrics, Scope::Read, false)),
        ("GET", ["metrics", "stream"]) => Ok(Lowered {
            plan: Plan::MetricsStream {
                tenant: tenant.to_string(),
            },
            tenant: Some(tenant.to_string()),
            scope: Scope::Read,
            mutating: false,
        }),
        (
            _,
            ["status" | "replicas" | "fixes" | "episodes" | "snapshot" | "drain" | "metrics", ..],
        ) => Err(method_not_allowed(method, path)),
        _ => Err(not_found(path)),
    }
}

/// The flat-JSON body values the routes accept.
#[derive(Debug, Clone, PartialEq)]
enum Value {
    Str(String),
    Bool(bool),
    Num(f64),
}

/// Parses a request body as one flat JSON object (an empty body is an
/// empty object).  Nested objects/arrays are rejected — no route needs
/// them, and a flat map keeps the parser honest about what it accepts.
fn parse_object(body: &[u8]) -> Result<Vec<(String, Value)>, RouteError> {
    let text = std::str::from_utf8(body).map_err(|_| bad("body is not valid UTF-8"))?;
    let mut fields = Vec::new();
    if text.trim().is_empty() {
        return Ok(fields);
    }
    let mut scanner = Scanner::new(text);
    scanner
        .object(|s, key, _| {
            let value = match s.peek() {
                Some(b'"') => Value::Str(s.parse_string()?.into_owned()),
                Some(b't' | b'f') => Value::Bool(s.parse_bool()?),
                Some(b'{' | b'[') => {
                    let message = format!("body key {key:?}: nested values are not supported");
                    return Err(JsonError::at(s.pos(), message));
                }
                _ => Value::Num(s.parse_f64()?),
            };
            fields.push((key.to_string(), value));
            Ok(())
        })
        .and_then(|()| scanner.finish())
        .map_err(|err| bad(format!("bad JSON body: {err}")))?;
    Ok(fields)
}

/// [`parse_object`] for a route that takes only the keys `accepted`: any
/// other key is a 400 that names it.
fn parse_body(body: &[u8], accepted: &[&str]) -> Result<Vec<(String, Value)>, RouteError> {
    let fields = parse_object(body)?;
    match fields
        .iter()
        .find(|(key, _)| !accepted.contains(&key.as_str()))
    {
        Some((key, _)) => Err(bad(format!(
            "unknown body key {key:?}; this route takes {}",
            accepted.join(", ")
        ))),
        None => Ok(fields),
    }
}

fn reject_body(body: &[u8]) -> Result<(), RouteError> {
    if body.iter().all(|b| b.is_ascii_whitespace()) {
        Ok(())
    } else {
        Err(bad("this route takes no request body"))
    }
}

fn get_str(fields: &[(String, Value)], key: &str) -> Result<Option<String>, RouteError> {
    match fields.iter().find(|(k, _)| k == key) {
        None => Ok(None),
        Some((_, Value::Str(text))) => Ok(Some(text.clone())),
        Some(_) => Err(bad(format!("body key {key:?} must be a string"))),
    }
}

fn get_bool(fields: &[(String, Value)], key: &str) -> Result<Option<bool>, RouteError> {
    match fields.iter().find(|(k, _)| k == key) {
        None => Ok(None),
        Some((_, Value::Bool(flag))) => Ok(Some(*flag)),
        Some(_) => Err(bad(format!("body key {key:?} must be a boolean"))),
    }
}

fn require_word(fields: &[(String, Value)], key: &str) -> Result<String, RouteError> {
    let text = get_str(fields, key)?.ok_or_else(|| bad(format!("body key {key:?} is required")))?;
    check_word(text, key)
}

/// The line protocol frames arguments by whitespace, so any value lowered
/// into a command line must be one word.
fn check_word(text: String, what: &str) -> Result<String, RouteError> {
    if text.is_empty() || text.chars().any(char::is_whitespace) {
        return Err(bad(format!(
            "{what} must be one non-empty word, got {text:?}"
        )));
    }
    Ok(text)
}

fn word(text: &str, what: &str) -> Result<String, RouteError> {
    check_word(text.to_string(), what)
}

fn parse_id(text: &str) -> Result<usize, RouteError> {
    text.parse::<usize>()
        .map_err(|_| bad(format!("expected a replica id, got {text:?}")))
}

fn parse_signature(text: &str) -> Result<Vec<f64>, RouteError> {
    let values: Result<Vec<f64>, _> = text.split(',').map(str::parse::<f64>).collect();
    values.map_err(|_| {
        bad(format!(
            "expected a comma-separated symptom vector, got {text:?}"
        ))
    })
}

fn query_value<'a>(query: Option<&'a str>, key: &str) -> Option<&'a str> {
    query?
        .split('&')
        .filter_map(|pair| pair.split_once('='))
        .find(|(k, _)| *k == key)
        .map(|(_, v)| v)
}

/// One exemplar request per route, paired with the protocol line it lowers
/// to (empty for the streaming route).  This is the contract table the
/// round-trip tests — and new readers — consult.
pub struct RouteSample {
    /// HTTP method.
    pub method: &'static str,
    /// Path, without query.
    pub path: &'static str,
    /// Query string, when the route takes one.
    pub query: Option<&'static str>,
    /// Request body (empty = none).
    pub body: &'static str,
    /// The rendered command line (`""` for the metrics stream).
    pub line: &'static str,
}

/// See [`RouteSample`].
pub const SAMPLES: &[RouteSample] = &[
    RouteSample {
        method: "GET",
        path: "/v1/tenants",
        query: None,
        body: "",
        line: "TENANT LIST",
    },
    RouteSample {
        method: "POST",
        path: "/v1/tenants",
        query: None,
        body: "{\"name\":\"scout\",\"shared_pool\":true}",
        line: "TENANT CREATE scout pool",
    },
    RouteSample {
        method: "POST",
        path: "/v1/tenants",
        query: None,
        body: "{\"name\":\"loner\"}",
        line: "TENANT CREATE loner",
    },
    RouteSample {
        method: "DELETE",
        path: "/v1/tenants/scout",
        query: None,
        body: "",
        line: "TENANT DROP scout",
    },
    RouteSample {
        method: "GET",
        path: "/v1/tenants/default/status",
        query: None,
        body: "",
        line: "@default STATUS",
    },
    RouteSample {
        method: "GET",
        path: "/v1/tenants/scout/replicas",
        query: None,
        body: "",
        line: "@scout REPLICAS",
    },
    RouteSample {
        method: "POST",
        path: "/v1/tenants/scout/replicas",
        query: None,
        body: "{\"profile\":\"online:0.05\"}",
        line: "@scout ADD online:0.05",
    },
    RouteSample {
        method: "DELETE",
        path: "/v1/tenants/scout/replicas/3",
        query: None,
        body: "",
        line: "@scout REMOVE 3",
    },
    RouteSample {
        method: "POST",
        path: "/v1/tenants/scout/replicas/1/config",
        query: None,
        body: "{\"key\":\"fault_rate\",\"value\":\"0.1\"}",
        line: "@scout RECONFIGURE 1 fault_rate=0.1",
    },
    RouteSample {
        method: "GET",
        path: "/v1/tenants/scout/fixes",
        query: None,
        body: "",
        line: "@scout QUERY FIXES",
    },
    RouteSample {
        method: "GET",
        path: "/v1/tenants/scout/fixes",
        query: Some("signature=1.5,0,-2"),
        body: "",
        line: "@scout QUERY FIXES 1.5,0,-2",
    },
    RouteSample {
        method: "GET",
        path: "/v1/tenants/scout/episodes",
        query: None,
        body: "",
        line: "@scout EPISODES OPEN",
    },
    RouteSample {
        method: "POST",
        path: "/v1/tenants/scout/snapshot",
        query: None,
        body: "{\"path\":\"/tmp/x.jsonl\"}",
        line: "@scout SNAPSHOT /tmp/x.jsonl",
    },
    RouteSample {
        method: "POST",
        path: "/v1/tenants/scout/drain",
        query: None,
        body: "",
        line: "@scout DRAIN",
    },
    RouteSample {
        method: "GET",
        path: "/v1/tenants/scout/metrics",
        query: None,
        body: "",
        line: "@scout METRICS",
    },
    RouteSample {
        method: "GET",
        path: "/v1/tenants/scout/metrics/stream",
        query: None,
        body: "",
        line: "",
    },
    RouteSample {
        method: "POST",
        path: "/v1/shutdown",
        query: None,
        body: "",
        line: "SHUTDOWN",
    },
];

#[cfg(test)]
mod tests {
    use super::*;
    use selfheal_daemon::protocol::{parse_command, render_command};

    #[test]
    fn every_route_lowers_to_its_sample_line() {
        for sample in SAMPLES {
            let lowered = route(
                sample.method,
                sample.path,
                sample.query,
                sample.body.as_bytes(),
            )
            .unwrap_or_else(|err| {
                panic!("{} {} failed to route: {err:?}", sample.method, sample.path)
            });
            match &lowered.plan {
                Plan::Command(command) => {
                    let line = render_command(command);
                    assert_eq!(line, sample.line, "{} {}", sample.method, sample.path);
                    assert_eq!(
                        parse_command(&line).as_ref(),
                        Ok(command),
                        "rendered line must parse back"
                    );
                }
                Plan::MetricsStream { tenant } => {
                    assert_eq!(sample.line, "", "stream routes have no single line");
                    assert_eq!(tenant, "scout");
                }
            }
        }
    }

    #[test]
    fn samples_reach_every_command_variant() {
        let mut status = false;
        let mut replicas = false;
        let mut add = false;
        let mut remove = false;
        let mut reconfigure = false;
        let mut query_none = false;
        let mut query_some = false;
        let mut episodes = false;
        let mut snapshot = false;
        let mut drain = false;
        let mut metrics = false;
        let mut create = false;
        let mut drop = false;
        let mut list = false;
        let mut scoped = false;
        let mut shutdown = false;
        for sample in SAMPLES.iter().filter(|s| !s.line.is_empty()) {
            let mut command = parse_command(sample.line).unwrap();
            if let Command::Scoped { inner, .. } = command {
                scoped = true;
                command = *inner;
            }
            match command {
                Command::Status => status = true,
                Command::Replicas => replicas = true,
                Command::Add(_) => add = true,
                Command::Remove(_) => remove = true,
                Command::Reconfigure { .. } => reconfigure = true,
                Command::QueryFixes(None) => query_none = true,
                Command::QueryFixes(Some(_)) => query_some = true,
                Command::EpisodesOpen => episodes = true,
                Command::Snapshot(_) => snapshot = true,
                Command::Drain => drain = true,
                Command::Metrics => metrics = true,
                Command::TenantCreate { .. } => create = true,
                Command::TenantDrop(_) => drop = true,
                Command::TenantList => list = true,
                Command::Scoped { .. } => unreachable!("unwrapped above"),
                Command::Shutdown => shutdown = true,
            }
        }
        assert!(
            status
                && replicas
                && add
                && remove
                && reconfigure
                && query_none
                && query_some
                && episodes
                && snapshot
                && drain
                && metrics
                && create
                && drop
                && list
                && scoped
                && shutdown,
            "every Command variant must be reachable from some HTTP route"
        );
    }

    #[test]
    fn scopes_and_mutability_follow_the_table() {
        let create = route("POST", "/v1/tenants", None, b"{\"name\":\"t\"}").unwrap();
        assert_eq!(
            (create.scope, create.mutating, create.tenant),
            (Scope::Admin, true, None)
        );
        let status = route("GET", "/v1/tenants/scout/status", None, b"").unwrap();
        assert_eq!(
            (status.scope, status.mutating, status.tenant.as_deref()),
            (Scope::Read, false, Some("scout"))
        );
        let drain = route("POST", "/v1/tenants/scout/drain", None, b"").unwrap();
        assert_eq!((drain.scope, drain.mutating), (Scope::Operate, true));
    }

    #[test]
    fn rejects_unroutable_requests() {
        assert_eq!(route("GET", "/nope", None, b"").unwrap_err().status, 404);
        assert_eq!(
            route("GET", "/v1/tenants/t/bogus", None, b"")
                .unwrap_err()
                .status,
            404
        );
        assert_eq!(
            route("PATCH", "/v1/tenants", None, b"").unwrap_err().status,
            405
        );
        assert_eq!(
            route("DELETE", "/v1/tenants/scout/status", None, b"")
                .unwrap_err()
                .status,
            405
        );
        assert_eq!(
            route("POST", "/v1/tenants", None, b"{}")
                .unwrap_err()
                .status,
            400
        );
        assert_eq!(
            route("POST", "/v1/tenants", None, b"{\"name\":\"two words\"}")
                .unwrap_err()
                .status,
            400
        );
        assert_eq!(
            route("GET", "/v1/tenants/has space/status", None, b"")
                .unwrap_err()
                .status,
            400
        );
        assert_eq!(
            route("GET", "/v1/tenants/scout/fixes", Some("signature=1,x"), b"")
                .unwrap_err()
                .status,
            400
        );
        assert_eq!(
            route("POST", "/v1/tenants/scout/drain", None, b"{\"x\":1}")
                .unwrap_err()
                .status,
            400
        );
        assert_eq!(
            route("POST", "/v1/tenants", None, b"{\"name\":{\"nested\":1}}")
                .unwrap_err()
                .status,
            400
        );
    }

    #[test]
    fn body_parser_handles_the_flat_object_shapes() {
        assert!(parse_object(b"").unwrap().is_empty());
        assert!(parse_object(b"  {  }  ").unwrap().is_empty());
        let fields = parse_object(b"{\"a\":\"x\",\"b\":true,\"c\":1.5}").unwrap();
        assert_eq!(fields.len(), 3);
        assert_eq!(get_str(&fields, "a").unwrap().as_deref(), Some("x"));
        assert_eq!(get_bool(&fields, "b").unwrap(), Some(true));
        assert!(matches!(fields[2].1, Value::Num(v) if v == 1.5));
        assert!(parse_object(b"{\"a\":1,\"a\":2}").is_err(), "duplicate key");
        assert!(parse_object(b"{\"a\":1} trailing").is_err());
        assert!(parse_object(b"[1]").is_err());
    }

    #[test]
    fn a_body_key_the_route_does_not_take_is_a_400_that_names_it() {
        let err = route(
            "POST",
            "/v1/tenants",
            None,
            b"{\"name\":\"scout\",\"shared_pol\":true}",
        )
        .unwrap_err();
        assert_eq!(err.status, 400);
        assert!(err.message.contains("\"shared_pol\""), "{}", err.message);
        for (path, body) in [
            (
                "/v1/tenants/scout/replicas",
                "{\"profile\":\"default\",\"count\":2}",
            ),
            (
                "/v1/tenants/scout/replicas/1/config",
                "{\"key\":\"k\",\"val\":\"v\"}",
            ),
            ("/v1/tenants/scout/snapshot", "{\"file\":\"/tmp/x.jsonl\"}"),
        ] {
            let err = route("POST", path, None, body.as_bytes()).unwrap_err();
            assert_eq!(err.status, 400, "{path}");
            assert!(
                err.message.contains("unknown body key"),
                "{path}: {}",
                err.message
            );
        }
    }

    #[test]
    fn a_number_no_f64_holds_is_a_400_at_the_body_parser() {
        for body in [&b"{\"rate\":1e999}"[..], b"{\"rate\":-1e999}"] {
            let err = parse_object(body).unwrap_err();
            assert_eq!(err.status, 400);
            assert!(err.message.contains("byte 8: number out of range"));
        }
        // Through a route: refused before the route looks at its keys.
        let err = route("POST", "/v1/tenants", None, b"{\"rate\":1e999}").unwrap_err();
        assert_eq!(err.status, 400);
        assert!(err.message.contains("number out of range: 1e999"));
        assert!(parse_object(b"{\"rate\":1e308}").is_ok());
    }
}
