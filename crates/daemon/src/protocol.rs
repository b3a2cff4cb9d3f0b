//! The control plane's line-oriented text protocol.
//!
//! One request is one line of whitespace-separated words; one reply is zero
//! or more payload lines followed by a terminator line — `OK` on success,
//! `ERR <message>` on failure.  The framing is deliberately primitive
//! (std-only, no serialization dependency) so `nc -U`, shell scripts, and
//! [`send_command`] all speak it equally well.

use std::io::{self, BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// A parsed control-plane request.
///
/// Commands are applied by the daemon at epoch barriers only — between two
/// barriers every replica advances exactly as a batch run would, so the
/// determinism invariants of the tick-sliced scheduler hold for the ticks
/// between control events.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `STATUS` — one-screen daemon summary (epoch, replica states, store
    /// statistics, per-replica error/restart lines).
    Status,
    /// `REPLICAS` — one line per supervised replica, `key=value` words
    /// from `profile=` to `active_faults=`.
    Replicas,
    /// `ADD <profile>` — add a replica under a fault profile
    /// (`none`, `default`, or `<service>[:<rate>]`, e.g. `online:0.05`).
    /// The new replica's healer warm-starts from the shared store.
    Add(String),
    /// `REMOVE <id>` — stop and retire one replica.  Ids are never reused.
    Remove(usize),
    /// `RECONFIGURE <id> <key>=<value>` — live-update one replica's fault
    /// or workload stream (keys: `fault_rate`, `fault_profile`,
    /// `workload_rate`), or toggle the fleet-wide adversary
    /// (`adversary=on`/`off`; the id names which replica's reply channel
    /// acknowledges, the engine itself targets the whole fleet).
    Reconfigure {
        /// The replica to reconfigure.
        id: usize,
        /// Which knob to turn.
        key: String,
        /// The new value, parsed per key.
        value: String,
    },
    /// `QUERY FIXES [<signature>]` — with a comma-separated symptom vector
    /// (finite components, one per metric of the fleet's schema — anything
    /// else answers `ERR`), ask the shared store for its best fix; without
    /// one, dump per-fix success/failure statistics.
    QueryFixes(Option<Vec<f64>>),
    /// `EPISODES OPEN` — which replicas are currently inside a failure
    /// episode.
    EpisodesOpen,
    /// `SNAPSHOT <path>` — save the shared store's full experience to a
    /// JSON-lines snapshot file.  Refused when `path` resolves to a file the
    /// daemon itself writes (a tenant's snapshot log, the tenant manifest).
    Snapshot(PathBuf),
    /// `DRAIN` — stop injecting faults fleet-wide and keep ticking until
    /// every open episode closes, then pause.
    Drain,
    /// `METRICS` — one tenant-tagged [`FleetHealth`] JSON line, the same
    /// record the metrics file receives (the gateway's streaming endpoint
    /// polls this).
    ///
    /// [`FleetHealth`]: selfheal_telemetry::FleetHealth
    Metrics,
    /// `TENANT CREATE <name> [pool]` — create a named fleet with its own
    /// `SynopsisStore` namespace and snapshot log.  With the trailing
    /// `pool` word the tenant opts into the cross-tenant shared pool:
    /// its healers' drained updates are mirrored into a pooled store that
    /// every opted-in tenant may fall back to.
    TenantCreate {
        /// The tenant's name (`[a-z0-9_-]`, at most 32 bytes).
        name: String,
        /// Whether the tenant joins the cross-tenant shared pool.
        shared_pool: bool,
    },
    /// `TENANT DROP <name>` — stop the tenant's replicas and delete its
    /// snapshot log.  The `default` tenant cannot be dropped.
    TenantDrop(String),
    /// `TENANT LIST` — one line per tenant.
    TenantList,
    /// `@<tenant> <command>` — scope a per-fleet command to a named
    /// tenant.  Unscoped per-fleet commands address the `default` tenant;
    /// global commands (`SHUTDOWN`, `TENANT ...`) cannot be scoped.
    Scoped {
        /// The tenant the inner command addresses.
        tenant: String,
        /// The per-fleet command to apply.
        inner: Box<Command>,
    },
    /// `SHUTDOWN` — flush every tenant's store, stop every replica, exit
    /// cleanly.
    Shutdown,
}

impl Command {
    /// Whether the command addresses the whole daemon rather than one
    /// tenant's fleet (global commands reject `@<tenant>` scoping).
    pub(crate) fn is_global(&self) -> bool {
        matches!(
            self,
            Command::Shutdown
                | Command::TenantCreate { .. }
                | Command::TenantDrop(_)
                | Command::TenantList
                | Command::Scoped { .. }
        )
    }
}

/// Parses one request line.  Command words are case-insensitive; arguments
/// are taken verbatim.
pub fn parse_command(line: &str) -> Result<Command, String> {
    let words: Vec<&str> = line.split_whitespace().collect();
    if let Some(tenant) = words.first().and_then(|w| w.strip_prefix('@')) {
        if tenant.is_empty() {
            return Err("expected @<tenant> <command>".to_string());
        }
        let inner = parse_command(&words[1..].join(" "))?;
        if matches!(inner, Command::Scoped { .. }) {
            return Err("nested tenant scopes are not allowed".to_string());
        }
        if inner.is_global() {
            return Err(format!(
                "{} is a daemon-wide command and cannot be tenant-scoped",
                words[1].to_ascii_uppercase()
            ));
        }
        return Ok(Command::Scoped {
            tenant: tenant.to_string(),
            inner: Box::new(inner),
        });
    }
    let head = words
        .first()
        .map(|w| w.to_ascii_uppercase())
        .ok_or_else(|| "empty command".to_string())?;
    match head.as_str() {
        "STATUS" => expect_args(&words, 0).map(|_| Command::Status),
        "REPLICAS" => expect_args(&words, 0).map(|_| Command::Replicas),
        "ADD" => expect_args(&words, 1).map(|args| Command::Add(args[0].to_string())),
        "REMOVE" => {
            let args = expect_args(&words, 1)?;
            Ok(Command::Remove(parse_id(args[0])?))
        }
        "RECONFIGURE" => {
            let args = expect_args(&words, 2)?;
            let id = parse_id(args[0])?;
            let (key, value) = args[1]
                .split_once('=')
                .ok_or_else(|| format!("expected <key>=<value>, got {:?}", args[1]))?;
            if key.is_empty() || value.is_empty() {
                return Err(format!("expected <key>=<value>, got {:?}", args[1]));
            }
            Ok(Command::Reconfigure {
                id,
                key: key.to_string(),
                value: value.to_string(),
            })
        }
        "QUERY" => match words.get(1).map(|w| w.to_ascii_uppercase()).as_deref() {
            Some("FIXES") => match words.len() {
                2 => Ok(Command::QueryFixes(None)),
                3 => Ok(Command::QueryFixes(Some(parse_signature(words[2])?))),
                _ => Err("usage: QUERY FIXES [<v1,v2,...>]".to_string()),
            },
            _ => Err("unknown query; try QUERY FIXES".to_string()),
        },
        "EPISODES" => match words.get(1).map(|w| w.to_ascii_uppercase()).as_deref() {
            Some("OPEN") if words.len() == 2 => Ok(Command::EpisodesOpen),
            _ => Err("usage: EPISODES OPEN".to_string()),
        },
        "SNAPSHOT" => {
            let args = expect_args(&words, 1)?;
            Ok(Command::Snapshot(PathBuf::from(args[0])))
        }
        "DRAIN" => expect_args(&words, 0).map(|_| Command::Drain),
        "METRICS" => expect_args(&words, 0).map(|_| Command::Metrics),
        "TENANT" => match words.get(1).map(|w| w.to_ascii_uppercase()).as_deref() {
            Some("CREATE") => match &words[2..] {
                [name] => Ok(Command::TenantCreate {
                    name: name.to_string(),
                    shared_pool: false,
                }),
                [name, pool] if pool.eq_ignore_ascii_case("pool") => Ok(Command::TenantCreate {
                    name: name.to_string(),
                    shared_pool: true,
                }),
                _ => Err("usage: TENANT CREATE <name> [pool]".to_string()),
            },
            Some("DROP") if words.len() == 3 => Ok(Command::TenantDrop(words[2].to_string())),
            Some("LIST") if words.len() == 2 => Ok(Command::TenantList),
            _ => Err(
                "usage: TENANT CREATE <name> [pool] | TENANT DROP <name> | TENANT LIST".to_string(),
            ),
        },
        "SHUTDOWN" => expect_args(&words, 0).map(|_| Command::Shutdown),
        other => Err(format!("unknown command {other:?}")),
    }
}

/// Renders a command back into its request line — the exact inverse of
/// [`parse_command`] (round-trip tested), used by the HTTP gateway so the
/// two command surfaces share one encoding.
///
/// Arguments that the line framing cannot carry (whitespace in snapshot
/// paths or profile names) would not round-trip; the daemon never produces
/// such values and the gateway's router rejects them.
pub fn render_command(command: &Command) -> String {
    match command {
        Command::Status => "STATUS".to_string(),
        Command::Replicas => "REPLICAS".to_string(),
        Command::Add(profile) => format!("ADD {profile}"),
        Command::Remove(id) => format!("REMOVE {id}"),
        Command::Reconfigure { id, key, value } => format!("RECONFIGURE {id} {key}={value}"),
        Command::QueryFixes(None) => "QUERY FIXES".to_string(),
        Command::QueryFixes(Some(signature)) => {
            let joined: Vec<String> = signature.iter().map(|v| v.to_string()).collect();
            format!("QUERY FIXES {}", joined.join(","))
        }
        Command::EpisodesOpen => "EPISODES OPEN".to_string(),
        Command::Snapshot(path) => format!("SNAPSHOT {}", path.display()),
        Command::Drain => "DRAIN".to_string(),
        Command::Metrics => "METRICS".to_string(),
        Command::TenantCreate { name, shared_pool } => {
            let pool = if *shared_pool { " pool" } else { "" };
            format!("TENANT CREATE {name}{pool}")
        }
        Command::TenantDrop(name) => format!("TENANT DROP {name}"),
        Command::TenantList => "TENANT LIST".to_string(),
        Command::Scoped { tenant, inner } => format!("@{tenant} {}", render_command(inner)),
        Command::Shutdown => "SHUTDOWN".to_string(),
    }
}

fn expect_args<'a>(words: &'a [&'a str], count: usize) -> Result<&'a [&'a str], String> {
    let args = &words[1..];
    if args.len() == count {
        Ok(args)
    } else {
        Err(format!(
            "{} takes {count} argument(s), got {}",
            words[0].to_ascii_uppercase(),
            args.len()
        ))
    }
}

fn parse_id(word: &str) -> Result<usize, String> {
    word.parse::<usize>()
        .map_err(|_| format!("expected a replica id, got {word:?}"))
}

fn parse_signature(word: &str) -> Result<Vec<f64>, String> {
    let values: Result<Vec<f64>, _> = word.split(',').map(str::parse::<f64>).collect();
    values.map_err(|_| format!("expected a comma-separated symptom vector, got {word:?}"))
}

/// Renders a success reply: the payload lines, then the `OK` terminator.
pub(crate) fn reply_ok(lines: &[String]) -> String {
    let mut out = String::new();
    for line in lines {
        out.push_str(line);
        out.push('\n');
    }
    out.push_str("OK\n");
    out
}

/// Renders a failure reply (`ERR <message>`, newlines flattened so the
/// terminator stays one line).
pub(crate) fn reply_err(message: &str) -> String {
    format!("ERR {}\n", message.replace('\n', " "))
}

/// Whether a full reply ends in the success terminator.
pub fn is_ok_reply(reply: &str) -> bool {
    reply.lines().last().is_some_and(|line| line == "OK")
}

/// Whether a line is a reply terminator (`OK` or `ERR ...`).
pub fn is_terminator(line: &str) -> bool {
    line == "OK" || line == "ERR" || line.starts_with("ERR ")
}

/// Sends one command line over the daemon's Unix socket and reads the full
/// reply (payload + terminator) — the client half of the protocol, used by
/// `selfheal-ctl` and the integration tests.
///
/// `timeout` bounds each read; commands are applied at the daemon's next
/// epoch barrier, so replies normally arrive within one epoch.
pub fn send_command(socket: &Path, command: &str, timeout: Duration) -> io::Result<String> {
    let stream = UnixStream::connect(socket)?;
    stream.set_read_timeout(Some(timeout))?;
    // One write, command and newline together.  A daemon at its connection
    // limit answers `ERR` and hangs up without reading, so a failed write
    // counts only when no reply arrives either.
    let sent = (&stream).write_all(format!("{command}\n").as_bytes());
    let mut reply = String::new();
    for line in BufReader::new(stream).lines() {
        let line = line?;
        let done = is_terminator(&line);
        reply.push_str(&line);
        reply.push('\n');
        if done {
            break;
        }
    }
    if reply.is_empty() {
        sent?;
    }
    Ok(reply)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_command_form() {
        assert_eq!(parse_command("status"), Ok(Command::Status));
        assert_eq!(parse_command("REPLICAS"), Ok(Command::Replicas));
        assert_eq!(
            parse_command("ADD online:0.05"),
            Ok(Command::Add("online:0.05".to_string()))
        );
        assert_eq!(parse_command("REMOVE 3"), Ok(Command::Remove(3)));
        assert_eq!(
            parse_command("RECONFIGURE 1 fault_rate=0.1"),
            Ok(Command::Reconfigure {
                id: 1,
                key: "fault_rate".to_string(),
                value: "0.1".to_string(),
            })
        );
        assert_eq!(parse_command("QUERY FIXES"), Ok(Command::QueryFixes(None)));
        assert_eq!(
            parse_command("query fixes 1.5,0,-2"),
            Ok(Command::QueryFixes(Some(vec![1.5, 0.0, -2.0])))
        );
        assert_eq!(parse_command("EPISODES OPEN"), Ok(Command::EpisodesOpen));
        assert_eq!(
            parse_command("SNAPSHOT /tmp/x.jsonl"),
            Ok(Command::Snapshot(PathBuf::from("/tmp/x.jsonl")))
        );
        assert_eq!(parse_command("DRAIN"), Ok(Command::Drain));
        assert_eq!(parse_command("METRICS"), Ok(Command::Metrics));
        assert_eq!(
            parse_command("tenant create scout pool"),
            Ok(Command::TenantCreate {
                name: "scout".to_string(),
                shared_pool: true,
            })
        );
        assert_eq!(
            parse_command("TENANT CREATE loner"),
            Ok(Command::TenantCreate {
                name: "loner".to_string(),
                shared_pool: false,
            })
        );
        assert_eq!(
            parse_command("TENANT DROP scout"),
            Ok(Command::TenantDrop("scout".to_string()))
        );
        assert_eq!(parse_command("TENANT LIST"), Ok(Command::TenantList));
        assert_eq!(
            parse_command("@scout status"),
            Ok(Command::Scoped {
                tenant: "scout".to_string(),
                inner: Box::new(Command::Status),
            })
        );
        assert_eq!(
            parse_command("@scout QUERY FIXES 1.5,0"),
            Ok(Command::Scoped {
                tenant: "scout".to_string(),
                inner: Box::new(Command::QueryFixes(Some(vec![1.5, 0.0]))),
            })
        );
        assert_eq!(parse_command("SHUTDOWN"), Ok(Command::Shutdown));
    }

    #[test]
    fn rejects_malformed_requests() {
        assert!(parse_command("").is_err());
        assert!(parse_command("FROB").is_err());
        assert!(parse_command("REMOVE abc").is_err());
        assert!(parse_command("RECONFIGURE 1 fault_rate").is_err());
        assert!(parse_command("QUERY FIXES 1.0,x").is_err());
        assert!(parse_command("STATUS now").is_err());
        assert!(parse_command("TENANT CREATE a b").is_err());
        assert!(parse_command("TENANT").is_err());
        assert!(parse_command("@").is_err());
        assert!(parse_command("@scout").is_err());
        assert!(parse_command("@scout SHUTDOWN").is_err());
        assert!(parse_command("@scout TENANT LIST").is_err());
        assert!(parse_command("@a @b STATUS").is_err());
    }

    #[test]
    fn render_parse_round_trips_every_variant() {
        let commands = vec![
            Command::Status,
            Command::Replicas,
            Command::Add("online:0.05".to_string()),
            Command::Remove(3),
            Command::Reconfigure {
                id: 1,
                key: "fault_rate".to_string(),
                value: "0.1".to_string(),
            },
            Command::QueryFixes(None),
            Command::QueryFixes(Some(vec![1.5, 0.0, -2.0])),
            Command::EpisodesOpen,
            Command::Snapshot(PathBuf::from("/tmp/x.jsonl")),
            Command::Drain,
            Command::Metrics,
            Command::TenantCreate {
                name: "scout".to_string(),
                shared_pool: true,
            },
            Command::TenantCreate {
                name: "loner".to_string(),
                shared_pool: false,
            },
            Command::TenantDrop("scout".to_string()),
            Command::TenantList,
            Command::Scoped {
                tenant: "scout".to_string(),
                inner: Box::new(Command::QueryFixes(Some(vec![0.5, 2.0]))),
            },
            Command::Shutdown,
        ];
        for command in commands {
            let line = render_command(&command);
            assert_eq!(
                parse_command(&line),
                Ok(command.clone()),
                "round-trip failed for {line:?}"
            );
        }
    }

    #[test]
    fn reply_framing_round_trips() {
        let ok = reply_ok(&["a=1".to_string(), "b=2".to_string()]);
        assert_eq!(ok, "a=1\nb=2\nOK\n");
        assert!(is_ok_reply(&ok));
        let err = reply_err("bad\nthing");
        assert_eq!(err, "ERR bad thing\n");
        assert!(!is_ok_reply(&err));
        assert!(is_terminator("OK"));
        assert!(is_terminator("ERR nope"));
        assert!(!is_terminator("fix=reboot"));
    }
}
