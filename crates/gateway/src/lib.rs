//! # selfheal-gateway
//!
//! The HTTP/JSON serving layer over [`selfheal_daemon`]: the daemon's
//! Unix-socket line protocol, re-exposed to the network with
//! authentication, tenant scoping, and a streaming metrics feed —
//! std-only, like everything else in this reproduction.
//!
//! * [`http`] — a hand-rolled HTTP/1.1 subset: bounded request parsing,
//!   keep-alive, fixed-length JSON responses, chunked streams.
//! * [`auth`] — static bearer tokens from a TOML-ish file, each bound to
//!   one tenant (or `*`) and a scope rank (`read` < `operate` < `admin`),
//!   compared in constant time.
//! * [`router`] — the route table.  Every route lowers onto a daemon
//!   [`Command`](selfheal_daemon::Command) via
//!   [`render_command`](selfheal_daemon::render_command), so the HTTP
//!   surface and the line protocol can never drift apart: there is only
//!   one command vocabulary, and the router is a *translation*, not a
//!   second implementation.
//! * [`server`] — the `Gateway`: accept loop, per-connection threads,
//!   route-then-auth request handling, audit lines for mutating requests,
//!   and the chunked `GET /v1/tenants/<t>/metrics/stream` endpoint that
//!   polls `@<tenant> METRICS` and forwards each tenant-tagged
//!   `FleetHealth` JSON line (see `selfheal_telemetry::health`).
//! * [`client`] — the matching minimal client (`selfheal-http` binary),
//!   so smoke scripts need no curl.
//!
//! The gateway is I/O glue, not simulation: it holds no fleet state and
//! performs no learning, so (like the daemon loop) its wall-clock timing
//! is not part of the determinism surface the `selfheal-lint` rules guard.
//!
//! ## Example
//!
//! ```no_run
//! use selfheal_gateway::auth::{AuthConfig, Scope, Token};
//! use selfheal_gateway::server::{Gateway, GatewayOptions};
//!
//! let auth = AuthConfig::new(vec![Token::new("ops", "swordfish", "*", Scope::Admin)]);
//! let gateway = Gateway::launch(GatewayOptions::new(
//!     "127.0.0.1:0",
//!     "/tmp/selfheal.sock",
//!     auth,
//! ))
//! .unwrap();
//! println!("serving on http://{}", gateway.addr());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod auth;
pub mod client;
pub mod http;
pub mod router;
pub mod server;
