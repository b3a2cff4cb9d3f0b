//! Static bearer-token authentication and tenant-scoped authorization.
//!
//! Tokens live in a TOML-ish config file the operator writes by hand —
//! an array of `[[token]]` tables with exactly four quoted-string keys:
//!
//! ```toml
//! # Operators hold admin over every tenant; dashboards get read-only.
//! [[token]]
//! name = "ops"
//! secret = "swordfish"
//! tenant = "*"
//! scope = "admin"
//!
//! [[token]]
//! name = "scout-dashboard"
//! secret = "hunter2"
//! tenant = "scout"
//! scope = "read"
//! ```
//!
//! Only this subset of TOML is parsed (quoted strings, comments, blank
//! lines); anything else is a load-time error, so a typo fails fast
//! instead of silently dropping a token.  Secrets are compared in
//! constant time, and authorization is two independent checks: the
//! token's tenant binding (`*` = every tenant, and only `*`-bound tokens
//! may touch daemon-wide routes) and its [`Scope`] rank.

use std::fmt;
use std::fs;
use std::path::Path;

/// What a token is allowed to do, ranked: `Read < Operate < Admin`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Scope {
    /// Inspection only: status, replicas, fixes, episodes, metrics.
    Read,
    /// Fleet operations: add/remove/reconfigure replicas, drain, snapshot.
    Operate,
    /// Daemon administration: tenant create/drop, shutdown.
    Admin,
}

impl Scope {
    /// Stable lower-case label.
    pub(crate) fn label(&self) -> &'static str {
        match self {
            Scope::Read => "read",
            Scope::Operate => "operate",
            Scope::Admin => "admin",
        }
    }

    /// Parses a scope word from the token config.
    pub(crate) fn parse(text: &str) -> Result<Scope, String> {
        match text {
            "read" => Ok(Scope::Read),
            "operate" => Ok(Scope::Operate),
            "admin" => Ok(Scope::Admin),
            other => Err(format!(
                "unknown scope {other:?} (try read, operate, admin)"
            )),
        }
    }

    /// Whether a token holding `self` may perform an action requiring
    /// `required`.
    pub(crate) fn allows(self, required: Scope) -> bool {
        self >= required
    }
}

/// One configured bearer token.
#[derive(Debug, Clone)]
pub struct Token {
    /// The token's name — what audit log lines identify requests by (the
    /// secret itself never appears in logs or errors).
    pub name: String,
    /// The bearer secret presented in `Authorization: Bearer <secret>`.
    secret: String,
    /// The tenant this token is bound to, or `*` for every tenant.
    pub tenant: String,
    /// The token's scope rank.
    pub scope: Scope,
}

impl Token {
    /// Builds a token directly (tests and embedders; files go through
    /// `AuthConfig::parse`).
    pub fn new(name: &str, secret: &str, tenant: &str, scope: Scope) -> Token {
        Token {
            name: name.to_string(),
            secret: secret.to_string(),
            tenant: tenant.to_string(),
            scope,
        }
    }

    /// Whether this token is bound to every tenant.
    pub(crate) fn is_wildcard(&self) -> bool {
        self.tenant == "*"
    }
}

/// Why a request was denied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuthError {
    /// No credentials, or credentials that match no token (HTTP 401).
    Unauthorized(String),
    /// A valid token without the required tenant binding or scope
    /// (HTTP 403).
    Forbidden(String),
}

impl AuthError {
    /// The HTTP status this denial maps to.
    pub(crate) fn status(&self) -> u16 {
        match self {
            AuthError::Unauthorized(_) => 401,
            AuthError::Forbidden(_) => 403,
        }
    }

    /// The human-readable cause.
    pub(crate) fn message(&self) -> &str {
        match self {
            AuthError::Unauthorized(message) | AuthError::Forbidden(message) => message,
        }
    }
}

impl fmt::Display for AuthError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.status(), self.message())
    }
}

/// The gateway's token set.
#[derive(Debug, Clone, Default)]
pub struct AuthConfig {
    tokens: Vec<Token>,
}

impl AuthConfig {
    /// A config holding these tokens.
    pub fn new(tokens: Vec<Token>) -> AuthConfig {
        AuthConfig { tokens }
    }

    /// Whether no tokens are configured (every request will be denied).
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }

    /// Loads and parses a token file.
    pub fn load(path: &Path) -> Result<AuthConfig, String> {
        let text = fs::read_to_string(path)
            .map_err(|err| format!("cannot read token file {path:?}: {err}"))?;
        AuthConfig::parse(&text)
    }

    /// Parses the TOML subset described in the [module docs](self).
    pub(crate) fn parse(text: &str) -> Result<AuthConfig, String> {
        let mut tokens: Vec<Token> = Vec::new();
        let mut current: Option<PartialToken> = None;
        for (index, raw) in text.lines().enumerate() {
            let line = raw.trim();
            let describe = |message: String| format!("token file line {}: {message}", index + 1);
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if line == "[[token]]" {
                if let Some(partial) = current.take() {
                    tokens.push(partial.finish().map_err(describe)?);
                }
                current = Some(PartialToken::default());
                continue;
            }
            let partial = current
                .as_mut()
                .ok_or_else(|| describe("keys must follow a [[token]] header".to_string()))?;
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| describe(format!("expected key = \"value\", got {line:?}")))?;
            let value = parse_quoted(value.trim()).map_err(&describe)?;
            partial.set(key.trim(), value).map_err(describe)?;
        }
        if let Some(partial) = current.take() {
            tokens.push(
                partial
                    .finish()
                    .map_err(|message| format!("token file: {message}"))?,
            );
        }
        for (i, token) in tokens.iter().enumerate() {
            if tokens[..i].iter().any(|other| other.name == token.name) {
                return Err(format!("duplicate token name {:?}", token.name));
            }
        }
        Ok(AuthConfig { tokens })
    }

    /// Resolves a presented bearer secret to its token.  Every configured
    /// secret is compared (in constant time per comparison) so the number
    /// of comparisons does not depend on which token matched.
    pub(crate) fn authenticate(&self, bearer: Option<&str>) -> Result<&Token, AuthError> {
        let bearer = bearer.ok_or_else(|| {
            AuthError::Unauthorized("missing Authorization: Bearer header".to_string())
        })?;
        let mut matched: Option<&Token> = None;
        for token in &self.tokens {
            if constant_time_eq(token.secret.as_bytes(), bearer.as_bytes()) {
                matched = matched.or(Some(token));
            }
        }
        matched.ok_or_else(|| AuthError::Unauthorized("unknown bearer token".to_string()))
    }

    /// Full check for one request: authenticate the bearer, then authorize
    /// it against the route's tenant (`None` = daemon-wide) and scope.
    pub fn authorize(
        &self,
        bearer: Option<&str>,
        tenant: Option<&str>,
        required: Scope,
    ) -> Result<&Token, AuthError> {
        let token = self.authenticate(bearer)?;
        match tenant {
            None if !token.is_wildcard() => {
                return Err(AuthError::Forbidden(format!(
                    "token {:?} is bound to tenant {:?}; daemon-wide routes need a *-bound token",
                    token.name, token.tenant
                )));
            }
            Some(tenant) if !token.is_wildcard() && token.tenant != tenant => {
                return Err(AuthError::Forbidden(format!(
                    "token {:?} is bound to tenant {:?}, not {tenant:?}",
                    token.name, token.tenant
                )));
            }
            _ => {}
        }
        if !token.scope.allows(required) {
            return Err(AuthError::Forbidden(format!(
                "token {:?} has scope {}, this route needs {}",
                token.name,
                token.scope.label(),
                required.label()
            )));
        }
        Ok(token)
    }
}

#[derive(Default)]
struct PartialToken {
    name: Option<String>,
    secret: Option<String>,
    tenant: Option<String>,
    scope: Option<Scope>,
}

impl PartialToken {
    fn set(&mut self, key: &str, value: String) -> Result<(), String> {
        let slot = match key {
            "name" => &mut self.name,
            "secret" => &mut self.secret,
            "tenant" => &mut self.tenant,
            "scope" => {
                if self.scope.is_some() {
                    return Err("duplicate key scope".to_string());
                }
                self.scope = Some(Scope::parse(&value)?);
                return Ok(());
            }
            other => return Err(format!("unknown key {other:?}")),
        };
        if slot.is_some() {
            return Err(format!("duplicate key {key:?}"));
        }
        *slot = Some(value);
        Ok(())
    }

    fn finish(self) -> Result<Token, String> {
        match (self.name, self.secret, self.tenant, self.scope) {
            (Some(name), Some(secret), Some(tenant), Some(scope)) => {
                if secret.is_empty() {
                    return Err(format!("token {name:?} has an empty secret"));
                }
                Ok(Token {
                    name,
                    secret,
                    tenant,
                    scope,
                })
            }
            _ => Err("a [[token]] needs name, secret, tenant, and scope".to_string()),
        }
    }
}

fn parse_quoted(text: &str) -> Result<String, String> {
    let inner = text
        .strip_prefix('"')
        .and_then(|rest| rest.strip_suffix('"'))
        .ok_or_else(|| format!("expected a quoted string, got {text:?}"))?;
    if inner.contains('"') || inner.contains('\\') {
        return Err(format!("escapes are not supported in {text:?}"));
    }
    Ok(inner.to_string())
}

/// Compares two byte strings without an early exit: the loop always runs
/// over the longer input, so timing reveals (at most) the configured
/// secret's length class, never a matching prefix.
pub(crate) fn constant_time_eq(a: &[u8], b: &[u8]) -> bool {
    let mut diff = a.len() ^ b.len();
    for i in 0..a.len().max(b.len()) {
        let x = a.get(i).copied().unwrap_or(0);
        let y = b.get(i).copied().unwrap_or(0);
        diff |= usize::from(x ^ y);
    }
    diff == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    impl AuthConfig {
        /// Number of configured tokens.
        pub(crate) fn len(&self) -> usize {
            self.tokens.len()
        }
    }

    const FILE: &str = r#"
# operator token
[[token]]
name = "ops"
secret = "swordfish"
tenant = "*"
scope = "admin"

[[token]]
name = "scout-ro"
secret = "hunter2"
tenant = "scout"
scope = "read"
"#;

    #[test]
    fn parses_the_token_file_subset() {
        let config = AuthConfig::parse(FILE).unwrap();
        assert_eq!(config.len(), 2);
        let ops = config.authenticate(Some("swordfish")).unwrap();
        assert_eq!((ops.name.as_str(), ops.scope), ("ops", Scope::Admin));
        assert!(ops.is_wildcard());
    }

    #[test]
    fn rejects_malformed_token_files() {
        assert!(
            AuthConfig::parse("name = \"x\"").is_err(),
            "key before table"
        );
        assert!(
            AuthConfig::parse("[[token]]\nname = \"x\"").is_err(),
            "incomplete"
        );
        assert!(AuthConfig::parse("[[token]]\nname = unquoted").is_err());
        assert!(AuthConfig::parse(
            "[[token]]\nname=\"a\"\nsecret=\"s\"\ntenant=\"*\"\nscope=\"root\""
        )
        .is_err());
        let dup = format!(
            "{FILE}\n[[token]]\nname = \"ops\"\nsecret = \"x\"\ntenant = \"*\"\nscope = \"read\""
        );
        assert!(AuthConfig::parse(&dup).is_err(), "duplicate name");
    }

    #[test]
    fn authentication_distinguishes_missing_from_wrong() {
        let config = AuthConfig::parse(FILE).unwrap();
        assert_eq!(config.authenticate(None).unwrap_err().status(), 401);
        assert_eq!(
            config.authenticate(Some("sword")).unwrap_err().status(),
            401
        );
    }

    #[test]
    fn authorization_checks_tenant_binding_then_scope() {
        let config = AuthConfig::parse(FILE).unwrap();
        // Wildcard admin reaches everything.
        assert!(config
            .authorize(Some("swordfish"), None, Scope::Admin)
            .is_ok());
        assert!(config
            .authorize(Some("swordfish"), Some("victim"), Scope::Operate)
            .is_ok());
        // Tenant-bound read token: own tenant + read only.
        assert!(config
            .authorize(Some("hunter2"), Some("scout"), Scope::Read)
            .is_ok());
        let wrong_tenant = config
            .authorize(Some("hunter2"), Some("victim"), Scope::Read)
            .unwrap_err();
        assert_eq!(wrong_tenant.status(), 403);
        let wrong_scope = config
            .authorize(Some("hunter2"), Some("scout"), Scope::Operate)
            .unwrap_err();
        assert_eq!(wrong_scope.status(), 403);
        let global = config
            .authorize(Some("hunter2"), None, Scope::Read)
            .unwrap_err();
        assert_eq!(global.status(), 403);
    }

    #[test]
    fn scope_ranks_and_constant_time_eq_behave() {
        assert!(Scope::Admin.allows(Scope::Read));
        assert!(Scope::Operate.allows(Scope::Operate));
        assert!(!Scope::Read.allows(Scope::Operate));
        assert!(constant_time_eq(b"secret", b"secret"));
        assert!(!constant_time_eq(b"secret", b"secreT"));
        assert!(!constant_time_eq(b"secret", b"secret2"));
        assert!(!constant_time_eq(b"", b"x"));
        assert!(constant_time_eq(b"", b""));
    }
}
