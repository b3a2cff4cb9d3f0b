//! Request types of the RUBiS-like auction service.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Nominal resource demand a single request places on each tier, in
//  milliseconds of service time at nominal capacity.
/// The simulator scales these by tier capacity and congestion.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TierDemand {
    /// Service demand at the web tier (ms).
    pub web_ms: f64,
    /// Service demand at the application (EJB) tier (ms).
    pub app_ms: f64,
    /// Service demand at the database tier (ms).
    pub db_ms: f64,
    /// Number of database rows touched (drives buffer/contention effects).
    pub db_rows: f64,
    /// Whether the request writes to the database.
    pub writes: bool,
}

/// The interaction types of the auction site.
///
/// The set mirrors the RUBiS servlet catalogue at the granularity that
/// matters for tier demands: read-only browsing interactions are cheap and
/// DB-read-heavy, bidding/selling interactions invoke more EJB logic and
/// write to the database.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum RequestKind {
    /// Home page.
    Home,
    /// Browse categories / regions.
    Browse,
    /// Search items by category or keyword.
    Search,
    /// View one item's details.
    ViewItem,
    /// View a user's profile and comments.
    ViewUser,
    /// Place a bid (write).
    Bid,
    /// Buy-it-now purchase (write).
    Buy,
    /// List a new item for sale (write).
    Sell,
    /// Register a new user (write).
    Register,
    /// Log in.
    Login,
    /// The "About Me" summary page (joins across many tables).
    AboutMe,
}

impl RequestKind {
    /// All request kinds.
    pub const ALL: [RequestKind; 11] = [
        RequestKind::Home,
        RequestKind::Browse,
        RequestKind::Search,
        RequestKind::ViewItem,
        RequestKind::ViewUser,
        RequestKind::Bid,
        RequestKind::Buy,
        RequestKind::Sell,
        RequestKind::Register,
        RequestKind::Login,
        RequestKind::AboutMe,
    ];

    /// Stable lowercase label.
    pub(crate) fn label(self) -> &'static str {
        match self {
            RequestKind::Home => "home",
            RequestKind::Browse => "browse",
            RequestKind::Search => "search",
            RequestKind::ViewItem => "view_item",
            RequestKind::ViewUser => "view_user",
            RequestKind::Bid => "bid",
            RequestKind::Buy => "buy",
            RequestKind::Sell => "sell",
            RequestKind::Register => "register",
            RequestKind::Login => "login",
            RequestKind::AboutMe => "about_me",
        }
    }

    /// Inverse of [`RequestKind::label`]: parses the stable lowercase label
    /// back to a kind (`None` for unknown labels).  The trace codec relies
    /// on `from_label(label(k)) == Some(k)` for every kind.
    pub(crate) fn from_label(label: &str) -> Option<RequestKind> {
        RequestKind::ALL
            .iter()
            .copied()
            .find(|k| k.label() == label)
    }

    /// Stable numeric code: the discriminant, which is the kind's index in
    /// [`RequestKind::ALL`] (the variants are declared in that order).
    #[inline]
    pub fn code(self) -> usize {
        self as usize
    }

    /// Whether the interaction writes to the database.
    pub fn is_write(self) -> bool {
        self.demand().writes
    }

    /// Nominal per-tier demand of one request of this kind.
    ///
    /// Values are loosely calibrated to the RUBiS bottleneck
    /// characterization literature: browsing interactions are dominated by
    /// database reads, bid/sell interactions exercise the EJB tier and write
    /// to the database, and `AboutMe` is the heavyweight multi-join page.
    pub fn demand(self) -> TierDemand {
        match self {
            RequestKind::Home => TierDemand {
                web_ms: 2.0,
                app_ms: 1.0,
                db_ms: 0.5,
                db_rows: 1.0,
                writes: false,
            },
            RequestKind::Browse => TierDemand {
                web_ms: 3.0,
                app_ms: 4.0,
                db_ms: 8.0,
                db_rows: 40.0,
                writes: false,
            },
            RequestKind::Search => TierDemand {
                web_ms: 3.0,
                app_ms: 5.0,
                db_ms: 12.0,
                db_rows: 80.0,
                writes: false,
            },
            RequestKind::ViewItem => TierDemand {
                web_ms: 2.0,
                app_ms: 3.0,
                db_ms: 6.0,
                db_rows: 15.0,
                writes: false,
            },
            RequestKind::ViewUser => TierDemand {
                web_ms: 2.0,
                app_ms: 3.0,
                db_ms: 7.0,
                db_rows: 20.0,
                writes: false,
            },
            RequestKind::Bid => TierDemand {
                web_ms: 3.0,
                app_ms: 8.0,
                db_ms: 10.0,
                db_rows: 12.0,
                writes: true,
            },
            RequestKind::Buy => TierDemand {
                web_ms: 3.0,
                app_ms: 7.0,
                db_ms: 9.0,
                db_rows: 10.0,
                writes: true,
            },
            RequestKind::Sell => TierDemand {
                web_ms: 4.0,
                app_ms: 9.0,
                db_ms: 11.0,
                db_rows: 8.0,
                writes: true,
            },
            RequestKind::Register => TierDemand {
                web_ms: 3.0,
                app_ms: 5.0,
                db_ms: 6.0,
                db_rows: 4.0,
                writes: true,
            },
            RequestKind::Login => TierDemand {
                web_ms: 2.0,
                app_ms: 3.0,
                db_ms: 3.0,
                db_rows: 2.0,
                writes: false,
            },
            RequestKind::AboutMe => TierDemand {
                web_ms: 4.0,
                app_ms: 10.0,
                db_ms: 20.0,
                db_rows: 150.0,
                writes: false,
            },
        }
    }
}

impl fmt::Display for RequestKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One request instance submitted to the service.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Request {
    /// Id within the trace that emitted it (a workload surge's extra
    /// copies repeat their template's).
    pub id: u64,
    /// Interaction type.
    pub kind: RequestKind,
    /// Tick at which the request arrived.
    pub arrival_tick: u64,
}

impl Request {
    /// Creates a request.
    pub fn new(id: u64, kind: RequestKind, arrival_tick: u64) -> Self {
        Request {
            id,
            kind,
            arrival_tick,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_and_codes_are_unique_and_stable() {
        let mut labels: Vec<&str> = RequestKind::ALL.iter().map(|k| k.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), RequestKind::ALL.len());
        for (i, k) in RequestKind::ALL.iter().enumerate() {
            assert_eq!(k.code(), i);
        }
    }

    #[test]
    fn labels_round_trip() {
        for kind in RequestKind::ALL {
            assert_eq!(RequestKind::from_label(kind.label()), Some(kind));
        }
        assert_eq!(RequestKind::from_label("checkout"), None);
    }

    #[test]
    fn write_interactions_are_marked() {
        assert!(RequestKind::Bid.is_write());
        assert!(RequestKind::Sell.is_write());
        assert!(!RequestKind::Browse.is_write());
        assert!(!RequestKind::AboutMe.is_write());
    }

    #[test]
    fn demands_are_positive_and_about_me_is_heaviest_on_db() {
        for kind in RequestKind::ALL {
            let d = kind.demand();
            assert!(d.web_ms > 0.0 && d.app_ms > 0.0 && d.db_ms > 0.0, "{kind}");
        }
        let about_me = RequestKind::AboutMe.demand().db_ms;
        for kind in RequestKind::ALL {
            assert!(about_me >= kind.demand().db_ms);
        }
    }

    #[test]
    fn request_construction_keeps_fields() {
        let r = Request::new(7, RequestKind::Bid, 42);
        assert_eq!(r.id, 7);
        assert_eq!(r.kind, RequestKind::Bid);
        assert_eq!(r.arrival_tick, 42);
    }
}
