//! Per-tenant forwarding rules: host + path-prefix → backend pool.
//!
//! §2.1: the LB "parses HTTP packets and routes requests based on
//! user policies"; Fig. A5 shows tenants carrying anywhere from one to
//! thousands of such rules. Matching semantics: a rule matches when its
//! host constraint (exact, or `*.suffix` wildcard, or absent) and its
//! path prefix both match; among matches the most specific wins (longest
//! path prefix, host-constrained over host-less).

/// One forwarding rule.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Rule {
    host: Option<String>,
    path_prefix: String,
    pool: String,
}

impl Rule {
    /// A rule matching everything, routing to an (unset) pool — configure
    /// with the builder methods.
    pub fn new() -> Self {
        Self {
            host: None,
            path_prefix: "/".into(),
            pool: String::new(),
        }
    }

    /// Constrain to a host: exact (`example.com`) or wildcard
    /// (`*.example.com`, matching any single-or-deeper subdomain).
    pub fn host(mut self, host: impl Into<String>) -> Self {
        self.host = Some(host.into().to_ascii_lowercase());
        self
    }

    /// Constrain to a path prefix (must start with `/`).
    pub fn path_prefix(mut self, prefix: impl Into<String>) -> Self {
        let p = prefix.into();
        assert!(p.starts_with('/'), "path prefix must start with '/'");
        self.path_prefix = p;
        self
    }

    /// Route matches to this pool.
    pub fn pool(mut self, pool: impl Into<String>) -> Self {
        self.pool = pool.into();
        self
    }

    fn matches(&self, host: Option<&str>, path: &str) -> bool {
        if !path.starts_with(&self.path_prefix) {
            return false;
        }
        match &self.host {
            None => true,
            Some(pattern) => {
                let Some(host) = host else { return false };
                let host = host.to_ascii_lowercase();
                if let Some(suffix) = pattern.strip_prefix("*.") {
                    host.len() > suffix.len()
                        && host.ends_with(suffix)
                        && host.as_bytes()[host.len() - suffix.len() - 1] == b'.'
                } else {
                    host == *pattern
                }
            }
        }
    }

    /// Specificity for tie-breaking: longer prefixes beat shorter; a host
    /// constraint beats none; exact host beats wildcard.
    fn specificity(&self) -> (usize, u8) {
        let host_rank = match &self.host {
            Some(h) if !h.starts_with("*.") => 2,
            Some(_) => 1,
            None => 0,
        };
        (self.path_prefix.len(), host_rank)
    }
}

impl Default for Rule {
    fn default() -> Self {
        Self::new()
    }
}

/// An ordered rule set with most-specific-wins matching.
#[derive(Clone, Debug, Default)]
pub struct Router {
    rules: Vec<Rule>,
}

impl Router {
    /// Empty router (everything 404s).
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a rule.
    ///
    /// # Panics
    /// Panics when the rule has no pool — a silent blackhole rule is a
    /// configuration bug.
    pub fn add_rule(&mut self, rule: Rule) {
        assert!(!rule.pool.is_empty(), "rule must name a pool");
        self.rules.push(rule);
        // Keep most-specific-first so lookup is first-match.
        self.rules
            .sort_by_key(|r| std::cmp::Reverse(r.specificity()));
    }

    /// Route a request by host/path; `None` ⇒ 404.
    pub fn route(&self, host: Option<&str>, path: &str) -> Option<&str> {
        self.rules
            .iter()
            .find(|r| r.matches(host, path))
            .map(|r| r.pool.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn router() -> Router {
        let mut r = Router::new();
        r.add_rule(Rule::new().path_prefix("/api/v2").pool("api-v2"));
        r.add_rule(Rule::new().path_prefix("/api").pool("api"));
        r.add_rule(Rule::new().host("admin.example.com").pool("admin"));
        r.add_rule(
            Rule::new()
                .host("*.example.com")
                .path_prefix("/img")
                .pool("cdn"),
        );
        r.add_rule(Rule::new().pool("default"));
        r
    }

    #[test]
    fn longest_prefix_wins() {
        let r = router();
        assert_eq!(r.route(None, "/api/v2/users"), Some("api-v2"));
        assert_eq!(r.route(None, "/api/other"), Some("api"));
        assert_eq!(r.route(None, "/"), Some("default"));
    }

    #[test]
    fn host_rules() {
        let r = router();
        assert_eq!(r.route(Some("admin.example.com"), "/"), Some("admin"));
        assert_eq!(r.route(Some("ADMIN.EXAMPLE.COM"), "/"), Some("admin"));
        assert_eq!(r.route(Some("a.example.com"), "/img/x.png"), Some("cdn"));
        // Wildcard requires a real subdomain.
        assert_eq!(r.route(Some("example.com"), "/img/x.png"), Some("default"));
        // Host rules never match hostless requests.
        assert_eq!(r.route(None, "/img/x.png"), Some("default"));
    }

    #[test]
    fn specificity_prefers_exact_host_over_wildcard() {
        let mut r = Router::new();
        r.add_rule(Rule::new().host("*.ex.com").pool("wild"));
        r.add_rule(Rule::new().host("a.ex.com").pool("exact"));
        assert_eq!(r.route(Some("a.ex.com"), "/"), Some("exact"));
        assert_eq!(r.route(Some("b.ex.com"), "/"), Some("wild"));
    }

    #[test]
    fn empty_router_routes_nothing() {
        assert_eq!(Router::new().route(Some("x"), "/"), None);
    }

    #[test]
    #[should_panic(expected = "must name a pool")]
    fn rejects_poolless_rule() {
        Router::new().add_rule(Rule::new());
    }

    #[test]
    #[should_panic(expected = "start with '/'")]
    fn rejects_relative_prefix() {
        let _ = Rule::new().path_prefix("api");
    }

    #[test]
    fn fig_a5_scale_many_rules_still_route() {
        // A configuration-heavy tenant (the Fig. A5 tail): thousands of
        // rules still resolve correctly and deterministically.
        let mut r = Router::new();
        for i in 0..2_000 {
            r.add_rule(
                Rule::new()
                    .path_prefix(format!("/svc{i}"))
                    .pool(format!("p{i}")),
            );
        }
        for i in 0..2_000 {
            assert_eq!(
                r.route(None, &format!("/svc{i}/x")),
                Some(&*format!("p{i}"))
            );
        }
        assert_eq!(r.route(None, "/unknown"), None);
    }
}
