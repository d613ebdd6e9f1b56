//! The proxy core: parse → route → balance → forward → respond.
//!
//! Upstreams are pluggable ([`Upstream`]); within a pool the backend is
//! chosen round-robin with the §7 randomized-restart fix from
//! `hermes_backend`. Each worker thread owns its own `Proxy` clone
//! (workers share nothing but the WST), so `handle` needs `&mut self` and
//! no locks — the run-to-completion shape of the paper's workers.

use crate::http::{parse_request, HttpError, Request, RequestBuf, Response, StatusCode};
use crate::router::Router;
use bytes::Bytes;
use hermes_backend::{RestartPolicy, RoundRobin};
use std::collections::HashMap;
use std::sync::Arc;

/// A backend server: takes a request, produces a response.
pub trait Upstream: Send + Sync {
    /// Serve one request.
    fn handle(&self, req: &Request) -> Response;
}

/// A test/demo upstream echoing its name, the method, and the path.
pub struct EchoUpstream {
    name: String,
}

impl EchoUpstream {
    /// An upstream identifying itself as `name`.
    pub fn new(name: impl Into<String>) -> Self {
        Self { name: name.into() }
    }
}

impl Upstream for EchoUpstream {
    fn handle(&self, req: &Request) -> Response {
        Response::new(StatusCode::Ok)
            .header("x-upstream", self.name.clone())
            .body(format!("{} {} via {}", req.method, req.path(), self.name))
    }
}

/// One pool: servers plus the round-robin cursor.
struct Pool {
    servers: Vec<Arc<dyn Upstream>>,
    rr: RoundRobin,
}

/// The L7 proxy: router + pools. Cheap to clone per worker (upstreams are
/// shared via `Arc`, cursors are per-clone — exactly the per-worker
/// round-robin state of §7).
pub struct Proxy {
    router: Arc<Router>,
    pools: HashMap<String, Pool>,
}

impl Proxy {
    /// A proxy over a router with no pools yet.
    pub fn new(router: Router) -> Self {
        Self {
            router: Arc::new(router),
            pools: HashMap::new(),
        }
    }

    /// Register a pool of upstream servers.
    pub fn add_pool(&mut self, name: impl Into<String>, servers: Vec<Box<dyn Upstream>>) {
        assert!(!servers.is_empty(), "pool needs at least one server");
        let n = servers.len();
        self.pools.insert(
            name.into(),
            Pool {
                servers: servers.into_iter().map(Arc::from).collect(),
                rr: RoundRobin::new(n),
            },
        );
    }

    /// Clone for a worker, randomizing the round-robin start offsets (the
    /// §7 fix for synchronized restarts).
    pub fn for_worker(&self, worker: usize) -> Proxy {
        let mut pools = HashMap::new();
        for (name, pool) in &self.pools {
            let mut rr = RoundRobin::new(pool.servers.len());
            rr.update_list(
                worker,
                pool.servers.len(),
                RestartPolicy::Randomized {
                    seed: 0x48_45_52_4d,
                },
            );
            pools.insert(
                name.clone(),
                Pool {
                    servers: pool.servers.clone(),
                    rr,
                },
            );
        }
        Proxy {
            router: Arc::clone(&self.router),
            pools,
        }
    }

    /// Serve one already-parsed request.
    pub fn serve(&mut self, req: &Request) -> Response {
        let Some(pool_name) = self.router.route(req.host(), req.path()) else {
            return Response::new(StatusCode::NotFound).body("no route");
        };
        let Some(pool) = self.pools.get_mut(pool_name) else {
            // A rule names a pool that was never registered: upstream
            // misconfiguration, not client error.
            return Response::new(StatusCode::BadGateway).body("unknown pool");
        };
        let server = pool.rr.next_server();
        pool.servers[server].handle(req)
    }

    /// Drive the full byte-level exchange: feed `input` through the
    /// parser and return the wire bytes to write back. `None` means more
    /// input is needed (incomplete request).
    pub fn handle_bytes(&mut self, input: &mut RequestBuf) -> Option<Bytes> {
        match parse_request(input) {
            Ok(Some(req)) => Some(self.serve(&req).encode()),
            Ok(None) => None,
            Err(e) => {
                let status = match e {
                    HttpError::BodyTooLarge | HttpError::HeadTooLarge => StatusCode::BadRequest,
                    HttpError::Malformed | HttpError::Version => StatusCode::BadRequest,
                };
                Some(Response::new(status).body(e.to_string()).encode())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::Rule;

    fn proxy() -> Proxy {
        let mut router = Router::new();
        router.add_rule(Rule::new().path_prefix("/api").pool("api"));
        router.add_rule(Rule::new().pool("web"));
        router.add_rule(Rule::new().path_prefix("/ghost").pool("missing"));
        let mut p = Proxy::new(router);
        p.add_pool(
            "api",
            vec![
                Box::new(EchoUpstream::new("api-0")),
                Box::new(EchoUpstream::new("api-1")),
            ],
        );
        p.add_pool("web", vec![Box::new(EchoUpstream::new("web-0"))]);
        p
    }

    fn get(path: &str) -> Request {
        Request {
            method: "GET".into(),
            target: path.into(),
            headers: vec![],
            body: Bytes::new(),
        }
    }

    #[test]
    fn routes_and_balances() {
        let mut p = proxy();
        let a = p.serve(&get("/api/users"));
        let b = p.serve(&get("/api/users"));
        let (ua, ub) = (
            a.headers
                .iter()
                .find(|(n, _)| n == "x-upstream")
                .unwrap()
                .1
                .clone(),
            b.headers
                .iter()
                .find(|(n, _)| n == "x-upstream")
                .unwrap()
                .1
                .clone(),
        );
        assert_ne!(ua, ub, "round robin must alternate between api-0/api-1");
        assert_eq!(p.serve(&get("/other")).status, StatusCode::Ok);
    }

    #[test]
    fn unrouted_is_404_unregistered_pool_is_502() {
        let mut router = Router::new();
        router.add_rule(Rule::new().path_prefix("/ghost").pool("missing"));
        let mut p = Proxy::new(router);
        assert_eq!(p.serve(&get("/nowhere")).status, StatusCode::NotFound);
        assert_eq!(p.serve(&get("/ghost")).status, StatusCode::BadGateway);
    }

    #[test]
    fn byte_level_happy_path_and_errors() {
        let mut p = proxy();
        let mut b = RequestBuf::from(&b"GET /api/x HTTP/1.1\r\nHost: h\r\n\r\n"[..]);
        let out = p.handle_bytes(&mut b).expect("complete request");
        assert!(std::str::from_utf8(&out)
            .unwrap()
            .starts_with("HTTP/1.1 200"));

        let mut partial = RequestBuf::from(&b"GET /api"[..]);
        assert!(p.handle_bytes(&mut partial).is_none());

        let mut bad = RequestBuf::from(&b"NOT HTTP AT ALL\r\n\r\n"[..]);
        let out = p.handle_bytes(&mut bad).expect("error response");
        assert!(std::str::from_utf8(&out)
            .unwrap()
            .starts_with("HTTP/1.1 400"));
    }

    #[test]
    fn worker_clones_start_at_different_offsets() {
        let base = proxy();
        let starts: std::collections::HashSet<String> = (0..8)
            .map(|w| {
                let mut p = base.for_worker(w);
                p.serve(&get("/api/x"))
                    .headers
                    .iter()
                    .find(|(n, _)| n == "x-upstream")
                    .unwrap()
                    .1
                    .clone()
            })
            .collect();
        // With 2 servers and 8 workers both offsets must appear — the §7
        // fix in action (synchronized restarts would all start at api-0).
        assert_eq!(starts.len(), 2, "randomized offsets missing: {starts:?}");
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn empty_pool_rejected() {
        Proxy::new(Router::new()).add_pool("p", vec![]);
    }
}
