//! # hermes-lb
//!
//! A minimal but real multi-tenant L7 reverse proxy assembled from the
//! Hermes pieces — the kind of application the paper's LBs are (§2.1:
//! "parsing HTTP packets and routing requests based on user policies").
//!
//! * [`http`] — an incremental HTTP/1.1 request parser and response
//!   encoder over [`bytes`] buffers (request line, headers,
//!   `Content-Length` bodies).
//! * [`router`] — per-tenant forwarding rules (host + path-prefix →
//!   backend pool), longest-prefix-wins; the Fig. A5 "forwarding rules
//!   per port" made concrete.
//! * [`proxy`] — parse → route → pick a backend (round-robin with the §7
//!   randomized-restart fix) → forward → respond, with 400/404/502
//!   handling.
//! * [`server`] — a real TCP front end: every worker owns a listener of
//!   one `SO_REUSEPORT` group, the kernel places each connection on one of
//!   them by running the dispatch program at the group's reuseport hook,
//!   and the workers close the Hermes loop (shared WST, per-worker
//!   scheduling via the SDK, the bitmap stored into the program's mmap'd
//!   map), each running the Fig. 9 event-loop shape.
//! * [`relay`] — the backend data plane: the same front end, but instead
//!   of answering in-process each connection is admitted against a
//!   versioned [`hermes_backend::BackendPool`] snapshot, connected to a
//!   real backend (retrying the admitted candidate order on failure), and
//!   byte-relayed with half-close and backpressure handling. Its workers
//!   are epoll event loops.
//! * [`reactor`] — raw-syscall I/O event notification: an epoll set per
//!   worker (edge-triggered for relay legs, level-triggered for its
//!   listener), the `SO_REUSEPORT` listener itself, an eventfd waker for
//!   shutdown, and splice(2) pipe plumbing for zero-copy byte moves.
//!   Non-Linux hosts get an API-compatible stub whose constructors report
//!   `Unsupported`.
//!
//! Both load balancers need Linux. Steering needs `bpf(2)` (`CAP_BPF` and
//! `CAP_NET_ADMIN`, or root): without it nothing is attached, the kernel's
//! reuseport hash places every connection, and [`server::Dispatch`] says
//! so.
//!
//! ```no_run
//! use hermes_lb::prelude::*;
//!
//! let mut router = Router::new();
//! router.add_rule(Rule::new().path_prefix("/api").pool("api-pool"));
//! router.add_rule(Rule::new().pool("static-pool"));
//! let mut proxy = Proxy::new(router);
//! proxy.add_pool("api-pool", vec![Box::new(EchoUpstream::new("api"))]);
//! proxy.add_pool("static-pool", vec![Box::new(EchoUpstream::new("static"))]);
//! let server = TcpLb::start("127.0.0.1:0", 4, proxy).unwrap();
//! println!("serving on {}", server.local_addr());
//! server.shutdown();
//! ```

pub mod http;
pub mod proxy;
pub mod reactor;
pub mod relay;
pub mod router;
pub mod server;

/// Convenient single import for examples.
pub mod prelude {
    pub use crate::http::{Request, Response, StatusCode};
    pub use crate::proxy::{EchoUpstream, Proxy, Upstream};
    pub use crate::relay::{RelayLb, RelayStats};
    pub use crate::router::{Router, Rule};
    pub use crate::server::TcpLb;
}
