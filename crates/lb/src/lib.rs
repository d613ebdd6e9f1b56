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
//! * [`server`] — a real TCP front end: an acceptor thread dispatches
//!   accepted connections to worker threads through the Hermes closed
//!   loop (shared WST, per-worker scheduling via the SDK, kernel-side
//!   bitmap dispatch), each worker running the Fig. 9 event-loop shape.
//! * [`relay`] — the backend data plane: the same front end, but instead
//!   of answering in-process each connection is admitted against a
//!   versioned [`hermes_backend::BackendPool`] snapshot, connected to a
//!   real backend (retrying the admitted candidate order on failure), and
//!   byte-relayed with half-close and backpressure handling. Its workers
//!   are epoll event loops, so it requires Linux.
//! * [`reactor`] — raw-syscall I/O event notification for the relay and
//!   the acceptor: an epoll set per worker (edge-triggered for relay
//!   legs, level-triggered for listeners), an eventfd waker for
//!   cross-thread hand-off, and splice(2) pipe plumbing for zero-copy
//!   byte moves. Non-Linux hosts get an API-compatible stub whose
//!   constructors report `Unsupported`.
//!
//! The substitution vs. production: the paper attaches dispatch at the
//! kernel's reuseport hook so the *kernel* places each SYN; a portable
//! std-only process cannot bind N reuseport sockets, so the acceptor
//! thread plays the kernel — it runs the same verified dispatch program
//! per connection and hands the socket to the chosen worker. Placement
//! decisions are byte-identical to the eBPF path.
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
