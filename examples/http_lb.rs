//! A complete L7 load balancer serving real HTTP over TCP, with Hermes
//! steering the kernel's choice among the workers' listening sockets: the
//! paper's system in miniature, end to end.
//!
//! Run with: `cargo run --release --example http_lb`
//! (then try: `curl http://127.0.0.1:<port>/api/users`)

use hermes::lb::prelude::*;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::time::Duration;

fn main() {
    // Tenant policy: /api goes to a two-server pool, /static to a CDN-ish
    // pool, admin.example.com to its own backend, everything else 404s.
    let mut router = Router::new();
    router.add_rule(Rule::new().path_prefix("/api").pool("api"));
    router.add_rule(Rule::new().path_prefix("/static").pool("cdn"));
    router.add_rule(Rule::new().host("admin.example.com").pool("admin"));
    let mut proxy = Proxy::new(router);
    proxy.add_pool(
        "api",
        vec![
            Box::new(EchoUpstream::new("api-backend-0")),
            Box::new(EchoUpstream::new("api-backend-1")),
        ],
    );
    proxy.add_pool("cdn", vec![Box::new(EchoUpstream::new("cdn-0"))]);
    proxy.add_pool("admin", vec![Box::new(EchoUpstream::new("admin-0"))]);

    let workers = 4;
    let lb = TcpLb::start("127.0.0.1:0", workers, proxy).expect("bind");
    let addr = lb.local_addr();
    println!("L7 LB listening on {addr} with {workers} Hermes-dispatched workers");
    // `ebpf`: Algorithm 2 runs at the listeners' reuseport hook. `hash-only
    // (..)`: the kernel refused bpf(2) and places by its own hash.
    println!("kernel dispatch: {}\n", lb.dispatch());
    std::thread::sleep(Duration::from_millis(20));

    // Drive some client traffic at it.
    let get = |path: &str, host: &str| {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        write!(s, "GET {path} HTTP/1.1\r\nHost: {host}\r\n\r\n").unwrap();
        s.shutdown(std::net::Shutdown::Write).unwrap();
        let mut out = String::new();
        let _ = s.read_to_string(&mut out);
        out.lines().next().unwrap_or("").to_string() + " | " + out.lines().last().unwrap_or("")
    };
    println!("GET /api/users        -> {}", get("/api/users", "x"));
    println!("GET /api/users        -> {}", get("/api/users", "x"));
    println!("GET /static/app.css   -> {}", get("/static/app.css", "x"));
    println!("GET / (admin host)    -> {}", get("/", "admin.example.com"));
    println!("GET /nope             -> {}", get("/nope", "x"));

    // A burst of concurrent clients to show worker spreading.
    let clients: Vec<_> = (0..40)
        .map(|i| {
            std::thread::spawn(move || {
                let mut s = TcpStream::connect(addr).unwrap();
                write!(s, "GET /api/{i} HTTP/1.1\r\n\r\n").unwrap();
                s.shutdown(std::net::Shutdown::Write).unwrap();
                let mut out = Vec::new();
                let _ = s.read_to_end(&mut out);
            })
        })
        .collect();
    for c in clients {
        c.join().unwrap();
    }
    let stats = std::sync::Arc::clone(lb.stats());
    lb.shutdown();
    let accepted: Vec<u64> = stats
        .accepted
        .iter()
        .map(|a| a.load(Ordering::Relaxed))
        .collect();
    println!(
        "\nserved {} requests; connections per worker: {accepted:?}",
        stats.requests.load(Ordering::Relaxed)
    );
    println!(
        "dispatch: {} directed via the bitmap, {} reuseport fallback",
        stats.directed.load(Ordering::Relaxed),
        stats.fallback.load(Ordering::Relaxed)
    );
}
