//! Cross-crate end-to-end: the hermes-lb application serving real TCP
//! traffic whose shape comes from the workload generators — the full
//! stack from paper model to bytes on a socket.

use hermes::lb::prelude::*;
use hermes::lb::server::Dispatch;
use hermes::workload::distr::Zipf;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

fn build_proxy(pools: usize, servers_per_pool: usize) -> Proxy {
    let mut router = Router::new();
    for p in 0..pools {
        router.add_rule(
            Rule::new()
                .path_prefix(format!("/t{p}"))
                .pool(format!("pool{p}")),
        );
    }
    let mut proxy = Proxy::new(router);
    for p in 0..pools {
        let servers: Vec<Box<dyn Upstream>> = (0..servers_per_pool)
            .map(|s| Box::new(EchoUpstream::new(format!("p{p}-s{s}"))) as Box<dyn Upstream>)
            .collect();
        proxy.add_pool(format!("pool{p}"), servers);
    }
    proxy
}

fn get(addr: std::net::SocketAddr, path: &str) -> String {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
    write!(s, "GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
    s.shutdown(std::net::Shutdown::Write).unwrap();
    let mut out = String::new();
    let _ = s.read_to_string(&mut out);
    out
}

#[test]
fn zipf_skewed_tenants_over_real_tcp() {
    // Tenants drawn Zipf-skewed (the paper's §7 traffic reality), each
    // hitting its own routing rule; every request must land on the right
    // pool and the workers must share the accepts.
    let pools = 6;
    let lb = TcpLb::start("127.0.0.1:0", 4, build_proxy(pools, 2)).expect("bind");
    let addr = lb.local_addr();
    // The first bitmap: the word is non-empty once a worker's scheduler has
    // stored (the kernel's hash alone has nothing to wait for).
    if let Dispatch::Ebpf(kernel) = lb.dispatch() {
        let deadline = Instant::now() + Duration::from_secs(2);
        loop {
            let word = kernel.bitmap(0);
            if !word.is_empty() {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "the program reads {word} after 2 s"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    let zipf = Zipf::new(pools, 1.0);
    let mut rng = hermes::workload::rng(404);
    let mut per_tenant = vec![0u32; pools];
    for _ in 0..60 {
        let t = zipf.sample_index(&mut rng);
        per_tenant[t] += 1;
        let resp = get(addr, &format!("/t{t}/resource"));
        assert!(resp.starts_with("HTTP/1.1 200 OK"), "{resp}");
        assert!(
            resp.contains(&format!("via p{t}-s")),
            "tenant {t} routed to wrong pool: {resp}"
        );
    }
    assert!(per_tenant[0] > per_tenant[pools - 1], "zipf skew sanity");

    let stats = std::sync::Arc::clone(lb.stats());
    lb.shutdown();
    let accepted: Vec<u64> = stats
        .accepted
        .iter()
        .map(|a| a.load(Ordering::Relaxed))
        .collect();
    assert_eq!(accepted.iter().sum::<u64>(), 60);
    assert_eq!(stats.requests.load(Ordering::Relaxed), 60);
    assert!(
        *accepted.iter().max().unwrap() < 45,
        "one worker dominated: {accepted:?}"
    );
}

#[test]
fn keep_alive_survives_routing_misses() {
    // The §7-style client: one connection, several requests, some of
    // which 404 — the connection must stay usable (only protocol errors
    // close it).
    let lb = TcpLb::start("127.0.0.1:0", 2, build_proxy(2, 1)).expect("bind");
    let mut s = TcpStream::connect(lb.local_addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
    write!(
        s,
        "GET /t0/a HTTP/1.1\r\n\r\nGET /nope HTTP/1.1\r\n\r\nGET /t1/b HTTP/1.1\r\n\r\n"
    )
    .unwrap();
    s.shutdown(std::net::Shutdown::Write).unwrap();
    let mut out = String::new();
    let _ = s.read_to_string(&mut out);
    assert_eq!(out.matches("HTTP/1.1 200 OK").count(), 2, "{out}");
    assert_eq!(out.matches("HTTP/1.1 404").count(), 1, "{out}");
    assert!(
        out.contains("via p1-s0"),
        "request after 404 must be served: {out}"
    );
    lb.shutdown();
}
