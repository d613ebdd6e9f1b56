//! A multi-tenant L7 LB day-in-the-life: Zipf-skewed tenants with mixed
//! profiles (cheap HTTP, SSL-heavy, WebSocket-ish long-lived) on one
//! simulated 8-worker device, compared across the three dispatch modes the
//! paper measures: epoll exclusive, reuseport and Hermes.
//!
//! Run with: `cargo run --release --example multi_tenant_lb`

use hermes::prelude::*;
use hermes::workload::arrival::ArrivalProcess;
use hermes::workload::distr::{Constant, Exp, LogNormal};
use std::sync::Arc;

fn tenants() -> TenantSet {
    let cheap = TenantProfile {
        name: "static-site".into(),
        service_ns: Arc::new(Exp::with_mean(120_000.0)),
        size_bytes: Arc::new(Exp::with_mean(500.0)),
        requests_per_conn: Arc::new(Constant(1.0)),
        think_time_ns: Arc::new(Constant(0.0)),
        events_per_request: 2,
        linger_ns: None,
    };
    let ssl_heavy = TenantProfile {
        name: "ssl-api".into(),
        service_ns: Arc::new(LogNormal::from_p50_p99(3_000_000.0, 90_000_000.0)),
        size_bytes: Arc::new(Exp::with_mean(2_000.0)),
        requests_per_conn: Arc::new(Constant(2.0)),
        think_time_ns: Arc::new(Exp::with_mean(20_000_000.0)),
        events_per_request: 2,
        linger_ns: Some(500_000_000),
    };
    let websocket = TenantProfile {
        name: "chat".into(),
        service_ns: Arc::new(Exp::with_mean(40_000.0)),
        size_bytes: Arc::new(Exp::with_mean(300.0)),
        requests_per_conn: Arc::new(Constant(120.0)),
        think_time_ns: Arc::new(Exp::with_mean(60_000_000.0)),
        events_per_request: 1,
        linger_ns: Some(2_000_000_000),
    };
    TenantSet::new(vec![cheap, ssl_heavy, websocket], 1.0, 8_000)
}

fn main() {
    let workers = 8;
    let mut rng = hermes::workload::rng(2024);
    let wl = tenants().workload(
        "multi-tenant",
        &ArrivalProcess::Poisson {
            rate_per_sec: 1_500.0,
        },
        8_000_000_000,
        &mut rng,
    );
    println!(
        "workload: {} connections, {} requests, offered load {:.2} cores\n",
        wl.connection_count(),
        wl.request_count(),
        wl.offered_load()
    );
    println!(
        "{:<22} {:>9} {:>9} {:>10} {:>12} {:>12}",
        "mode", "avg ms", "p99 ms", "thr kRPS", "conn SD", "empty wakes"
    );
    for mode in Mode::paper_trio() {
        let r = hermes::simnet::run(&wl, SimConfig::new(workers, mode));
        let empty: u64 = r.workers.iter().map(|w| w.empty_wakes).sum();
        println!(
            "{:<22} {:>9.3} {:>9.2} {:>10.1} {:>12.1} {:>12}",
            mode.name(),
            r.avg_latency_ms(),
            r.p99_latency_ms(),
            r.throughput_rps() / 1e3,
            r.balance.conn_sd.mean(),
            empty,
        );
    }
    println!("\nThings to notice: exclusive piles the long-lived connections on its");
    println!("last-registered workers and shows the largest connection SD; reuseport");
    println!("spreads them by hash but keeps feeding workers stuck in SSL-heavy");
    println!("requests; Hermes steers new connections to free workers and keeps the");
    println!("lowest tail.");
}
