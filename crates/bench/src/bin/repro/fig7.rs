//! Regenerate **Fig. 7**: packets spread evenly across NIC RSS queues
//! while CPU-core utilization stays highly unbalanced — the argument that
//! L4-style packet balancing cannot fix L7 load imbalance.

use hermes_bench::{banner, DURATION_NS, SEED, WORKERS};
use hermes_core::hash::reciprocal_scale;
use hermes_metrics::ascii::bar_chart;
use hermes_simnet::{Mode, SimConfig};
use hermes_workload::regions::Region;
use hermes_workload::scenario::region_mix;
use hermes_workload::{CaseLoad, Workload};

/// Packets per NIC RSS queue: RSS hashes each connection's flow to one of
/// `queues` queues, which takes its SYN, its ACK and one packet per scripted
/// request. Counted over the connections that arrive by the horizon, the
/// ones whose SYN the simulator runs.
fn rss_queue_packets(wl: &Workload, queues: usize) -> Vec<u64> {
    let mut packets = vec![0; queues];
    for c in wl.conns.iter().filter(|c| c.arrival_ns() <= wl.duration_ns) {
        let q = reciprocal_scale(c.flow.hash(), queues as u32) as usize;
        packets[q] += 2 + wl.requests_of(c).len() as u64;
    }
    packets
}

pub fn run() {
    banner(
        "Fig 7",
        "§3 'packets evenly distributed across NIC queues, CPU unbalanced'",
    );
    let region = &Region::all()[1];
    let wl = region_mix(region, WORKERS, CaseLoad::Medium, DURATION_NS, SEED);
    let r = hermes_simnet::run(&wl, SimConfig::new(WORKERS, Mode::ExclusiveLifo));

    let packets = rss_queue_packets(&wl, WORKERS);
    let total: u64 = packets.iter().sum();
    let nic: Vec<(String, f64)> = packets
        .iter()
        .enumerate()
        .map(|(q, &c)| (format!("queue{q}"), c as f64 / total as f64 * 100.0))
        .collect();
    let nic_refs: Vec<(&str, f64)> = nic.iter().map(|(n, v)| (n.as_str(), *v)).collect();
    println!(
        "{}",
        bar_chart("NIC RSS packet share per queue (%)", &nic_refs, 40)
    );

    let cpu: Vec<(String, f64)> = r
        .workers
        .iter()
        .enumerate()
        .map(|(w, rep)| (format!("core{w}"), rep.utilization * 100.0))
        .collect();
    let cpu_refs: Vec<(&str, f64)> = cpu.iter().map(|(n, v)| (n.as_str(), *v)).collect();
    println!(
        "{}",
        bar_chart("CPU utilization per worker core (%)", &cpu_refs, 40)
    );

    let nic_sd =
        hermes_metrics::welford::stddev_of(&nic.iter().map(|(_, v)| *v).collect::<Vec<_>>());
    let cpu_sd =
        hermes_metrics::welford::stddev_of(&cpu.iter().map(|(_, v)| *v).collect::<Vec<_>>());
    println!("NIC queue share SD: {nic_sd:.2} pp   |   CPU utilization SD: {cpu_sd:.2} pp");
    println!("Paper shape: NIC bars flat, CPU bars wildly uneven (SD ratio >> 1).");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The queues count Σ(2 + requests) over the connections that arrive by
    /// the horizon, and those are the connections whose SYN the simulator
    /// runs: each one is accepted or left in its accept queue.
    #[test]
    fn rss_queues_count_every_packet_of_the_syns_that_run() {
        let region = &Region::all()[1];
        let mut wl = region_mix(region, 2, CaseLoad::Light, 2_000_000_000, 7);
        wl.duration_ns /= 2;
        let arrived: Vec<_> = wl
            .conns
            .iter()
            .filter(|c| c.arrival_ns() <= wl.duration_ns)
            .collect();
        assert!(arrived.len() < wl.connection_count());
        let want: u64 = arrived
            .iter()
            .map(|c| 2 + wl.requests_of(c).len() as u64)
            .sum();
        let packets = rss_queue_packets(&wl, 4);
        assert_eq!(packets.len(), 4);
        assert_eq!(packets.iter().sum::<u64>(), want);
        let r = hermes_simnet::run(&wl, SimConfig::new(2, Mode::ExclusiveLifo));
        assert_eq!(
            r.accepted_connections + r.unaccepted_connections,
            arrived.len() as u64
        );
    }
}
