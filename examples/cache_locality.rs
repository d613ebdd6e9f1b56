//! Appendix C / Fig. A6: the group-based scheduling model that trades
//! cache locality against load balance.
//!
//! Level 1 hashes DIP&Dport to a worker *group* (tenant traffic sticks to
//! a group ⇒ locality); level 2 runs ordinary Hermes inside the group
//! (⇒ balance). One group degenerates to standard Hermes; one worker per
//! group degenerates to pure reuseport. A group is the flat plane's parts:
//! a `Wst`, a `Scheduler` pass, its bitmap and a `ConnDispatcher`.
//!
//! Run with: `cargo run --example cache_locality`

use hermes::core::hash::{jhash_3words, level2_hash, reciprocal_scale};
use hermes::prelude::*;
use std::collections::{HashMap, HashSet};

/// One worker group: the bitmap its own status table scheduled, and
/// Algorithm 2.
struct Group {
    bitmap: WorkerBitmap,
    dispatcher: ConnDispatcher,
}

/// Level 1 of Appendix C: hash the tenant (destination IP and port) rather
/// than the 4-tuple, so every connection of a tenant picks one group.
fn tenant_group(flow: &FlowKey, groups: usize) -> usize {
    let h = jhash_3words(flow.dst_ip, u32::from(flow.dst_port), 0, 0x4a6f_9d21);
    reciprocal_scale(h, groups as u32) as usize
}

fn main() {
    let total_workers = 16;
    let scheduler = Scheduler::new(SchedConfig::default());
    for (label, group_size) in [
        ("standard Hermes (1 group of 16)", 16usize),
        ("locality/balance trade (4 groups of 4)", 4),
        ("pure reuseport (16 groups of 1)", 1),
    ] {
        // Bring all workers up; each group schedules its own bitmap.
        let groups: Vec<Group> = (0..total_workers / group_size)
            .map(|_| {
                let wst = Wst::new(group_size);
                for w in 0..group_size {
                    wst.worker(w).enter_loop(1_000_000);
                }
                Group {
                    bitmap: scheduler.schedule(&wst, 1_500_000).bitmap,
                    dispatcher: ConnDispatcher::new(group_size),
                }
            })
            .collect();

        // Two tenants, many client flows each. `sprayed` is where §7's
        // 4-tuple level 1 would have sent the same flows.
        let mut tenant_groups: HashMap<u16, HashSet<usize>> = HashMap::new();
        let mut sprayed: HashMap<u16, HashSet<usize>> = HashMap::new();
        let mut worker_conns = vec![0u32; total_workers];
        for tenant_port in [8443u16, 9443] {
            for i in 0..3_000u32 {
                let flow = FlowKey::new(
                    0x0a10_0000 + i,
                    1_024 + (i % 50_000) as u16,
                    0x0aff_0001,
                    tenant_port,
                );
                let g = tenant_group(&flow, groups.len());
                let hash = level2_hash(flow.hash(), groups.len());
                let out = groups[g].dispatcher.dispatch(&[groups[g].bitmap], hash);
                tenant_groups.entry(tenant_port).or_default().insert(g);
                sprayed
                    .entry(tenant_port)
                    .or_default()
                    .insert(reciprocal_scale(flow.hash(), groups.len() as u32) as usize);
                worker_conns[g * group_size + out.worker()] += 1;
            }
        }
        let conns_f: Vec<f64> = worker_conns.iter().map(|&c| c as f64).collect();
        let sd = hermes::metrics::welford::stddev_of(&conns_f);
        let spread: Vec<usize> = tenant_groups.values().map(|s| s.len()).collect();
        println!(
            "{label:<42} tenant->groups touched {spread:?}   conn SD across workers {sd:>6.1}"
        );
        // DIP&Dport pins each tenant to one group; the 4-tuple sprays it.
        assert_eq!(spread, [1, 1], "{label}: a tenant left its group");
        if groups.len() > 1 {
            assert!(
                sprayed.values().all(|s| s.len() > 1),
                "{label}: the 4-tuple hash kept a tenant in one group"
            );
        }
    }
    println!("\nSmaller groups pin each tenant to fewer workers (cache locality) at the");
    println!("cost of balance; the group size is the knob (Appendix C, Fig. A6).");
}
