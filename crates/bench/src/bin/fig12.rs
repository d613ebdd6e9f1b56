//! Regenerate **Fig. 12**: unit cost of cloud infra (total LB cost / total
//! traffic, normalized) before and after Hermes.
//!
//! Mechanism (§6.2): eliminating worker hangs let the scale-out safety
//! threshold rise from 30 % to 40 % CPU, so the same traffic needs fewer
//! VMs. We replay 24 months of growing traffic through the autoscaling
//! model and report the monthly unit-cost curves and the peak reduction
//! (paper: 18.9 %).
//!
//! The traffic basis is the *simulated* 363-device fleet: month 0 is
//! [`FLEET_RPS`], the request rate a full `fleet_throughput` run completes
//! (and re-checks), and the cost model is calibrated so carrying it at the
//! pre-Hermes 30 % threshold takes exactly the 363 deployed devices.

use hermes_bench::{banner, FLEET_RPS};
use hermes_core::costmodel::{peak_reduction, CostModel};
use hermes_metrics::ascii::line_plot;

/// The paper's region: 363 devices.
const FLEET_DEVICES: u32 = 363;

fn main() {
    banner(
        "Fig 12",
        "§6.2 'Unit cost of cloud infra before/after Hermes'",
    );
    println!(
        "traffic basis: simulated fleet {FLEET_RPS:.0} rps across {FLEET_DEVICES} devices (fleet_throughput)"
    );
    let (before, after) = CostModel::calibrated_pair(FLEET_RPS, FLEET_DEVICES);
    // 24 months of ~8% m/m traffic growth from the month-0 basis.
    let traffic: Vec<f64> = (0..24).map(|m| FLEET_RPS * 1.08f64.powi(m)).collect();
    println!(
        "month 0 provisioning: {} VMs before / {} after (threshold 30% -> 40%)",
        before.vms_required(traffic[0]),
        after.vms_required(traffic[0])
    );
    let b = before.unit_cost_series(&traffic);
    let a = after.unit_cost_series(&traffic);
    // Normalize to the first pre-Hermes month, as the paper normalizes.
    let norm = b[0];
    let bp: Vec<(f64, f64)> = b
        .iter()
        .enumerate()
        .map(|(m, &v)| (m as f64, v / norm))
        .collect();
    let ap: Vec<(f64, f64)> = a
        .iter()
        .enumerate()
        .map(|(m, &v)| (m as f64, v / norm))
        .collect();
    println!(
        "{}",
        line_plot(
            "normalized unit cost per month (release at month 0)",
            &[
                ("before (30% threshold)", &bp),
                ("after (40% threshold)", &ap)
            ],
            72,
            14,
        )
    );
    let peak = peak_reduction(&before, &after, &traffic) * 100.0;
    let mean_red: f64 = b
        .iter()
        .zip(&a)
        .map(|(b, a)| (b - a) / b * 100.0)
        .sum::<f64>()
        / b.len() as f64;
    println!("peak monthly unit-cost reduction: {peak:.1}%   mean: {mean_red:.1}%");
    println!("Paper: peak reduction 18.9% (threshold 30% -> 40%; ideal asymptote 25%).");
}
