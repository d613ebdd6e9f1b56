//! Regenerate **Fig. A5**: CDF of the number of forwarding rules per port
//! in a region — most ports carry a handful of rules, a long tail carries
//! thousands (the paper's argument that code-path locality is absent even
//! per tenant).

use hermes_bench::banner;
use hermes_metrics::ascii::line_plot;
use hermes_metrics::Summary;
use hermes_workload::scenario::rules_per_port;

pub fn run() {
    banner(
        "Fig A5",
        "Appendix C 'CDF of #forwarding rules per port in a region'",
    );
    let rules = rules_per_port(20_000, 42);
    let mut cdf = Summary::with_capacity(rules.len());
    cdf.extend(rules.iter().map(|&r| r as f64));
    // Log-spaced x-axis (the figure's interesting range spans decades).
    let pts: Vec<(f64, f64)> = (0..=24)
        .map(|i| {
            let x = 10f64.powf(i as f64 / 6.0); // 1 .. 10^4
            (x.log10(), cdf.at(x))
        })
        .collect();
    println!(
        "{}",
        line_plot(
            "CDF of rules per port (x = log10 rules)",
            &[("cdf", &pts)],
            72,
            14
        )
    );
    for q in [0.5, 0.9, 0.99, 0.999] {
        println!("P{:.1}: {:.0} rules", q * 100.0, cdf.quantile(q));
    }
    println!("Paper shape: heavy-tailed — P50 of a few rules, P99+ in the thousands.");
}
