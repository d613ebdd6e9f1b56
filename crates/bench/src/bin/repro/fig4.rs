//! Regenerate **Fig. 4**: CDF of the number of events returned from
//! `epoll_wait()` for four workers of one device over a production-like
//! mix under epoll exclusive — some workers are systematically busier.
//! Fig. 5 reads the same run through [`region_mix_exclusive`].

use hermes_bench::{banner, DURATION_NS, SEED, WORKERS};
use hermes_metrics::ascii::line_plot;
use hermes_metrics::{Histogram, Summary};
use hermes_simnet::{DeviceReport, Mode, SimConfig};
use hermes_workload::regions::Region;
use hermes_workload::scenario::region_mix;
use hermes_workload::CaseLoad;

/// The run Figs. 4 and 5 plot: Region2's mix at medium load under epoll
/// exclusive, and the four workers they show — the two idlest and the two
/// busiest by busy time, like the paper's PIDs.
pub fn region_mix_exclusive() -> (DeviceReport, [usize; 4]) {
    let region = &Region::all()[1];
    let wl = region_mix(region, WORKERS, CaseLoad::Medium, DURATION_NS, SEED);
    let r = hermes_simnet::run(&wl, SimConfig::new(WORKERS, Mode::ExclusiveLifo));
    let mut order: Vec<usize> = (0..WORKERS).collect();
    order.sort_by_key(|&w| r.workers[w].busy_ns);
    let picks = [order[0], order[1], order[WORKERS - 2], order[WORKERS - 1]];
    (r, picks)
}

/// The CDF of `h`'s samples, each divided by `unit`, at `steps + 1` evenly
/// spaced points of `[0, xmax]`.
pub fn cdf_points(h: &Histogram, unit: f64, xmax: f64, steps: u32) -> Vec<(f64, f64)> {
    let mut cdf = Summary::new();
    cdf.extend(
        h.iter_buckets()
            .flat_map(|(v, c)| std::iter::repeat_n(v as f64 / unit, c as usize)),
    );
    (0..=steps)
        .map(|i| {
            let x = xmax * i as f64 / steps as f64;
            (x, cdf.at(x))
        })
        .collect()
}

/// One `line_plot` series per picked worker, named `worker<w>`.
pub fn plot_workers(
    title: &str,
    picks: &[usize],
    points: impl Fn(usize) -> Vec<(f64, f64)>,
) -> String {
    let data: Vec<(String, Vec<(f64, f64)>)> = picks
        .iter()
        .map(|&w| (format!("worker{w}"), points(w)))
        .collect();
    let series: Vec<(&str, &[(f64, f64)])> = data
        .iter()
        .map(|(n, p)| (n.as_str(), p.as_slice()))
        .collect();
    line_plot(title, &series, 72, 14)
}

pub fn run() {
    banner("Fig 4", "§2.3 'CDF of #events returned from epoll_wait()'");
    let (r, picks) = region_mix_exclusive();
    for &w in &picks {
        let h = &r.workers[w].events_per_wait;
        println!(
            "worker {w}: epoll_wait calls {}, mean events {:.2}, P99 {}",
            h.count(),
            h.mean(),
            h.p99()
        );
    }
    println!(
        "{}",
        plot_workers(
            "CDF of #events per epoll_wait (x=events, y=F)",
            &picks,
            |w| cdf_points(&r.workers[w].events_per_wait, 1.0, 20.0, 20)
        )
    );
    println!("Paper shape: busy workers' CDFs sit to the right (more events per wait).");
}
