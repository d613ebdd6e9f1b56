//! Two-level worker-group dispatch.
//!
//! §7 ("Will the 64-bit atomic limit Hermes on 128-core servers?"): past 64
//! workers a deployment splits into equal groups of at most 64
//! ([`worker_groups`]). A new connection first picks a group by hashing
//! (level 1), then Algorithm 2 picks a worker within the group from that
//! group's own bitmap (level 2). Each group has its own WST and bitmap,
//! written only by its own workers' schedulers.
//!
//! [`ConnDispatcher`](crate::ConnDispatcher) runs both levels; one group is
//! the flat plane, because `reciprocal_scale(h, 1) == 0` and
//! `level2_hash(h, 1) == h`. Appendix C's cache-locality variant keys level
//! 1 on the destination IP and port instead; `examples/cache_locality.rs`
//! builds it from these parts.

use crate::bitmap::MAX_WORKERS_PER_GROUP;

/// §7's rule for a deployment of `workers` workers, as `(groups, size)`:
/// ⌈workers/64⌉ groups of equal size, at most 64 of them — one group, the
/// flat plane, up to 64 workers. `InvalidInput` for no workers, for a count
/// that does not split evenly (65, 130) and beyond 64 groups (4 097).
pub fn worker_groups(workers: usize) -> std::io::Result<(usize, usize)> {
    let groups = workers.div_ceil(MAX_WORKERS_PER_GROUP);
    if !(1..=MAX_WORKERS_PER_GROUP).contains(&groups) || !workers.is_multiple_of(groups) {
        let why = format!("{workers} workers: ⌈n/64⌉ equal groups, at most 64 of them");
        return Err(std::io::Error::new(std::io::ErrorKind::InvalidInput, why));
    }
    Ok((groups, workers / groups))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_groups_splits_into_at_most_64_equal_groups() {
        for (workers, shape) in [(1, (1, 1)), (64, (1, 64)), (96, (2, 48)), (128, (2, 64))] {
            assert_eq!(worker_groups(workers).unwrap(), shape, "{workers}");
        }
        assert_eq!(worker_groups(4_096).unwrap(), (64, 64));
        for workers in [0, 65, 130, 4_097] {
            let err = worker_groups(workers).expect_err("no such split");
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{workers}");
        }
    }
}
