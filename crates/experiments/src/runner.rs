use std::sync::atomic::{AtomicUsize, Ordering};

/// Summary statistics over per-instance measurements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Aggregate {
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
}

/// Aggregates a slice of measurements.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn aggregate(values: &[f64]) -> Aggregate {
    assert!(!values.is_empty(), "no measurements to aggregate");
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
    Aggregate {
        mean,
        std: var.sqrt(),
        min: values.iter().copied().fold(f64::INFINITY, f64::min),
        max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
    }
}

/// Runs `job(instance_index)` for every index in `0..instances`, fanned out
/// over worker threads, and returns the results in index order.
///
/// The paper averages every data point over 15 generated networks; this is
/// the loop that produces those 15 runs. Each job receives only its index so
/// callers derive per-instance seeds (`base_seed + index`), keeping results
/// identical regardless of the worker count.
///
/// # Panics
///
/// Propagates panics from the jobs.
pub fn run_parallel<T, F>(instances: usize, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(instances.max(1));
    if workers <= 1 {
        return (0..instances).map(&job).collect();
    }
    // Workers claim indices from a shared counter and return what they
    // ran; the results are then placed back in index order.
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<T>> = (0..instances).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        if index >= instances {
                            return done;
                        }
                        done.push((index, job(index)));
                    }
                })
            })
            .collect();
        for handle in handles {
            let done = handle
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            for (index, value) in done {
                slots[index] = Some(value);
            }
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("all jobs completed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregate_statistics() {
        let a = aggregate(&[1.0, 2.0, 3.0, 4.0]);
        assert!((a.mean - 2.5).abs() < 1e-12);
        assert!((a.std - (1.25f64).sqrt()).abs() < 1e-12);
        assert_eq!(a.min, 1.0);
        assert_eq!(a.max, 4.0);
    }

    #[test]
    fn run_parallel_preserves_order() {
        let out = run_parallel(20, |i| i * i);
        assert_eq!(out, (0..20).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn run_parallel_zero_instances() {
        let out: Vec<u32> = run_parallel(0, |_| unreachable!());
        assert!(out.is_empty());
    }
}
