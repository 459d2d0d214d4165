//! Time-series post-processing: link utilization and queue occupancy,
//! read from the engine's telemetry series (`netsim::Telemetry`).

use netsim::trace::Series;

/// One normalized utilization observation for a sampling interval.
#[derive(Clone, Copy, Debug)]
pub struct UtilizationPoint {
    /// End of the interval, nanoseconds.
    pub at_ns: u64,
    /// Fraction of the link capacity used during the interval (0..=1).
    pub utilization: f64,
}

/// The points of a link's telemetry utilization series
/// (`Telemetry::link_util`), for Fig 1 / Fig 20 post-processing.
pub fn utilization_series(util: &Series) -> Vec<UtilizationPoint> {
    util.points().map(|p| UtilizationPoint { at_ns: p.at, utilization: p.value }).collect()
}

/// Mean of a utilization series.
pub fn mean_utilization(points: &[UtilizationPoint]) -> f64 {
    if points.is_empty() {
        return f64::NAN;
    }
    points.iter().map(|p| p.utilization).sum::<f64>() / points.len() as f64
}

/// Average queue occupancy split into a high-priority group (P0–P3) and a
/// low-priority group (P4–P7) from port samples (Fig 28 post-processing).
#[derive(Clone, Copy, Debug, Default)]
pub struct OccupancySplit {
    /// Mean bytes queued at priorities 0..4.
    pub high_avg_bytes: f64,
    /// Mean bytes queued at priorities 4..8.
    pub low_avg_bytes: f64,
    /// Mean total backlog.
    pub total_avg_bytes: f64,
}

/// Compute mean occupancy shares from one port's total and low-priority
/// backlog series (`Telemetry::port_queue_bytes` / `port_queue_lp_bytes`,
/// sampled at the same ticks).
pub fn occupancy_split(total: &Series, low: &Series) -> OccupancySplit {
    let mean = |s: &Series| s.points().map(|p| p.value).sum::<f64>() / s.len().max(1) as f64;
    let (total_avg_bytes, low_avg_bytes) = (mean(total), mean(low));
    OccupancySplit {
        high_avg_bytes: total_avg_bytes - low_avg_bytes,
        low_avg_bytes,
        total_avg_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(values: &[f64]) -> Series {
        let mut s = Series::new("s", 16);
        for (i, v) in values.iter().enumerate() {
            s.push((i as u64 + 1) * 100_000, *v);
        }
        s
    }

    #[test]
    fn utilization_points_carry_the_window_ends() {
        let u = utilization_series(&series(&[0.5, 1.0]));
        assert_eq!(u.len(), 2);
        assert_eq!((u[0].at_ns, u[1].at_ns), (100_000, 200_000));
        assert!((mean_utilization(&u) - 0.75).abs() < 1e-9);
    }

    #[test]
    fn empty_series_is_nan_mean() {
        assert!(mean_utilization(&[]).is_nan());
        assert!(utilization_series(&series(&[])).is_empty());
    }

    #[test]
    fn occupancy_split_groups_priorities() {
        let split = occupancy_split(&series(&[100.0, 200.0]), &series(&[60.0, 150.0]));
        assert_eq!(split.high_avg_bytes, (40.0 + 50.0) / 2.0);
        assert_eq!(split.low_avg_bytes, (60.0 + 150.0) / 2.0);
        assert_eq!(split.total_avg_bytes, 150.0);
        assert_eq!(occupancy_split(&series(&[]), &series(&[])).total_avg_bytes, 0.0);
    }
}

/// Jain's fairness index over a set of allocations: (Σx)² / (n·Σx²).
/// 1.0 = perfectly fair; 1/n = one flow gets everything.
pub fn jain_index(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let sum: f64 = values.iter().sum();
    let sq: f64 = values.iter().map(|x| x * x).sum();
    // Zero guard before the division below (sq is a sum of squares,
    // so <= 0 means exactly zero).
    if sq <= 0.0 {
        return f64::NAN;
    }
    sum * sum / (values.len() as f64 * sq)
}

#[cfg(test)]
mod jain_tests {
    use super::jain_index;

    #[test]
    fn equal_allocations_are_perfectly_fair() {
        assert!((jain_index(&[5.0, 5.0, 5.0, 5.0]) - 1.0).abs() < 1e-12);
        assert!((jain_index(&[1.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn single_hog_approaches_one_over_n() {
        let idx = jain_index(&[100.0, 0.0, 0.0, 0.0]);
        assert!((idx - 0.25).abs() < 1e-12);
    }

    #[test]
    fn degenerate_inputs_are_nan() {
        assert!(jain_index(&[]).is_nan());
        assert!(jain_index(&[0.0, 0.0]).is_nan());
    }
}
