//! Disk cost model.

use dps_des::SimSpan;

/// Seek + transfer model of one disk of the striped array.
///
/// Disk time is charged as operation cost on the owning thread — in the
/// paper's servers each disk is driven by the I/O thread mapped to its
/// node, so disk occupancy and thread occupancy coincide.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiskModel {
    /// Average positioning time per access.
    pub seek: SimSpan,
    /// Sustained transfer rate, bytes/second.
    pub bandwidth_bps: f64,
}

impl Default for DiskModel {
    /// A year-2002 commodity disk: 8 ms average seek, 30 MB/s sustained.
    fn default() -> Self {
        Self {
            seek: SimSpan::from_millis(8),
            bandwidth_bps: 30.0e6,
        }
    }
}

impl DiskModel {
    /// Time to read or write `bytes` in one access.
    pub fn access(&self, bytes: usize) -> SimSpan {
        self.seek + SimSpan::from_secs_f64(bytes as f64 / self.bandwidth_bps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn access_time_combines_seek_and_transfer() {
        let d = DiskModel {
            seek: SimSpan::from_millis(10),
            bandwidth_bps: 1e6,
        };
        // 1 MB at 1 MB/s = 1 s + 10 ms seek.
        let t = d.access(1_000_000);
        assert_eq!(t.as_nanos(), 1_010_000_000);
    }

    #[test]
    fn default_is_sane() {
        let d = DiskModel::default();
        assert!(d.access(0) >= SimSpan::from_millis(8));
        assert!(d.access(30_000_000).as_secs_f64() > 1.0);
    }
}
