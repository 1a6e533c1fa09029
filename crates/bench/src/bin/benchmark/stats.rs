//! Order statistics, the trial digest and the `/proc` parser — the
//! measuring code's own arithmetic, unit-tested below.

/// Five-number summary of one timing's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    /// Quartiles as Python's `statistics.quantiles(values, n=4)` computes
    /// them (exclusive method), so a spread printed here is the spread the
    /// acceptance check computes from the same values.
    pub fn of(samples: &[f64]) -> Summary {
        assert!(!samples.is_empty(), "summary of no samples");
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let quartile = |i: usize| {
            if n == 1 {
                return v[0];
            }
            let j = (i * (n + 1) / 4).clamp(1, n - 1);
            let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
            (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
        };
        Summary {
            n,
            min: v[0],
            q1: quartile(1),
            median: quartile(2),
            q3: quartile(3),
            max: v[n - 1],
        }
    }

    /// `min / q1 / median / q3 / max (n)` in `unit`, for the report.
    pub fn render(&self, unit: &str) -> String {
        format!(
            "median {:.6} {unit}  [min {:.6}  q1 {:.6}  q3 {:.6}  max {:.6}]  n={}",
            self.median, self.min, self.q1, self.q3, self.max, self.n
        )
    }
}

pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).median
}

/// 64-bit FNV-1a, continued from `state` (start from [`FNV_OFFSET`]).
pub fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(state, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Peak resident set size in kB from the text of `/proc/<pid>/status`.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let rest = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    rest.trim().strip_suffix("kB")?.trim().parse().ok()
}

/// This process's peak resident set size in kB (0 where `/proc` has no
/// such field, so the benchmark still runs off Linux).
pub fn vm_hwm_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_hwm_kb(&s))
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let s = Summary::of(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.5, 3.0, 4.5));
        assert_eq!((s.min, s.max, s.n), (1.0, 5.0, 5));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.25, 2.5, 3.75));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        let s = Summary::of(&[10.0, 20.0, 40.0]);
        assert_eq!((s.q1, s.median, s.q3), (10.0, 20.0, 40.0));
        let s = Summary::of(&[7.0]);
        assert_eq!((s.q1, s.median, s.q3), (7.0, 7.0, 7.0));
        assert_eq!(median(&[3.0, 1.0]), 2.0);
    }

    #[test]
    fn fnv_digest_is_stable() {
        assert_eq!(fnv1a(FNV_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(FNV_OFFSET, b"foobar"), 0x8594_4171_f739_67e8);
        // Chaining equals hashing the concatenation.
        assert_eq!(
            fnv1a(fnv1a(FNV_OFFSET, b"foo"), b"bar"),
            fnv1a(FNV_OFFSET, b"foobar")
        );
    }

    #[test]
    fn vm_hwm_parser_reads_a_canned_status() {
        let status =
            "Name:\tbenchmark\nVmPeak:\t  300000 kB\nVmHWM:\t  194212 kB\nVmRSS:\t  1000 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(194_212));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\nVmRSS:\t 5 kB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t lots kB\n"), None);
    }
}
