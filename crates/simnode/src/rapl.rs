//! RAPL energy counters with powercap-style semantics.
//!
//! Real RAPL exposes per-domain cumulative energy in microjoules through
//! `/sys/class/powercap/intel-rapl:<socket>[:<sub>]/energy_uj`, wrapping at
//! `max_energy_range_uj`. The paper relies on RAPL being cheap and
//! fine-grained (µs) versus IPMI being slow; this module reproduces the
//! counter semantics including wraparound, which `rate()` in the TSDB must
//! handle exactly like Prometheus does for counter resets.

/// One RAPL domain (`package-0`, `dram`, ...).
#[derive(Clone, Debug)]
pub struct RaplDomain {
    /// Domain name as the sysfs `name` file reports (`package-0`, `dram`).
    pub name: String,
    energy_uj: f64,
    max_energy_range_uj: u64,
}

impl RaplDomain {
    /// Creates a domain with the default (realistic) 262 kJ wrap range.
    pub fn new(name: impl Into<String>) -> RaplDomain {
        // Typical value observed on Intel hardware: ~262143 J.
        RaplDomain::with_range(name, 262_143_328_850)
    }

    /// Creates a domain with a custom wrap range (tests use small ranges to
    /// exercise wraparound quickly).
    pub fn with_range(name: impl Into<String>, max_energy_range_uj: u64) -> RaplDomain {
        assert!(max_energy_range_uj > 0);
        RaplDomain {
            name: name.into(),
            energy_uj: 0.0,
            max_energy_range_uj,
        }
    }

    /// Accumulates `power_w` watts over `dt_s` seconds.
    pub fn accumulate(&mut self, power_w: f64, dt_s: f64) {
        debug_assert!(power_w >= 0.0 && dt_s >= 0.0);
        self.energy_uj += power_w * dt_s * 1e6;
        let range = self.max_energy_range_uj as f64;
        while self.energy_uj >= range {
            self.energy_uj -= range;
        }
    }

    /// Current counter value in µJ, as `energy_uj` would read.
    pub fn energy_uj(&self) -> u64 {
        self.energy_uj as u64
    }

    /// The wrap range, as `max_energy_range_uj` would read.
    pub fn max_energy_range_uj(&self) -> u64 {
        self.max_energy_range_uj
    }
}

/// A node's set of RAPL domains rendered as a powercap-like tree:
///
/// ```text
/// intel-rapl:0/name                -> package-0
/// intel-rapl:0/energy_uj           -> 12345
/// intel-rapl:0/max_energy_range_uj -> 262143328850
/// intel-rapl:0:0/name              -> dram   (Intel only)
/// ```
#[derive(Clone, Debug, Default)]
pub struct RaplZone {
    /// Package domains, one per socket.
    pub packages: Vec<RaplDomain>,
    /// DRAM domains, one per socket (empty on AMD).
    pub dram: Vec<RaplDomain>,
}

impl RaplZone {
    /// Builds domains for a socket count; `with_dram` matches Intel.
    pub fn new(sockets: usize, with_dram: bool) -> RaplZone {
        RaplZone {
            packages: (0..sockets)
                .map(|s| RaplDomain::new(format!("package-{s}")))
                .collect(),
            dram: if with_dram {
                (0..sockets).map(|_| RaplDomain::new("dram")).collect()
            } else {
                Vec::new()
            },
        }
    }

    /// Accumulates energy: `cpu_socket_w[i]` into package i, `dram_w` split
    /// evenly across DRAM domains.
    pub fn accumulate(&mut self, cpu_sockets_w: &[f64], dram_w: f64, dt_s: f64) {
        for (dom, &w) in self.packages.iter_mut().zip(cpu_sockets_w) {
            dom.accumulate(w, dt_s);
        }
        let n = self.dram.len().max(1) as f64;
        for dom in self.dram.iter_mut() {
            dom.accumulate(dram_w / n, dt_s);
        }
    }

    /// Total package energy (µJ, pre-wrap semantics not preserved — callers
    /// should treat each domain independently like real collectors do).
    pub fn package_energy_uj(&self) -> u64 {
        self.packages.iter().map(|d| d.energy_uj()).sum()
    }

    /// The files of a zone directory, in listing order.
    pub const FILES: [&'static str; 3] = ["name", "energy_uj", "max_energy_range_uj"];

    /// Zone directory names under `/sys/class/powercap`: packages, then
    /// DRAM sub-zones.
    pub fn zones(&self) -> impl Iterator<Item = String> + '_ {
        let packages = (0..self.packages.len()).map(|i| format!("intel-rapl:{i}"));
        packages.chain((0..self.dram.len()).map(|i| format!("intel-rapl:{i}:0")))
    }

    /// The domain behind a zone directory name, which must be spelled the
    /// way [`Self::zones`] spells it.
    fn domain(&self, zone: &str) -> Option<&RaplDomain> {
        let index = zone.strip_prefix("intel-rapl:")?;
        let (index, domains) = match index.strip_suffix(":0") {
            Some(socket) => (socket, &self.dram),
            None => (index, &self.packages),
        };
        if index.starts_with('+') || (index.len() > 1 && index.starts_with('0')) {
            return None;
        }
        domains.get(index.parse::<usize>().ok()?)
    }

    /// Renders one file of the powercap tree, addressed relative to
    /// `/sys/class/powercap` (`intel-rapl:0/energy_uj`).
    pub fn read(&self, path: &str) -> Option<String> {
        let (zone, file) = path.split_once('/')?;
        let dom = self.domain(zone)?;
        Some(match file {
            "name" => format!("{}\n", dom.name),
            "energy_uj" => format!("{}\n", dom.energy_uj()),
            "max_energy_range_uj" => format!("{}\n", dom.max_energy_range_uj()),
            _ => return None,
        })
    }

    /// Renders the powercap file tree under `/sys/class/powercap`.
    /// Returns `(relative_path, content)` pairs.
    pub fn render(&self) -> Vec<(String, String)> {
        let mut out = Vec::new();
        for zone in self.zones() {
            for file in Self::FILES {
                let path = format!("{zone}/{file}");
                let content = self.read(&path).expect("a listed file");
                out.push((path, content));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulation_is_power_times_time() {
        let mut d = RaplDomain::new("package-0");
        d.accumulate(100.0, 2.0); // 200 J
        assert_eq!(d.energy_uj(), 200_000_000);
    }

    #[test]
    fn wraparound() {
        let mut d = RaplDomain::with_range("package-0", 1_000_000); // 1 J range
        d.accumulate(100.0, 0.0095); // 0.95 J
        assert_eq!(d.energy_uj(), 950_000);
        d.accumulate(100.0, 0.001); // +0.1 J -> wraps to 0.05 J
        assert_eq!(d.energy_uj(), 50_000);
    }

    #[test]
    fn wraparound_handles_large_jumps() {
        let mut d = RaplDomain::with_range("p", 1_000);
        d.accumulate(1.0, 10.0); // 10 J over a 1 mJ range: many wraps
        assert!(d.energy_uj() < 1_000);
    }

    #[test]
    fn zone_layout_intel_vs_amd() {
        let intel = RaplZone::new(2, true);
        assert_eq!(intel.packages.len(), 2);
        assert_eq!(intel.dram.len(), 2);
        let amd = RaplZone::new(2, false);
        assert!(amd.dram.is_empty());
    }

    #[test]
    fn render_produces_powercap_tree() {
        let mut z = RaplZone::new(1, true);
        z.accumulate(&[50.0], 10.0, 1.0);
        let files: std::collections::BTreeMap<_, _> = z.render().into_iter().collect();
        assert_eq!(files["intel-rapl:0/name"], "package-0\n");
        assert_eq!(files["intel-rapl:0/energy_uj"], "50000000\n");
        assert_eq!(files["intel-rapl:0:0/name"], "dram\n");
        assert_eq!(files["intel-rapl:0:0/energy_uj"], "10000000\n");
        assert!(files.contains_key("intel-rapl:0/max_energy_range_uj"));
    }

    #[test]
    fn dram_split_across_sockets() {
        let mut z = RaplZone::new(2, true);
        z.accumulate(&[10.0, 10.0], 20.0, 1.0);
        assert_eq!(z.dram[0].energy_uj(), 10_000_000);
        assert_eq!(z.dram[1].energy_uj(), 10_000_000);
    }
}
