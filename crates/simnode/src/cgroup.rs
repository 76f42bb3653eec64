//! Per-workload cgroup v2 accounting.
//!
//! SLURM creates one cgroup per job; the kernel accounts CPU time, memory
//! and IO into it. The CEEMS exporter's cgroup collector walks
//! `/sys/fs/cgroup` and parses `cpu.stat`, `memory.current` etc. — this
//! module holds the accounting state and renders exactly those files.

/// Accounting state of one cgroup.
#[derive(Clone, Debug, Default)]
pub struct CgroupStats {
    /// Cumulative user-mode CPU time (µs).
    pub cpu_user_usec: u64,
    /// Cumulative kernel-mode CPU time (µs).
    pub cpu_system_usec: u64,
    /// Current memory usage (bytes).
    pub memory_current: u64,
    /// High-water-mark memory usage (bytes).
    pub memory_peak: u64,
    /// Memory limit (bytes); rendered in `memory.max`.
    pub memory_max: u64,
    /// Cumulative bytes read.
    pub io_rbytes: u64,
    /// Cumulative bytes written.
    pub io_wbytes: u64,
    /// PIDs inside the cgroup (synthetic).
    pub pids: Vec<u32>,
}

impl CgroupStats {
    /// Creates accounting with a memory limit.
    pub fn new(memory_max: u64, first_pid: u32) -> CgroupStats {
        CgroupStats {
            memory_max,
            pids: vec![first_pid],
            ..Default::default()
        }
    }

    /// Advances accounting over `dt_s` seconds:
    /// * `cpu_cores_busy` — cores actively used (e.g. 6.5 of 8 allocated);
    ///   split 92/8 between user and system time.
    /// * `memory_bytes` — instantaneous usage.
    /// * `io_read_bps` / `io_write_bps` — IO rates.
    pub fn advance(
        &mut self,
        dt_s: f64,
        cpu_cores_busy: f64,
        memory_bytes: u64,
        io_read_bps: f64,
        io_write_bps: f64,
    ) {
        let cpu_usec = (cpu_cores_busy.max(0.0) * dt_s * 1e6) as u64;
        self.cpu_user_usec += cpu_usec * 92 / 100;
        self.cpu_system_usec += cpu_usec - cpu_usec * 92 / 100;
        self.memory_current = memory_bytes.min(self.memory_max);
        self.memory_peak = self.memory_peak.max(self.memory_current);
        self.io_rbytes += (io_read_bps.max(0.0) * dt_s) as u64;
        self.io_wbytes += (io_write_bps.max(0.0) * dt_s) as u64;
    }

    /// Total CPU time in µs.
    pub fn cpu_total_usec(&self) -> u64 {
        self.cpu_user_usec + self.cpu_system_usec
    }

    /// The files of a cgroup directory, in listing order.
    pub const FILES: [&'static str; 6] = [
        "cpu.stat",
        "memory.current",
        "memory.peak",
        "memory.max",
        "io.stat",
        "cgroup.procs",
    ];

    /// Renders one of the cgroup's [`Self::FILES`] in the cgroup v2 layout
    /// the exporter parses; `None` for any other name.
    pub fn read(&self, file: &str) -> Option<String> {
        Some(match file {
            "cpu.stat" => format!(
                "usage_usec {}\nuser_usec {}\nsystem_usec {}\n",
                self.cpu_total_usec(),
                self.cpu_user_usec,
                self.cpu_system_usec
            ),
            "memory.current" => format!("{}\n", self.memory_current),
            "memory.peak" => format!("{}\n", self.memory_peak),
            "memory.max" => format!("{}\n", self.memory_max),
            "io.stat" => format!(
                "8:0 rbytes={} wbytes={} rios=0 wios=0 dbytes=0 dios=0\n",
                self.io_rbytes, self.io_wbytes
            ),
            "cgroup.procs" => self.pids.iter().map(|p| format!("{p}\n")).collect(),
            _ => return None,
        })
    }

    /// Renders the cgroup's files as `(file_name, content)` pairs.
    pub fn render(&self) -> Vec<(String, String)> {
        Self::FILES
            .iter()
            .map(|f| (f.to_string(), self.read(f).expect("a listed file")))
            .collect()
    }
}

/// The SLURM cgroup path prefix used on compute nodes.
pub const SLURM_CGROUP_ROOT: &str = "/sys/fs/cgroup/system.slice/slurmstepd.scope";

/// Path of a job's cgroup directory.
pub fn job_cgroup_dir(job_id: u64) -> String {
    format!("{SLURM_CGROUP_ROOT}/job_{job_id}")
}

/// Extracts a job id from a cgroup directory name (`job_123` → 123).
pub fn parse_job_dir(name: &str) -> Option<u64> {
    name.strip_prefix("job_")?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accounting_accumulates() {
        let mut c = CgroupStats::new(16 << 30, 4242);
        c.advance(10.0, 4.0, 8 << 30, 1e6, 2e6);
        assert_eq!(c.cpu_total_usec(), 40_000_000);
        assert_eq!(c.cpu_user_usec, 36_800_000);
        assert_eq!(c.cpu_system_usec, 3_200_000);
        assert_eq!(c.memory_current, 8 << 30);
        assert_eq!(c.io_rbytes, 10_000_000);
        assert_eq!(c.io_wbytes, 20_000_000);

        // Memory falls; peak stays.
        c.advance(1.0, 0.0, 1 << 30, 0.0, 0.0);
        assert_eq!(c.memory_current, 1 << 30);
        assert_eq!(c.memory_peak, 8 << 30);
    }

    #[test]
    fn memory_clamped_to_limit() {
        let mut c = CgroupStats::new(4 << 30, 1);
        c.advance(1.0, 0.0, 100 << 30, 0.0, 0.0);
        assert_eq!(c.memory_current, 4 << 30);
    }

    #[test]
    fn rendered_files_parse_back() {
        let mut c = CgroupStats::new(1 << 30, 7);
        c.advance(2.0, 1.0, 1 << 20, 0.0, 512.0);
        let files: std::collections::BTreeMap<_, _> = c.render().into_iter().collect();
        assert!(files["cpu.stat"].starts_with("usage_usec 2000000\n"));
        assert_eq!(files["memory.current"], format!("{}\n", 1 << 20));
        assert!(files["io.stat"].contains("wbytes=1024"));
        assert_eq!(files["cgroup.procs"], "7\n");
    }

    #[test]
    fn job_dir_roundtrip() {
        let dir = job_cgroup_dir(998877);
        assert!(dir.ends_with("/job_998877"));
        assert_eq!(parse_job_dir("job_998877"), Some(998877));
        assert_eq!(parse_job_dir("user.slice"), None);
        assert_eq!(parse_job_dir("job_abc"), None);
    }
}
