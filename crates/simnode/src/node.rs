//! The simulated compute node.
//!
//! A [`SimNode`] owns hardware sensors (RAPL, IPMI, GPUs), per-task cgroup
//! accounting, and node-level `/proc` counters. [`SimNode::step`] advances
//! everything by one time slice from the running tasks' workload profiles;
//! the CEEMS exporter then reads the node through [`PseudoFs`] and the
//! sensor methods exactly as it would read a real machine.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::cgroup::{CgroupStats, SLURM_CGROUP_ROOT};
use crate::perf::{PerfCounters, PerfProfile};
use crate::gpu::GpuDevice;
use crate::ipmi::IpmiDcmi;
use crate::power::{compute_power, ComponentPower, CpuVendor, GpuModel, IpmiCoverage, PowerSpec};
use crate::pseudofs::PseudoFs;
use crate::rapl::RaplZone;
use crate::workload::WorkloadProfile;

/// Hardware class of a node (decides partition, sensors and power model).
#[derive(Clone, Debug, PartialEq)]
pub enum HardwareProfile {
    /// Dual-socket Intel node: RAPL package + DRAM domains.
    IntelCpu,
    /// Dual-socket AMD node: RAPL package domain only.
    AmdCpu,
    /// GPU node.
    Gpu {
        /// GPU model.
        model: GpuModel,
        /// GPU count.
        count: usize,
        /// Whether IPMI covers GPU power (§III: both types exist).
        coverage: IpmiCoverage,
    },
}

impl HardwareProfile {
    /// The electrical spec for this profile.
    pub fn power_spec(&self) -> PowerSpec {
        match self {
            HardwareProfile::IntelCpu => PowerSpec::intel_cpu_node(),
            HardwareProfile::AmdCpu => PowerSpec::amd_cpu_node(),
            HardwareProfile::Gpu {
                model,
                count,
                coverage,
            } => PowerSpec::gpu_node(*model, *count, *coverage),
        }
    }

    /// Installed memory.
    pub fn memory_bytes(&self) -> u64 {
        match self {
            HardwareProfile::IntelCpu => 192 << 30,
            HardwareProfile::AmdCpu => 512 << 30,
            HardwareProfile::Gpu { .. } => 384 << 30,
        }
    }
}

/// Static description of a node.
#[derive(Clone, Debug)]
pub struct NodeSpec {
    /// Hostname, e.g. `jz-intel-0042`.
    pub hostname: String,
    /// Hardware class.
    pub profile: HardwareProfile,
}

/// A task (job step) to place on a node.
#[derive(Clone, Debug)]
pub struct TaskSpec {
    /// Workload/job id (the resource manager's id).
    pub id: u64,
    /// Cores allocated.
    pub cores: usize,
    /// Memory allocated (bytes).
    pub memory_bytes: u64,
    /// Number of GPUs requested.
    pub gpus: usize,
    /// Workload shape.
    pub workload: WorkloadProfile,
}

/// Placement failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PlacementError {
    /// Not enough free cores.
    Cores,
    /// Not enough free memory.
    Memory,
    /// Not enough free GPUs.
    Gpus,
    /// Task id already running here.
    Duplicate,
}

impl std::fmt::Display for PlacementError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let what = match self {
            PlacementError::Cores => "insufficient cores",
            PlacementError::Memory => "insufficient memory",
            PlacementError::Gpus => "insufficient gpus",
            PlacementError::Duplicate => "duplicate task id",
        };
        f.write_str(what)
    }
}

impl std::error::Error for PlacementError {}

struct RunningTask {
    spec: TaskSpec,
    cgroup: CgroupStats,
    gpu_ordinals: Vec<usize>,
    started_ms: i64,
    perf: PerfCounters,
    perf_profile: PerfProfile,
    net_tx_bytes: u64,
    net_rx_bytes: u64,
}

/// Node-level cumulative CPU jiffies, as `/proc/stat` reports (USER_HZ=100).
#[derive(Clone, Copy, Debug, Default)]
struct ProcStat {
    user: u64,
    system: u64,
    idle: u64,
}

/// A simulated compute node.
pub struct SimNode {
    spec: NodeSpec,
    power_spec: PowerSpec,
    rapl: RaplZone,
    ipmi: IpmiDcmi,
    gpus: Vec<GpuDevice>,
    tasks: BTreeMap<u64, RunningTask>,
    proc_stat: ProcStat,
    last_power: ComponentPower,
    last_step_ms: i64,
    rng: StdRng,
}

impl SimNode {
    /// Creates an idle node.
    pub fn new(spec: NodeSpec, seed: u64) -> SimNode {
        let power_spec = spec.profile.power_spec();
        let with_dram = power_spec.vendor == CpuVendor::Intel;
        let rapl = RaplZone::new(power_spec.sockets, with_dram);
        let ipmi = IpmiDcmi::standard(power_spec.ipmi_coverage);
        let gpus = power_spec
            .gpus
            .iter()
            .enumerate()
            .map(|(i, &m)| GpuDevice::new(i, m))
            .collect();
        let last_power = compute_power(&power_spec, 0.0, 0.0, &vec![0.0; power_spec.gpus.len()]);
        SimNode {
            spec,
            power_spec,
            rapl,
            ipmi,
            gpus,
            tasks: BTreeMap::new(),
            proc_stat: ProcStat::default(),
            last_power,
            last_step_ms: 0,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Node spec.
    pub fn spec(&self) -> &NodeSpec {
        &self.spec
    }

    /// Hostname.
    pub fn hostname(&self) -> &str {
        &self.spec.hostname
    }

    /// Total cores.
    pub fn total_cores(&self) -> usize {
        self.power_spec.total_cores()
    }

    /// Installed memory.
    pub fn total_memory(&self) -> u64 {
        self.spec.profile.memory_bytes()
    }

    /// GPU count.
    pub fn gpu_count(&self) -> usize {
        self.gpus.len()
    }

    /// Free cores right now.
    pub fn free_cores(&self) -> usize {
        self.total_cores() - self.tasks.values().map(|t| t.spec.cores).sum::<usize>()
    }

    /// Free memory right now.
    pub fn free_memory(&self) -> u64 {
        self.total_memory()
            - self
                .tasks
                .values()
                .map(|t| t.spec.memory_bytes)
                .sum::<u64>()
    }

    /// Free GPU ordinals right now.
    pub fn free_gpus(&self) -> Vec<usize> {
        self.gpus
            .iter()
            .filter(|g| g.bound_job.is_none())
            .map(|g| g.ordinal)
            .collect()
    }

    /// Running task ids.
    pub fn task_ids(&self) -> Vec<u64> {
        self.tasks.keys().copied().collect()
    }

    /// GPU ordinals bound to a task — the map CEEMS must record while the
    /// job is alive (§II.A.d).
    pub fn task_gpu_ordinals(&self, task_id: u64) -> Option<Vec<usize>> {
        self.tasks.get(&task_id).map(|t| t.gpu_ordinals.clone())
    }

    /// Perf counters of a task (simulated Linux perf — the paper's
    /// future-work performance metrics).
    pub fn task_perf(&self, task_id: u64) -> Option<PerfCounters> {
        self.tasks.get(&task_id).map(|t| t.perf)
    }

    /// Cumulative `(tx_bytes, rx_bytes)` of a task (the eBPF-sourced
    /// network stats of the paper's future-work list).
    pub fn task_network(&self, task_id: u64) -> Option<(u64, u64)> {
        self.tasks
            .get(&task_id)
            .map(|t| (t.net_tx_bytes, t.net_rx_bytes))
    }

    /// Places a task, binding GPUs in ordinal order; creates its cgroup.
    pub fn add_task(&mut self, spec: TaskSpec, now_ms: i64) -> Result<(), PlacementError> {
        if self.tasks.contains_key(&spec.id) {
            return Err(PlacementError::Duplicate);
        }
        if spec.cores > self.free_cores() {
            return Err(PlacementError::Cores);
        }
        if spec.memory_bytes > self.free_memory() {
            return Err(PlacementError::Memory);
        }
        let free = self.free_gpus();
        if spec.gpus > free.len() {
            return Err(PlacementError::Gpus);
        }
        let gpu_ordinals: Vec<usize> = free.into_iter().take(spec.gpus).collect();
        for &o in &gpu_ordinals {
            self.gpus[o].bound_job = Some(spec.id);
        }
        let pid = 10_000 + (spec.id % 50_000) as u32;
        let cgroup = CgroupStats::new(spec.memory_bytes, pid);
        let perf_profile = PerfProfile::for_kind(spec.workload.kind());
        self.tasks.insert(
            spec.id,
            RunningTask {
                spec,
                cgroup,
                gpu_ordinals,
                started_ms: now_ms,
                perf: PerfCounters::default(),
                perf_profile,
                net_tx_bytes: 0,
                net_rx_bytes: 0,
            },
        );
        Ok(())
    }

    /// Removes a task (job completion), unbinding GPUs and destroying its
    /// cgroup. Returns its final accounting.
    pub fn remove_task(&mut self, task_id: u64) -> Option<CgroupStats> {
        let t = self.tasks.remove(&task_id)?;
        for &o in &t.gpu_ordinals {
            self.gpus[o].bound_job = None;
        }
        Some(t.cgroup)
    }

    /// Advances the node by `dt_s` seconds of simulated time ending at
    /// `now_ms`. Updates cgroups, RAPL counters, GPU devices and `/proc`.
    pub fn step(&mut self, now_ms: i64, dt_s: f64) {
        let mut total_busy_cores = 0.0;
        let mut total_mem_bytes: u64 = 0;
        let mut gpu_utils = vec![0.0f64; self.gpus.len()];
        let mut gpu_mem = vec![0.0f64; self.gpus.len()];

        for t in self.tasks.values_mut() {
            let elapsed_s = ((now_ms - t.started_ms) as f64 / 1000.0).max(0.0);
            let usage = t.spec.workload.sample(elapsed_s, &mut self.rng);
            let busy_cores = usage.cpu * t.spec.cores as f64;
            let mem_bytes = (usage.mem * t.spec.memory_bytes as f64) as u64;
            t.cgroup.advance(
                dt_s,
                busy_cores,
                mem_bytes,
                usage.io_read_bps,
                usage.io_write_bps,
            );
            t.perf.advance(&t.perf_profile, &usage, t.spec.cores, dt_s);
            t.net_tx_bytes += (usage.net_tx_bps * dt_s) as u64;
            t.net_rx_bytes += (usage.net_rx_bps * dt_s) as u64;
            total_busy_cores += busy_cores;
            total_mem_bytes += t.cgroup.memory_current;
            for &o in &t.gpu_ordinals {
                gpu_utils[o] = usage.gpu;
                gpu_mem[o] = usage.gpu_mem;
            }
        }

        // System overhead: the OS itself burns a little CPU.
        let overhead_cores = 0.2 + self.rng.gen_range(0.0..0.1);
        let node_busy = total_busy_cores + overhead_cores;
        let cpu_util = (node_busy / self.total_cores() as f64).min(1.0);
        let mem_activity = (total_mem_bytes as f64 / self.total_memory() as f64
            + 0.3 * cpu_util)
            .min(1.0);

        let power = compute_power(&self.power_spec, cpu_util, mem_activity, &gpu_utils);

        self.rapl
            .accumulate(&power.cpu_sockets_w, power.dram_w, dt_s);
        for (i, g) in self.gpus.iter_mut().enumerate() {
            let w = power.gpus_w[i];
            g.update(gpu_utils[i], gpu_mem[i], w, dt_s);
        }

        // /proc/stat jiffies at USER_HZ = 100.
        let busy_jiffies = (node_busy * dt_s * 100.0) as u64;
        self.proc_stat.user += busy_jiffies * 92 / 100;
        self.proc_stat.system += busy_jiffies - busy_jiffies * 92 / 100;
        let idle_cores = (self.total_cores() as f64 - node_busy).max(0.0);
        self.proc_stat.idle += (idle_cores * dt_s * 100.0) as u64;

        self.last_power = power;
        self.last_step_ms = now_ms;
    }

    /// Ground-truth component power from the last step (tests and the
    /// attribution experiments compare against this).
    pub fn ground_truth_power(&self) -> &ComponentPower {
        &self.last_power
    }

    /// An IPMI-DCMI power reading at `now_ms` (cached per BMC refresh rate).
    pub fn ipmi_power_reading(&mut self, now_ms: i64) -> u64 {
        let truth = self.last_power.clone();
        self.ipmi.power_reading(now_ms, &truth, &mut self.rng)
    }

    /// The GPU devices (DCGM view).
    pub fn gpus(&self) -> &[GpuDevice] {
        &self.gpus
    }

    /// Total memory currently used on the node (tasks + a base OS share).
    pub fn memory_used(&self) -> u64 {
        let task_mem: u64 = self.tasks.values().map(|t| t.cgroup.memory_current).sum();
        task_mem + (2 << 30)
    }
}

impl PseudoFs for SimNode {
    fn read_file(&self, path: &str) -> Option<String> {
        // /proc/stat
        if path == "/proc/stat" {
            let p = &self.proc_stat;
            return Some(format!(
                "cpu  {} 0 {} {} 0 0 0 0 0 0\n",
                p.user, p.system, p.idle
            ));
        }
        // /proc/meminfo (kB units like the kernel).
        if path == "/proc/meminfo" {
            let total_kb = self.total_memory() / 1024;
            let used_kb = self.memory_used() / 1024;
            let free_kb = total_kb.saturating_sub(used_kb);
            return Some(format!(
                "MemTotal:       {total_kb} kB\nMemFree:        {free_kb} kB\nMemAvailable:   {free_kb} kB\n"
            ));
        }
        // Powercap tree.
        if let Some(rest) = path.strip_prefix("/sys/class/powercap/") {
            return self.rapl.read(rest);
        }
        // Cgroup tree.
        let (dir, file) = cgroup_relative(path)?.split_once('/')?;
        let task = self.tasks.get(&crate::cgroup::parse_job_dir(dir)?)?;
        task.cgroup.read(file)
    }

    fn list_dir(&self, path: &str) -> Option<Vec<String>> {
        if path == SLURM_CGROUP_ROOT {
            return Some(
                self.tasks
                    .keys()
                    .map(|id| format!("job_{id}"))
                    .collect(),
            );
        }
        if path == "/sys/class/powercap" {
            let mut dirs: Vec<String> = self.rapl.zones().collect();
            dirs.sort();
            return Some(dirs);
        }
        let job_id = crate::cgroup::parse_job_dir(cgroup_relative(path)?)?;
        self.tasks.get(&job_id)?;
        Some(CgroupStats::FILES.iter().map(|f| f.to_string()).collect())
    }
}

/// The part of `path` below the SLURM cgroup root.
fn cgroup_relative(path: &str) -> Option<&str> {
    path.strip_prefix(SLURM_CGROUP_ROOT)?.strip_prefix('/')
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cgroup::job_cgroup_dir;

    fn gpu_node() -> SimNode {
        SimNode::new(
            NodeSpec {
                hostname: "jz-a100-01".into(),
                profile: HardwareProfile::Gpu {
                    model: GpuModel::A100,
                    count: 4,
                    coverage: IpmiCoverage::IncludesGpus,
                },
            },
            42,
        )
    }

    fn cpu_task(id: u64, cores: usize) -> TaskSpec {
        TaskSpec {
            id,
            cores,
            memory_bytes: 8 << 30,
            gpus: 0,
            workload: WorkloadProfile::CpuBound { intensity: 0.9 },
        }
    }

    #[test]
    fn placement_respects_capacity() {
        let mut n = gpu_node();
        assert_eq!(n.total_cores(), 40);
        n.add_task(cpu_task(1, 30), 0).unwrap();
        assert_eq!(n.add_task(cpu_task(1, 2), 0), Err(PlacementError::Duplicate));
        assert_eq!(n.add_task(cpu_task(2, 20), 0), Err(PlacementError::Cores));
        n.add_task(cpu_task(3, 10), 0).unwrap();
        assert_eq!(n.free_cores(), 0);

        let mut big_mem = cpu_task(4, 0);
        big_mem.cores = 0;
        big_mem.memory_bytes = 1 << 50;
        assert_eq!(n.add_task(big_mem, 0), Err(PlacementError::Memory));
    }

    #[test]
    fn gpu_binding_and_release() {
        let mut n = gpu_node();
        let t = TaskSpec {
            id: 9,
            cores: 8,
            memory_bytes: 64 << 30,
            gpus: 3,
            workload: WorkloadProfile::GpuTraining {
                intensity: 0.9,
                period_s: 600.0,
            },
        };
        n.add_task(t, 0).unwrap();
        assert_eq!(n.task_gpu_ordinals(9).unwrap(), vec![0, 1, 2]);
        assert_eq!(n.free_gpus(), vec![3]);
        assert_eq!(
            n.add_task(
                TaskSpec {
                    id: 10,
                    cores: 1,
                    memory_bytes: 1 << 30,
                    gpus: 2,
                    workload: WorkloadProfile::Idle,
                },
                0
            ),
            Err(PlacementError::Gpus)
        );
        let final_stats = n.remove_task(9).unwrap();
        assert_eq!(final_stats.cpu_total_usec(), 0); // never stepped
        assert_eq!(n.free_gpus(), vec![0, 1, 2, 3]);
        assert!(n.remove_task(9).is_none());
    }

    #[test]
    fn step_accumulates_everything() {
        let mut n = gpu_node();
        n.add_task(
            TaskSpec {
                id: 5,
                cores: 16,
                memory_bytes: 100 << 30,
                gpus: 4,
                workload: WorkloadProfile::GpuTraining {
                    intensity: 0.9,
                    period_s: 600.0,
                },
            },
            0,
        )
        .unwrap();
        for i in 1..=60 {
            n.step(i * 1000, 1.0);
        }
        // Cgroup accounting advanced.
        let cg = n.read_file(&format!("{}/job_5/cpu.stat", SLURM_CGROUP_ROOT)).unwrap();
        let usage: u64 = cg
            .lines()
            .next()
            .unwrap()
            .split_whitespace()
            .nth(1)
            .unwrap()
            .parse()
            .unwrap();
        assert!(usage > 0);
        // RAPL accumulated energy.
        assert!(n.rapl.package_energy_uj() > 0);
        // GPUs show utilisation and energy.
        assert!(n.gpus()[0].util > 0.5);
        assert!(n.gpus()[0].energy_j > 60.0 * 100.0);
        // Ground truth wall power is plausible for a loaded 4xA100 node.
        let wall = n.ground_truth_power().wall_w();
        assert!(wall > 1200.0 && wall < 3000.0, "wall={wall}");
        // IPMI reads near wall power.
        let ipmi = n.ipmi_power_reading(60_000) as f64;
        assert!((ipmi - wall).abs() < wall * 0.05, "ipmi={ipmi} wall={wall}");
    }

    #[test]
    fn pseudofs_layout() {
        let mut n = gpu_node();
        n.add_task(cpu_task(7, 4), 0).unwrap();
        n.step(1000, 1.0);

        assert_eq!(
            n.list_dir(SLURM_CGROUP_ROOT).unwrap(),
            vec!["job_7".to_string()]
        );
        let files = n
            .list_dir(&format!("{}/job_7", SLURM_CGROUP_ROOT))
            .unwrap();
        assert!(files.contains(&"cpu.stat".to_string()));
        assert!(files.contains(&"memory.current".to_string()));

        // Powercap: Intel-based GPU node has package + dram.
        let zones = n.list_dir("/sys/class/powercap").unwrap();
        assert!(zones.contains(&"intel-rapl:0".to_string()));
        assert!(zones.contains(&"intel-rapl:0:0".to_string()));
        assert!(n
            .read_u64("/sys/class/powercap/intel-rapl:0/energy_uj")
            .unwrap()
            > 0);

        // /proc files parse.
        assert!(n.read_file("/proc/stat").unwrap().starts_with("cpu  "));
        assert!(n.read_file("/proc/meminfo").unwrap().contains("MemTotal"));

        // Missing paths.
        assert!(n.read_file("/sys/fs/cgroup/system.slice/slurmstepd.scope/job_99/cpu.stat").is_none());
        assert!(n.read_file("/bogus").is_none());
    }

    #[test]
    fn a_single_file_read_is_the_entry_render_lists() {
        let mut n = gpu_node();
        n.add_task(cpu_task(7, 4), 0).unwrap();
        n.add_task(cpu_task(12, 2), 0).unwrap();
        n.step(1000, 1.0);

        let powercap = n.rapl.render();
        assert_eq!(powercap.len(), 4 * 3); // two packages, two DRAM zones
        for (path, content) in &powercap {
            let full = format!("/sys/class/powercap/{path}");
            assert_eq!(n.read_file(&full).as_ref(), Some(content), "{full}");
            let zone = path.split('/').next().unwrap().to_string();
            assert!(n.list_dir("/sys/class/powercap").unwrap().contains(&zone));
        }
        for (id, task) in &n.tasks {
            let dir = job_cgroup_dir(*id);
            let files = task.cgroup.render();
            let names: Vec<String> = files.iter().map(|(name, _)| name.clone()).collect();
            assert_eq!(n.list_dir(&dir).unwrap(), names);
            for (name, content) in &files {
                let full = format!("{dir}/{name}");
                assert_eq!(n.read_file(&full).as_ref(), Some(content), "{full}");
            }
        }

        // Anything the trees do not list is absent, however close.
        for path in [
            "/sys/class/powercap/intel-rapl:0/power_uw",
            "/sys/class/powercap/intel-rapl:0/name/",
            "/sys/class/powercap/intel-rapl:2/name",
            "/sys/class/powercap/intel-rapl:0:1/name",
            "/sys/class/powercap/intel-rapl:00/name",
            "/sys/class/powercap/intel-rapl:+1/name",
            "/sys/class/powercap/intel-rapl:/name",
            "/sys/class/powercap/intel-rapl:0",
            "/sys/class/powercap/name",
            "/sys/fs/cgroup/system.slice/slurmstepd.scope/job_7/cpu.pressure",
            "/sys/fs/cgroup/system.slice/slurmstepd.scope/job_7/",
            "/sys/fs/cgroup/system.slice/slurmstepd.scope/job_7",
            "/sys/fs/cgroup/system.slice/slurmstepd.scope/job_8/cpu.stat",
            "/sys/fs/cgroup/system.slice/slurmstepd.scopejob_7/cpu.stat",
            "/sys/fs/cgroup/system.slice/job_7/cpu.stat",
        ] {
            assert_eq!(n.read_file(path), None, "{path}");
        }
        assert_eq!(n.list_dir(&job_cgroup_dir(8)), None);
        assert_eq!(n.list_dir("/sys/class/powercap/intel-rapl:0"), None);
    }

    #[test]
    fn amd_node_has_no_dram_domain() {
        let n = SimNode::new(
            NodeSpec {
                hostname: "jz-amd-01".into(),
                profile: HardwareProfile::AmdCpu,
            },
            1,
        );
        let zones = n.list_dir("/sys/class/powercap").unwrap();
        assert!(zones.contains(&"intel-rapl:0".to_string()));
        assert!(!zones.iter().any(|z| z.contains(":0:0")));
    }

    #[test]
    fn proc_stat_tracks_totals() {
        let mut n = gpu_node();
        n.add_task(cpu_task(1, 40), 0).unwrap();
        for i in 1..=10 {
            n.step(i * 1000, 1.0);
        }
        let stat = n.read_file("/proc/stat").unwrap();
        let fields: Vec<u64> = stat
            .split_whitespace()
            .skip(1)
            .map(|f| f.parse().unwrap())
            .collect();
        let (user, system, idle) = (fields[0], fields[2], fields[3]);
        // 40 cores at ~0.9 utilisation for 10 s at 100 Hz ≈ 36000 busy jiffies.
        assert!(user + system > 30_000, "user+sys={}", user + system);
        assert!(idle < 10_000);
    }
}
