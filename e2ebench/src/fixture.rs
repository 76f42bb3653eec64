//! The Jean-Zay-shaped fixture: stack configuration, the production read
//! chain over real HTTP, and the read operations sent through it.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use ceems_apiserver::updater::{verify_ownership_in_db, Updater};
use ceems_core::config::CeemsConfig;
use ceems_http::{Client, HttpServer, Method, Request, Response, Router, Status};
use ceems_lb::acl::Authorizer;
use ceems_lb::proxy::LbConfig;
use ceems_lb::{Backend, BackendPool, CeemsLb, Strategy};
use ceems_obs::TraceSink;
use ceems_qfe::{HttpDownstream, QfeConfig, QueryFrontend};
use ceems_simnode::WorkloadProfile;
use ceems_simnode::{ClusterSpec, SimClock};
use ceems_slurm::{JobRequest, JobState, Scheduler};
use ceems_tsdb::httpapi::{api_router_with, ApiOptions};
use ceems_tsdb::promql::{parse_expr, range_query};
use ceems_tsdb::Tsdb;

use crate::schedule::{ReadOp, SplitMix64};

/// How large a run is. Operation counts come from the workload; this fixes
/// everything around them.
#[derive(Clone, Copy, Debug)]
pub struct Sizing {
    /// `ClusterSpec::jean_zay()` is divided by this.
    pub fleet_div: usize,
    /// Simulated minutes of unmeasured warm-up after the build.
    pub warmup_minutes: usize,
    /// Jobs submitted before every cycle, warm-up included.
    pub jobs_per_cycle: usize,
    /// Unmeasured dashboard renders at the end of set-up.
    pub warm_reads: usize,
    /// Times set-up (build + warm-up) is repeated for `setup_s`.
    pub setup_repeats: usize,
    /// Consecutive `Tsdb::open` calls for `recovery_s`.
    pub recovery_repeats: usize,
    /// Dashboards whose answers are compared with the unsplit, uncached one.
    pub identity_samples: usize,
    /// Dashboards / fleet queries replayed at each depth in a traced run.
    pub replay_dashboards: usize,
    /// Fleet queries replayed at each depth in a traced run.
    pub replay_fleet: usize,
    /// Leading cycles the traced run repeats on an untraced `CeemsStack`, to
    /// measure tracing overhead and check the traced driver against
    /// `CeemsStack::advance`.
    pub reference_cycles: usize,
}

impl Sizing {
    /// The measured configuration: an 87-node fleet (Jean-Zay ÷ 16). The
    /// driver makes 92 runs and two builds in 57 minutes on a host whose speed
    /// swings by 2×, which leaves ~15 s a run; the ÷ 4 fleet needs ~45 s.
    pub fn full() -> Sizing {
        Sizing {
            fleet_div: 16,
            warmup_minutes: 10,
            jobs_per_cycle: 3,
            warm_reads: 50,
            setup_repeats: 3,
            recovery_repeats: 5,
            identity_samples: 20,
            replay_dashboards: 100,
            replay_fleet: 6,
            reference_cycles: 16,
        }
    }

    /// Checks only: a 21-node fleet and a two-minute warm-up.
    pub fn smoke() -> Sizing {
        Sizing {
            fleet_div: 64,
            warmup_minutes: 2,
            jobs_per_cycle: 2,
            warm_reads: 5,
            setup_repeats: 1,
            recovery_repeats: 2,
            identity_samples: 5,
            replay_dashboards: 10,
            replay_fleet: 3,
            reference_cycles: 8,
        }
    }
}

/// Thread fan-out pinned for every run: `threads = query_threads`.
pub fn fanout() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// Handler workers of the TSDB and LB servers. The frontend derives its own
/// from its scheduler caps and ignores this.
pub const HTTP_WORKERS: usize = 2;

/// The operator account fleet queries are sent as.
pub const ADMIN: &str = "root";

/// The stack configuration every workload shares.
pub fn config(seed: u64, push: bool, dir: &Path, sizing: &Sizing) -> CeemsConfig {
    let jz = ClusterSpec::jean_zay();
    let d = sizing.fleet_div;
    let mut cfg = CeemsConfig {
        cluster: ClusterSpec {
            intel_nodes: jz.intel_nodes / d,
            amd_nodes: jz.amd_nodes / d,
            v100_nodes: jz.v100_nodes / d,
            a100_nodes: jz.a100_nodes / d,
            h100_nodes: jz.h100_nodes / d,
        },
        seed,
        // Jobs come from the benchmark's own seeded `JobMix`, a fixed number
        // per cycle: `ChurnGenerator`'s Poisson arrivals would make the job
        // count, and every cost that grows with it, differ by ~10 % from
        // seed to seed.
        churn: None,
        threads: fanout(),
        query_threads: fanout(),
        wal_dir: Some(dir.join("wal").to_string_lossy().into_owned()),
        admin_users: vec![ADMIN.to_string()],
        ..CeemsConfig::default()
    };
    cfg.http.reactor_threads = 1;
    // Every built-in alert pack armed; thresholds chosen so some alerts fire.
    cfg.alerting.enabled = true;
    cfg.alerting.energy_budget_watts = 1500.0;
    cfg.alerting.factor_max_age_s = 3600.0;
    cfg.alerting.node_power_max_watts = 4000.0;
    cfg.alerting.wal_lag_max_records = 1000.0;
    cfg.meta.enabled = true;
    cfg.stream.enabled = push;
    cfg
}

/// Seeded job submissions with `ChurnGenerator`'s mix of users, partitions,
/// shapes and workloads (`users 100, projects 20, gpu_fraction 0.6`), but
/// handed out in exact numbers instead of at Poisson arrival times.
pub struct JobMix {
    rng: SplitMix64,
    /// Partition name and weight (its node count), as `CeemsStack::build`
    /// names them.
    partitions: Vec<(&'static str, f64)>,
}

impl JobMix {
    /// A job source for the fleet in `cfg`.
    pub fn new(seed: u64, cfg: &CeemsConfig) -> JobMix {
        let c = &cfg.cluster;
        let partitions = [
            ("cpu-intel", c.intel_nodes),
            ("cpu-amd", c.amd_nodes),
            ("gpu-v100", c.v100_nodes),
            ("gpu-a100", c.a100_nodes),
            ("gpu-h100", c.h100_nodes),
        ]
        .into_iter()
        .filter(|(_, n)| *n > 0)
        .map(|(name, n)| (name, n as f64))
        .collect();
        JobMix {
            rng: SplitMix64::new(seed ^ 0x0c4u64),
            partitions,
        }
    }

    fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.rng.next_f64()
    }

    fn int(&mut self, lo: usize, hi_inclusive: usize) -> usize {
        lo + (self.rng.next_u64() % (hi_inclusive - lo + 1) as u64) as usize
    }

    /// The next submission.
    pub fn next_job(&mut self) -> JobRequest {
        let user_id = self.int(0, 99);
        let total_w: f64 = self.partitions.iter().map(|(_, w)| w).sum();
        let mut pick = self.uniform(0.0, total_w);
        let mut partition = self.partitions[0].0;
        for (name, w) in &self.partitions {
            if pick < *w {
                partition = name;
                break;
            }
            pick -= w;
        }
        // 70 % single-node small, 25 % medium, 5 % multi-node large.
        let shape = self.rng.next_f64();
        let (nodes, cores, mem_gb) = if shape < 0.70 {
            (1, self.int(1, 8), self.int(2, 16))
        } else if shape < 0.95 {
            (1, self.int(8, 32), self.int(16, 64))
        } else {
            (self.int(2, 4), self.int(16, 40), self.int(32, 128))
        };
        let gpus = if partition.starts_with("gpu") && self.rng.next_f64() < 0.6 {
            self.int(1, 4)
        } else {
            0
        };
        // Log-uniform 10 min .. 20 h.
        let walltime_s = self.uniform(600f64.ln(), 72_000f64.ln()).exp() as u64;
        let workload = match self.int(0, 9) {
            0..=3 => WorkloadProfile::CpuBound {
                intensity: self.uniform(0.7, 0.99),
            },
            4..=5 => WorkloadProfile::MemoryBound {
                resident: self.uniform(0.5, 0.95),
            },
            6..=7 if gpus > 0 => WorkloadProfile::GpuTraining {
                intensity: self.uniform(0.7, 0.98),
                period_s: self.uniform(120.0, 1200.0),
            },
            6..=8 => WorkloadProfile::Bursty {
                period_s: self.uniform(30.0, 600.0),
                duty: self.uniform(0.2, 0.8),
            },
            _ => WorkloadProfile::Idle,
        };
        JobRequest {
            user: format!("user{user_id:03}"),
            account: format!("proj{:02}", user_id % 20),
            partition: partition.to_string(),
            nodes,
            cores_per_node: cores,
            memory_per_node: (mem_gb as u64) << 30,
            gpus_per_node: gpus,
            walltime_s,
            workload,
        }
    }
}

/// A job dashboards can be rendered for.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Job {
    /// Unit identifier.
    pub uuid: String,
    /// Owner; dashboard queries are sent as this user.
    pub user: String,
}

/// Running jobs the API server already knows (so the LB can verify their
/// owner), oldest first. Taken once, at the end of set-up, so a Zipf rank
/// means the same job for the whole window.
pub fn viewable_jobs(scheduler: &Mutex<Scheduler>, updater: &Mutex<Updater>) -> Vec<Job> {
    let sched = scheduler.lock();
    let upd = updater.lock();
    let mut jobs: Vec<(u64, Job)> = sched
        .dbd()
        .all()
        .filter(|r| r.state == JobState::Running)
        .filter(|r| verify_ownership_in_db(upd.db(), &r.user, &r.uuid))
        .map(|r| {
            (
                r.id,
                Job {
                    uuid: r.uuid.clone(),
                    user: r.user.clone(),
                },
            )
        })
        .collect();
    jobs.sort_by_key(|(id, _)| *id);
    jobs.into_iter().map(|(_, j)| j).collect()
}

/// The Fig. 2c panel expressions (as `ceems_core::dashboards` and
/// `benches/qfe_cache.rs` state them).
pub fn panel_queries(uuid: &str) -> [String; 5] {
    [
        format!("sum(uuid:ceems_cpu_time:rate{{uuid=\"{uuid}\"}})"),
        format!("sum(ceems_compute_unit_memory_used_bytes{{uuid=\"{uuid}\"}}) / 1073741824"),
        format!("sum(uuid:ceems_power:watts{{uuid=\"{uuid}\"}})"),
        format!("sum(rate(ceems_compute_unit_perf_flops_total{{uuid=\"{uuid}\"}}[2m])) / 1e9"),
        format!("sum(rate(ceems_compute_unit_net_rx_bytes_total{{uuid=\"{uuid}\"}}[2m])) / 1e6"),
    ]
}

/// Fleet-wide operator queries, issued round-robin.
pub const FLEET_QUERIES: [&str; 3] = [
    "topk(10, sum by (uuid) (uuid:ceems_power:watts))",
    "sum by (nodegroup) (rate(ceems_rapl_package_joules_total[2m]))",
    "sum(uuid:ceems_power:watts)",
];

/// Counts `uuid:ceems_power:watts` points stamped in the last second: present
/// at `now` only once the rule tick of `now` is readable, which an instant
/// selector (five-minute lookback) could not tell.
pub const FRESHNESS_QUERY: &str = "sum(count_over_time(uuid:ceems_power:watts[1s]))";

/// Dashboard time range and resolution.
const RANGE_S: i64 = 20 * 60;
const STEP_S: i64 = 15;

/// One range query of a read operation.
#[derive(Clone, Debug)]
pub struct RangeQuery {
    /// PromQL expression.
    pub expr: String,
    /// Range start, seconds.
    pub start_s: i64,
    /// Range end, seconds.
    pub end_s: i64,
}

impl RangeQuery {
    /// The request path and query string.
    pub fn path(&self) -> String {
        format!(
            "/api/v1/query_range?query={}&start={}&end={}&step={STEP_S}",
            ceems_http::url::encode_component(&self.expr),
            self.start_s,
            self.end_s
        )
    }

    fn request(&self, user: &str) -> Request {
        Request::new(Method::Get, &self.path()).with_header("x-grafana-user", user)
    }
}

/// A read operation bound to a user and a time range.
#[derive(Clone, Debug)]
pub struct Read {
    /// `X-Grafana-User` the queries are sent as.
    pub user: String,
    /// The operation's queries, sent one after another.
    pub queries: Vec<RangeQuery>,
    /// Dashboard (five panels) or fleet query (one).
    pub dashboard: bool,
}

/// Binds a scheduled operation to the job list and the current time.
pub fn resolve(op: ReadOp, jobs: &[Job], now_s: i64) -> Read {
    let (start_s, end_s) = ((now_s - RANGE_S).max(0), now_s);
    let q = |expr: String| RangeQuery {
        expr,
        start_s,
        end_s,
    };
    match op {
        ReadOp::Dashboard { rank } => {
            let job = &jobs[rank % jobs.len()];
            Read {
                user: job.user.clone(),
                queries: panel_queries(&job.uuid).into_iter().map(q).collect(),
                dashboard: true,
            }
        }
        ReadOp::Fleet { which } => Read {
            user: ADMIN.to_string(),
            queries: vec![q(FLEET_QUERIES[which % FLEET_QUERIES.len()].to_string())],
            dashboard: false,
        },
    }
}

/// How deep into the read chain a replayed request enters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Depth {
    /// Client → LB over HTTP: the whole chain, as a user sees it.
    Http,
    /// `CeemsLb::handle` in-process (still LB → frontend → TSDB over HTTP).
    Lb,
    /// `QueryFrontend::handle` in-process (still frontend → TSDB over HTTP).
    Qfe,
    /// The TSDB's `api_router` in-process: URL parse, evaluation, JSON render.
    Api,
    /// `promql::range_query` alone: select, chunk decode, evaluation.
    Promql,
}

/// The production read chain over real HTTP:
/// `Client` → `CeemsLb` → `QueryFrontend` → TSDB `api_router`.
pub struct Chain {
    /// The query frontend (also serves `query_live`).
    pub fe: Arc<QueryFrontend>,
    /// Base URL of the served frontend.
    pub qfe_url: String,
    lb: Arc<CeemsLb>,
    /// A second, in-process instance of the TSDB router: the unsplit,
    /// uncached reference answers are read from it.
    api: Router,
    tsdb: Arc<Tsdb>,
    client: Client,
    lb_url: String,
    // Dropped after the handles above; each drop shuts its server down.
    _servers: Vec<HttpServer>,
}

impl Chain {
    /// Serves the three components on ephemeral ports and wires them up.
    pub fn build(
        cfg: &CeemsConfig,
        tsdb: Arc<Tsdb>,
        updater: Arc<Mutex<Updater>>,
        trace_sink: Arc<TraceSink>,
        api_options: impl Fn() -> ApiOptions,
        qfe_config: QfeConfig,
    ) -> Result<Chain, String> {
        let server_cfg = || cfg.http.server_config().with_workers(HTTP_WORKERS);
        let io = |e: std::io::Error| e.to_string();

        let tsdb_srv =
            HttpServer::serve(server_cfg(), api_router_with(tsdb.clone(), api_options()))
                .map_err(io)?;
        let fe = QueryFrontend::new(
            Arc::new(HttpDownstream::new(vec![tsdb_srv.base_url()]).with_client(cfg.http.client())),
            qfe_config,
        );
        let qfe_srv = fe.serve_with(server_cfg()).map_err(io)?;
        let lb = Arc::new(CeemsLb::new(
            BackendPool::new(
                vec![Backend::new("tsdb-0", tsdb_srv.base_url())],
                Strategy::round_robin(),
            ),
            Authorizer::DirectDb(updater),
            LbConfig {
                admin_users: cfg.admin_users.clone(),
                query_frontend: Some(qfe_srv.base_url()),
                trace_sink: Some(trace_sink),
            },
        ));
        let lb_srv = lb.serve_with(server_cfg()).map_err(io)?;
        Ok(Chain {
            fe,
            qfe_url: qfe_srv.base_url(),
            lb,
            api: api_router_with(tsdb.clone(), api_options()),
            tsdb,
            // One keep-alive connection: the load generator is one client.
            client: Client::new().with_pool_per_host(1),
            lb_url: lb_srv.base_url(),
            _servers: vec![lb_srv, qfe_srv, tsdb_srv],
        })
    }

    /// Sends one query at the given depth. `Ok` carries the response body.
    pub fn send(&self, q: &RangeQuery, user: &str, depth: Depth) -> Result<Vec<u8>, String> {
        let resp: Response = match depth {
            Depth::Http => self
                .client
                .clone()
                .with_header("X-Grafana-User", user)
                .get(&format!("{}{}", self.lb_url, q.path()))
                .map_err(|e| e.to_string())?,
            Depth::Lb => self.lb.handle(&q.request(user)),
            Depth::Qfe => self.fe.handle(&q.request(user)),
            Depth::Api => self.api.dispatch(q.request(user)),
            Depth::Promql => {
                let expr = parse_expr(&q.expr).map_err(|e| e.to_string())?;
                let series = range_query(
                    &*self.tsdb,
                    &expr,
                    q.start_s * 1000,
                    q.end_s * 1000,
                    STEP_S * 1000,
                )
                .map_err(|e| e.0)?;
                return Ok(std::hint::black_box(series).len().to_string().into_bytes());
            }
        };
        if resp.status == Status::OK {
            Ok(resp.body)
        } else {
            Err(format!("{} {}", resp.status.0, resp.body_string()))
        }
    }

    /// Runs one read at `depth`; returns its wall time and response bytes.
    pub fn read(&self, read: &Read, depth: Depth) -> Result<(Duration, usize), String> {
        let started = Instant::now();
        let mut bytes = 0;
        for q in &read.queries {
            bytes += self.send(q, &read.user, depth)?.len();
        }
        Ok((started.elapsed(), bytes))
    }
}

/// A `now` closure over the simulated clock, as the frontend and the TSDB
/// API take it.
pub fn now_fn(clock: &SimClock) -> Arc<dyn Fn() -> i64 + Send + Sync> {
    let clock = clock.clone();
    Arc::new(move || clock.now_ms())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_binds_rank_to_job_and_clips_the_range() {
        let jobs = vec![
            Job {
                uuid: "slurm-1".into(),
                user: "u1".into(),
            },
            Job {
                uuid: "slurm-2".into(),
                user: "u2".into(),
            },
        ];
        let r = resolve(ReadOp::Dashboard { rank: 3 }, &jobs, 600);
        assert_eq!(
            (r.user.as_str(), r.queries.len(), r.dashboard),
            ("u2", 5, true)
        );
        assert!(r.queries[2].expr.contains("slurm-2"));
        assert_eq!((r.queries[0].start_s, r.queries[0].end_s), (0, 600));
        let f = resolve(ReadOp::Fleet { which: 4 }, &jobs, 3000);
        assert_eq!((f.user.as_str(), f.queries.len()), (ADMIN, 1));
        assert_eq!(f.queries[0].expr, FLEET_QUERIES[1]);
        assert_eq!(f.queries[0].start_s, 1800);
        assert!(f.queries[0]
            .path()
            .starts_with("/api/v1/query_range?query=sum"));
    }
}
