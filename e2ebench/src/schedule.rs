//! Workload definitions and the seeded operation schedule.
//!
//! A run measures a fixed list of operations, not a fixed duration: the
//! same `(workload, seed, seconds)` always yields the same list, so sample,
//! series and operation counts repeat exactly and timings compare equal work.

/// One benchmark workload: how many of each operation the measured window
/// holds at the reference run length ([`REFERENCE_SECONDS`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WorkloadSpec {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// `stack.advance(15 s)` calls.
    pub cycles: usize,
    /// Five-panel dashboard renders.
    pub dashboards: usize,
    /// Fleet-wide admin queries.
    pub fleet_queries: usize,
    /// Ingest by push over the stream bus instead of scraping.
    pub push: bool,
    /// Reads run on their own thread, concurrently with ingest.
    pub concurrent: bool,
}

impl WorkloadSpec {
    /// Whether a `query_live` subscriber is attached; freshness is then
    /// probed through its SSE deltas instead of by polling.
    pub fn live(&self) -> bool {
        self.push || self.concurrent
    }
}

/// `--seconds` value the operation counts below are stated for. Other values
/// scale the counts in proportion (whole simulated minutes, never below one).
pub const REFERENCE_SECONDS: u64 = 10;

/// The four workloads. Why each exists is recorded in `BENCHMARK.json` and
/// the README; the counts are sized so the measured window lasts about
/// [`REFERENCE_SECONDS`] on a two-core host.
pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: "ingest_pull",
        cycles: 48,
        dashboards: 200,
        fleet_queries: 24,
        push: false,
        concurrent: false,
    },
    WorkloadSpec {
        name: "ingest_push",
        cycles: 48,
        dashboards: 200,
        fleet_queries: 24,
        push: true,
        concurrent: false,
    },
    WorkloadSpec {
        name: "dashboard_read",
        cycles: 16,
        dashboards: 800,
        fleet_queries: 36,
        push: false,
        concurrent: false,
    },
    WorkloadSpec {
        name: "mixed_live",
        cycles: 32,
        dashboards: 480,
        fleet_queries: 24,
        push: false,
        concurrent: true,
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<WorkloadSpec> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// Cycles per simulated minute at the 15 s scrape interval.
pub const CYCLES_PER_MINUTE: usize = 4;

/// Zipf exponent of dashboard popularity.
const ZIPF_S: f64 = 1.1;

/// Ranks the Zipf draw covers; a rank maps onto the jobs running at window
/// start, so more ranks than jobs folds the tail back over the head.
const ZIPF_RANKS: usize = 512;

/// One read operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReadOp {
    /// Render the five Fig. 2c panels for the job at this popularity rank.
    Dashboard {
        /// Zipf rank, 0 = most popular.
        rank: usize,
    },
    /// One fleet-wide admin query; `which` indexes the round-robin list.
    Fleet {
        /// Index into the fleet query list.
        which: usize,
    },
}

/// SplitMix64: a fixed, dependency-free generator so a seed means the same
/// schedule on every toolchain.
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// Seeds the generator.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The measured window's operations, in order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Schedule {
    /// Ingest cycles in the window.
    pub cycles: usize,
    /// Reads of the measured window, in issue order.
    pub reads: Vec<ReadOp>,
    /// Unmeasured reads issued at the end of set-up.
    pub warm_reads: Vec<ReadOp>,
}

impl Schedule {
    /// Builds the schedule for a workload. `cycles`, `dashboards` and
    /// `fleet_queries` are the already-scaled counts.
    pub fn build(
        seed: u64,
        cycles: usize,
        dashboards: usize,
        fleet_queries: usize,
        warm_reads: usize,
    ) -> Schedule {
        let mut rng = SplitMix64::new(seed ^ 0x5ced_0001);
        let cdf = zipf_cdf();
        let mut draw = move || {
            let u = rng.next_f64();
            ReadOp::Dashboard {
                rank: cdf.partition_point(|c| *c < u).min(ZIPF_RANKS - 1),
            }
        };
        // Fleet queries are spread evenly through the dashboards so every
        // part of the window sees the same mix.
        let total = dashboards + fleet_queries;
        let mut reads = Vec::with_capacity(total);
        let mut fleet_done = 0;
        for i in 0..total {
            let fleet_due = (i + 1) * fleet_queries / total;
            if fleet_due > fleet_done {
                reads.push(ReadOp::Fleet { which: fleet_done });
                fleet_done += 1;
            } else {
                reads.push(draw());
            }
        }
        let warm_reads = (0..warm_reads).map(|_| draw()).collect();
        Schedule {
            cycles,
            reads,
            warm_reads,
        }
    }

    /// The reads issued after cycle `i` (0-based): an even share of the list,
    /// so reads see a live, growing head.
    pub fn reads_after_cycle(&self, i: usize) -> &[ReadOp] {
        let n = self.reads.len();
        &self.reads[i * n / self.cycles..(i + 1) * n / self.cycles]
    }
}

fn zipf_cdf() -> Vec<f64> {
    let weights: Vec<f64> = (1..=ZIPF_RANKS)
        .map(|r| 1.0 / (r as f64).powf(ZIPF_S))
        .collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    weights
        .iter()
        .map(|w| {
            acc += w / total;
            acc
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_ops_different_seed_different_ops() {
        let a = Schedule::build(42, 48, 200, 24, 50);
        let b = Schedule::build(42, 48, 200, 24, 50);
        let c = Schedule::build(1337, 48, 200, 24, 50);
        assert_eq!(a, b);
        assert_ne!(a.reads, c.reads);
        assert_ne!(a.warm_reads, c.warm_reads);
    }

    #[test]
    fn counts_are_exact_and_every_read_is_issued_once() {
        for w in WORKLOADS {
            let s = Schedule::build(7, w.cycles, w.dashboards, w.fleet_queries, 50);
            let fleet = s
                .reads
                .iter()
                .filter(|op| matches!(op, ReadOp::Fleet { .. }))
                .count();
            assert_eq!(fleet, w.fleet_queries, "{}", w.name);
            assert_eq!(s.reads.len(), w.dashboards + w.fleet_queries);
            assert_eq!(s.warm_reads.len(), 50);
            let issued: usize = (0..s.cycles).map(|i| s.reads_after_cycle(i).len()).sum();
            assert_eq!(issued, s.reads.len());
        }
    }

    #[test]
    fn zipf_head_is_hot() {
        let s = Schedule::build(3, 16, 4000, 0, 0);
        let head = s
            .reads
            .iter()
            .filter(|op| matches!(op, ReadOp::Dashboard { rank } if *rank < 10))
            .count();
        // Zipf(1.1) over 512 ranks puts ~45 % of draws on the first ten.
        assert!((1400..2200).contains(&head), "head draws {head}");
    }

    #[test]
    fn workload_lookup() {
        assert_eq!(workload("mixed_live").map(|w| w.cycles), Some(32));
        assert!(workload("nope").is_none());
    }
}
