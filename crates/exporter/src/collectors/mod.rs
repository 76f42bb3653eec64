//! Collector implementations.
//!
//! Every collector reads its numbers first (holding the node lock only for
//! that), then writes family by family into the [`Sink`]: exposition text
//! groups a family's samples together, while the node is read unit by unit.

use std::fmt::Write as _;

use ceems_metrics::model::MetricType;
use ceems_metrics::sink::Sink;

pub mod cgroup;
pub mod emissions;
pub mod gpu;
pub mod ipmi;
pub mod node;
pub mod perf;
pub mod rapl;
pub mod selfstats;

/// Metric name prefix shared by all CEEMS collectors.
pub const PREFIX: &str = "ceems";

/// `(name, help, type)` of a family.
type FamilyDesc = (&'static str, &'static str, MetricType);

/// Rewrites `path` — one buffer for a whole pass — to `root/dir/name`.
fn file_path<'a>(path: &'a mut String, root: &str, dir: &str, name: &str) -> &'a str {
    path.clear();
    let _ = write!(path, "{root}/{dir}/{name}");
    path
}

/// Writes `N` per-compute-unit families: `units` holds one `(uuid, values)`
/// row per unit, and column `i` of the values belongs to `families[i]`. A
/// `None` (the file was missing) leaves that unit out of that family.
fn write_unit_families<const N: usize>(
    out: &mut dyn Sink,
    families: &[FamilyDesc; N],
    units: &[(String, [Option<f64>; N])],
) {
    for (i, &(name, help, metric_type)) in families.iter().enumerate() {
        out.family(name, help, metric_type);
        for (uuid, values) in units {
            if let Some(v) = values[i] {
                out.sample("", &[("uuid", uuid)], v);
            }
        }
    }
}
