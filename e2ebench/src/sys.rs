//! Process-level measurements: CPU time, peak memory, disk bytes, and a
//! fixed spin loop that shows how busy the host is.

use std::path::Path;
use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User + system CPU seconds this process (all threads) has consumed.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit fields
    // on 64-bit Linux, which `Timespec` mirrors with `repr(C)`), and the
    // clock id is a constant the kernel defines; the call writes only `ts`.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn rss_peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Total size of the regular files under `dir`, recursively.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// What the calibration kernels take on a quiet host of the class this was
/// written on, ms: the reference speed timings are reported at.
const REFERENCE_COMPUTE_MS: f64 = 3.5;
/// See [`REFERENCE_COMPUTE_MS`].
const REFERENCE_REQUEST_MS: f64 = 4.5;

/// Host-speed calibration: fixed work of the pipeline's own diet, timed in
/// slices next to the measurements it corrects.
///
/// The *compute* kernel formats, allocates, hashes and splits text on one
/// thread (what rendering and parsing exposition does). The *request* kernel
/// does the same work in sixteen chunks handed back and forth between two
/// threads — about four wake-ups per millisecond, what a request through three
/// HTTP hops and a scoped query fan-out does. A metric is divided by the
/// factor of the kernel that resembles it, in the metric's own currency:
/// CPU time by the compute kernel's CPU time, compute-bound wall times (a
/// cycle, a fleet query, set-up, recovery) by its wall time, a dashboard's
/// latency by the request kernel's wall time.
///
/// Why: on the shared two-vCPU VM this was written on, identical runs differ
/// by up to 1.7× in CPU time for minutes at a stretch, and in bad hours the
/// hypervisor steals a quarter of the CPU, which stretches every wake-up far
/// more than it stretches compute. Over 24 same-seed runs in a noisy hour the
/// quartile spread of the stopwatch readings was 14–51 %; scaled, 4–18 %.
/// `README.md` § Noise has the kernel study and the A/A table.
#[derive(Clone, Debug, Default)]
pub struct Calibration {
    compute_wall_ms: Vec<f64>,
    compute_cpu_ms: Vec<f64>,
    request_wall_ms: Vec<f64>,
}

impl Calibration {
    /// Times `n` more slices (each kernel once per slice). Nothing else may
    /// be running in the process.
    pub fn sample(&mut self, n: usize) {
        for _ in 0..n {
            let (wall, cpu) = (Instant::now(), process_cpu_s());
            std::hint::black_box(
                (0..CALIBRATION_CHUNKS)
                    .map(calibration_chunk)
                    .sum::<usize>(),
            );
            self.compute_cpu_ms.push((process_cpu_s() - cpu) * 1e3);
            self.compute_wall_ms
                .push(wall.elapsed().as_secs_f64() * 1e3);
            let wall = Instant::now();
            request_kernel();
            self.request_wall_ms
                .push(wall.elapsed().as_secs_f64() * 1e3);
        }
    }

    /// The slices of several calibrations as one.
    pub fn merged<'a>(parts: impl IntoIterator<Item = &'a Calibration>) -> Calibration {
        let mut all = Calibration::default();
        for p in parts {
            all.compute_wall_ms.extend(&p.compute_wall_ms);
            all.compute_cpu_ms.extend(&p.compute_cpu_ms);
            all.request_wall_ms.extend(&p.request_wall_ms);
        }
        all
    }

    fn factor(slices_ms: &[f64], reference_ms: f64) -> f64 {
        if slices_ms.is_empty() {
            1.0
        } else {
            slices_ms.iter().sum::<f64>() / slices_ms.len() as f64 / reference_ms
        }
    }

    /// How much slower than the reference the host computed, on the wall
    /// clock: divide a duration by this (multiply a rate).
    pub fn compute_factor(&self) -> f64 {
        Self::factor(&self.compute_wall_ms, REFERENCE_COMPUTE_MS)
    }

    /// The same in CPU time, which does not count time spent waiting.
    pub fn cpu_factor(&self) -> f64 {
        Self::factor(&self.compute_cpu_ms, REFERENCE_COMPUTE_MS)
    }

    /// The same for work that hops between threads.
    pub fn request_factor(&self) -> f64 {
        Self::factor(&self.request_wall_ms, REFERENCE_REQUEST_MS)
    }

    /// Mean wall ms of one slice (both kernels).
    pub fn mean_slice_ms(&self) -> f64 {
        (self.compute_wall_ms.iter().sum::<f64>() + self.request_wall_ms.iter().sum::<f64>())
            / self.compute_wall_ms.len().max(1) as f64
    }

    /// CPU seconds the slices consumed: the compute kernel's measured CPU,
    /// and as much again for the request kernel, which does the same chunks.
    pub fn cpu_spent_s(&self) -> f64 {
        2.0 * self.compute_cpu_ms.iter().sum::<f64>() / 1e3
    }
}

/// Chunks a kernel's work is cut into; the request kernel hands each to the
/// other thread.
const CALIBRATION_CHUNKS: u64 = 16;

/// One chunk: render exposition-like lines, hash them into a map, join them
/// and split the text again.
fn calibration_chunk(chunk: u64) -> usize {
    let mut map = std::collections::HashMap::new();
    let mut lines = Vec::new();
    for i in chunk * 500..(chunk + 1) * 500 {
        let line = format!(
            "ceems_metric_{}{{uuid=\"slurm-{}\",instance=\"jz-{}\"}} {}",
            i % 37,
            i,
            i % 91,
            i as f64 * 1.5
        );
        map.insert(line.clone(), i);
        lines.push(line);
    }
    let text = lines.join("\n");
    map.len() + text.lines().map(|l| l.split(' ').count()).sum::<usize>()
}

/// The chunks, alternating between this thread and a helper it spawns and
/// joins.
fn request_kernel() {
    use std::sync::mpsc::channel;
    let (to_helper, helper_rx) = channel::<u64>();
    let (to_main, main_rx) = channel::<usize>();
    std::thread::scope(|s| {
        s.spawn(move || {
            for chunk in helper_rx {
                if to_main.send(calibration_chunk(chunk)).is_err() {
                    break;
                }
            }
        });
        let mut done = 0;
        for chunk in (0..CALIBRATION_CHUNKS).step_by(2) {
            done += calibration_chunk(chunk);
            to_helper
                .send(chunk + 1)
                .expect("helper runs until the channel closes");
            done += main_rx.recv().expect("helper answers every chunk");
        }
        drop(to_helper);
        std::hint::black_box(done);
    });
}

/// The checked-out commit, when the benchmark runs inside a git work tree.
pub fn git_sha() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let sha = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}")).unwrap_or_default(),
        None => head.to_string(),
    };
    let sha = sha.trim();
    if sha.is_empty() {
        "unknown".to_string()
    } else {
        sha.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work_and_rss_is_read() {
        let before = process_cpu_s();
        let mut cal = Calibration::default();
        assert_eq!(
            (cal.compute_factor(), cal.cpu_factor(), cal.request_factor()),
            (1.0, 1.0, 1.0)
        );
        cal.sample(2);
        assert!(cal.mean_slice_ms() > 0.0 && cal.cpu_spent_s() > 0.0);
        assert!(cal.compute_factor() > 0.0 && cal.cpu_factor() > 0.0);
        assert!(cal.request_factor() > 0.0);
        assert!(process_cpu_s() > before);
        assert!(rss_peak_mb() > 1.0);
    }
}
