//! OpenStack resource-manager client — §IV's "extending CEEMS to
//! Openstack ... is a long-term objective", implemented against a
//! simulated Nova service.
//!
//! The point of the exercise is the paper's agnosticism claim: the API
//! server's unified schema must absorb VMs unchanged. A VM maps onto a
//! compute unit as `openstack-<uuid>` with its flavor's vCPU/RAM shape and
//! its project as the account; Nova states map onto the unified lifecycle
//! states the rest of the stack understands.

use std::sync::Arc;

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::rm::{ResourceManagerClient, UnitInfo};

/// A Nova flavor.
#[derive(Clone, Debug)]
pub struct Flavor {
    /// Flavor name (`m1.large`).
    pub name: String,
    /// vCPUs.
    pub vcpus: usize,
    /// RAM in bytes.
    pub ram_bytes: u64,
}

/// Nova VM states we simulate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VmState {
    /// Building (scheduler picked a host, image copying).
    Build,
    /// Running.
    Active,
    /// Stopped by the user (still allocated).
    Shutoff,
    /// Deleted.
    Deleted,
    /// Failed to build.
    Error,
}

impl VmState {
    /// Maps Nova states onto the unified lifecycle strings the CEEMS
    /// schema uses (this mapping *is* the abstraction layer).
    pub fn unified(self) -> &'static str {
        match self {
            VmState::Build => "PENDING",
            VmState::Active | VmState::Shutoff => "RUNNING",
            VmState::Deleted => "COMPLETED",
            VmState::Error => "FAILED",
        }
    }
}

#[derive(Clone, Debug)]
struct Vm {
    uuid: String,
    user: String,
    project: String,
    flavor: Flavor,
    state: VmState,
    created_ms: i64,
    launched_ms: Option<i64>,
    deleted_ms: Option<i64>,
    /// Drawn at creation: when this VM will be deleted.
    lifetime_ms: i64,
    updated_ms: i64,
}

/// A simulated Nova service: VMs are created on a Poisson-ish schedule and
/// deleted after their drawn lifetime. [`OpenStackSim::tick`] advances the
/// world; [`ResourceManagerClient`] is implemented over the inventory.
pub struct OpenStackSim {
    inner: Mutex<Inner>,
}

struct Inner {
    vms: Vec<Vm>,
    rng: StdRng,
    next_create_ms: i64,
    mean_creates_per_hour: f64,
    users: usize,
    projects: usize,
    serial: u64,
}

/// Standard flavors.
pub fn default_flavors() -> Vec<Flavor> {
    vec![
        Flavor {
            name: "m1.small".into(),
            vcpus: 2,
            ram_bytes: 4 << 30,
        },
        Flavor {
            name: "m1.large".into(),
            vcpus: 8,
            ram_bytes: 16 << 30,
        },
        Flavor {
            name: "r1.xlarge".into(),
            vcpus: 16,
            ram_bytes: 64 << 30,
        },
    ]
}

impl OpenStackSim {
    /// Creates the service.
    pub fn new(users: usize, projects: usize, mean_creates_per_hour: f64, seed: u64) -> Self {
        OpenStackSim {
            inner: Mutex::new(Inner {
                vms: Vec::new(),
                rng: StdRng::seed_from_u64(seed),
                next_create_ms: 0,
                mean_creates_per_hour,
                users,
                projects,
                serial: 0,
            }),
        }
    }

    /// Advances the world to `now_ms`: creates due VMs, transitions
    /// Build→Active/Error, retires expired ones.
    pub fn tick(&self, now_ms: i64) {
        let mut st = self.inner.lock();
        // Creations.
        while st.next_create_ms <= now_ms {
            let at = st.next_create_ms;
            let (users, projects) = (st.users, st.projects);
            let user_id = st.rng.gen_range(0..users);
            let project_id = user_id % projects;
            let flavors = default_flavors();
            let fi = st.rng.gen_range(0..flavors.len());
            let flavor = flavors[fi].clone();
            // VM lifetimes are long-tailed: 10 min .. ~1 week, log-uniform.
            let lifetime_ms =
                (st.rng.gen_range((600.0f64).ln()..(604_800.0f64).ln()).exp() * 1000.0) as i64;
            st.serial += 1;
            let uuid = format!("openstack-{:08x}", st.serial * 2654435761 % u32::MAX as u64);
            st.vms.push(Vm {
                uuid,
                user: format!("osuser{user_id:02}"),
                project: format!("osproj{project_id:02}"),
                flavor,
                state: VmState::Build,
                created_ms: at,
                launched_ms: None,
                deleted_ms: None,
                lifetime_ms,
                updated_ms: at,
            });
            let rate_per_ms = st.mean_creates_per_hour / 3.6e6;
            let u: f64 = st.rng.gen_range(1e-9..1.0);
            st.next_create_ms = at + ((-u.ln() / rate_per_ms) as i64).max(1);
        }
        // Transitions.
        for vm in st.vms.iter_mut() {
            match vm.state {
                VmState::Build if now_ms - vm.created_ms >= 30_000 => {
                    // 3% of builds fail; the rest launch after ~30 s.
                    vm.state = if vm.created_ms % 97 == 0 {
                        VmState::Error
                    } else {
                        VmState::Active
                    };
                    vm.launched_ms = Some(now_ms);
                    vm.updated_ms = now_ms;
                }
                VmState::Active => {
                    if let Some(launched) = vm.launched_ms {
                        if now_ms - launched >= vm.lifetime_ms {
                            vm.state = VmState::Deleted;
                            vm.deleted_ms = Some(now_ms);
                            vm.updated_ms = now_ms;
                        }
                    }
                }
                _ => {}
            }
        }
    }

    /// Number of VMs ever created.
    pub fn vm_count(&self) -> usize {
        self.inner.lock().vms.len()
    }

    /// Number of VMs currently ACTIVE.
    pub fn active_count(&self) -> usize {
        self.inner
            .lock()
            .vms
            .iter()
            .filter(|v| v.state == VmState::Active)
            .count()
    }
}

impl ResourceManagerClient for Arc<OpenStackSim> {
    fn name(&self) -> &'static str {
        "openstack"
    }

    fn units_since(&self, since_ms: i64) -> Vec<UnitInfo> {
        let st = self.inner.lock();
        st.vms
            .iter()
            .filter(|v| {
                // Same poll contract as SLURM: non-terminal always, terminal
                // by watermark.
                !matches!(v.state, VmState::Deleted | VmState::Error) || v.updated_ms >= since_ms
            })
            .map(|v| UnitInfo {
                uuid: v.uuid.clone(),
                resource_manager: "openstack".into(),
                user: v.user.clone(),
                project: v.project.clone(),
                partition: v.flavor.name.clone(),
                state: v.state.unified().into(),
                submitted_at_ms: v.created_ms,
                started_at_ms: v.launched_ms,
                ended_at_ms: v.deleted_ms,
                nnodes: 1,
                ncpus: v.flavor.vcpus,
                ngpus: 0,
                // Memory is carried via the flavor name; the unified schema
                // tracks cpu/gpu shapes numerically.
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{unit_cols, UNITS_TABLE};
    use crate::updater::{Updater, UpdaterConfig};
    use ceems_relstore::{Db, Query};
    use ceems_tsdb::Tsdb;

    #[test]
    fn vm_lifecycle() {
        let os = Arc::new(OpenStackSim::new(5, 2, 600.0, 42));
        os.tick(0);
        os.tick(3_600_000); // one hour
        assert!(os.vm_count() > 100, "created {}", os.vm_count());
        assert!(os.active_count() > 0);

        let units = os.units_since(0);
        assert_eq!(units.len(), os.vm_count());
        let u = &units[0];
        assert!(u.uuid.starts_with("openstack-"));
        assert_eq!(u.resource_manager, "openstack");
        assert!(u.partition.starts_with("m1.") || u.partition.starts_with("r1."));
        // Unified states only.
        for u in &units {
            assert!(
                ["PENDING", "RUNNING", "COMPLETED", "FAILED"].contains(&u.state.as_str()),
                "unexpected state {}",
                u.state
            );
        }
    }

    #[test]
    fn state_mapping() {
        assert_eq!(VmState::Build.unified(), "PENDING");
        assert_eq!(VmState::Active.unified(), "RUNNING");
        assert_eq!(VmState::Shutoff.unified(), "RUNNING");
        assert_eq!(VmState::Deleted.unified(), "COMPLETED");
        assert_eq!(VmState::Error.unified(), "FAILED");
    }

    #[test]
    fn updater_ingests_vms_through_unified_schema() {
        // The agnosticism claim end-to-end: the same updater code path that
        // ingests SLURM jobs ingests Nova VMs.
        let os = Arc::new(OpenStackSim::new(4, 2, 300.0, 7));
        os.tick(1_800_000);
        let dir = std::env::temp_dir().join(format!(
            "ceems-osm-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        let mut upd = Updater::new(
            Db::open(&dir).unwrap(),
            Arc::new(os.clone()),
            Arc::new(Tsdb::default()),
            None,
            UpdaterConfig::default(),
        )
        .unwrap();
        upd.poll(1_800_000).unwrap();

        let rows = upd.db().query(UNITS_TABLE, &Query::all()).unwrap();
        assert_eq!(rows.len(), os.vm_count());
        assert!(rows
            .iter()
            .all(|r| r[unit_cols::RESOURCE_MANAGER].as_text() == Some("openstack")));
        // Ownership verification works identically for VMs.
        let owner = rows[0][unit_cols::USER].as_text().unwrap().to_string();
        let uuid = rows[0][unit_cols::UUID].as_text().unwrap().to_string();
        assert!(upd.verify_ownership(&owner, &uuid));
        assert!(!upd.verify_ownership("stranger", &uuid));
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn poll_contract_matches_slurm_semantics() {
        let os = Arc::new(OpenStackSim::new(3, 1, 1200.0, 9));
        // Two hours in one-minute ticks: plenty of short-lived VMs retire.
        for m in 0..=120 {
            os.tick(m * 60_000);
        }
        let client = Arc::new(os.clone());
        let all = client.units_since(0);
        let deleted: Vec<_> = all.iter().filter(|u| u.state == "COMPLETED").collect();
        assert!(!deleted.is_empty(), "no VM retired in two hours");
        // A poll far past the last update drops terminal VMs but keeps
        // live ones.
        let later = client.units_since(i64::MAX / 2);
        assert!(later.len() < all.len());
        assert!(later.iter().all(|u| u.state == "RUNNING" || u.state == "PENDING"));
    }
}
