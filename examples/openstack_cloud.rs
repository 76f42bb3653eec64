//! Resource-manager agnosticism (§IV future work, implemented): the same
//! CEEMS API server ingesting SLURM jobs *and* OpenStack VMs side by side
//! through the unified compute-unit schema.
//!
//! ```sh
//! cargo run --release --example openstack_cloud
//! ```

use std::collections::BTreeMap;
use std::sync::Arc;

use ceems::apiserver::metrics_source::TsdbLocalSource;
use ceems::apiserver::openstack::OpenStackSim;
use ceems::apiserver::schema::{unit_cols, UNITS_TABLE};
use ceems::apiserver::updater::{Updater, UpdaterConfig};
use ceems::relstore::Db;
use ceems::tsdb::Tsdb;

fn main() {
    // A Nova cloud churning VMs for six simulated hours.
    let cloud = Arc::new(OpenStackSim::new(12, 4, 240.0, 2024));
    for minute in 0..(6 * 60) {
        cloud.tick(minute * 60_000);
    }
    println!(
        "simulated cloud: {} VMs created, {} currently ACTIVE",
        cloud.vm_count(),
        cloud.active_count()
    );

    // The standard CEEMS updater, pointed at OpenStack instead of SLURM —
    // no other change.
    let dir = std::env::temp_dir().join(format!("ceems-oscloud-{}", std::process::id()));
    let mut updater = Updater::new(
        Db::open(&dir).unwrap(),
        Arc::new(cloud.clone()),
        Arc::new(TsdbLocalSource::new(Arc::new(Tsdb::default()))),
        None,
        UpdaterConfig::default(),
    )
    .unwrap();
    updater.poll(6 * 3_600_000).unwrap();

    let db = updater.db();
    println!(
        "API server ingested {} compute units (resource_manager=openstack)\n",
        db.table(UNITS_TABLE).unwrap().len()
    );

    // Per-project inventory from the same units table SLURM jobs land in.
    let mut inventory: BTreeMap<(&str, &str), (usize, f64)> = BTreeMap::new();
    for r in db.table(UNITS_TABLE).unwrap().scan() {
        let key = (
            r[unit_cols::PROJECT].as_text().unwrap_or(""),
            r[unit_cols::STATE].as_text().unwrap_or(""),
        );
        let e = inventory.entry(key).or_default();
        e.0 += 1;
        e.1 += r[unit_cols::NCPUS].as_real().unwrap_or(0.0);
    }
    println!("{:<12} {:<12} {:>8} {:>8}", "PROJECT", "STATE", "VMS", "VCPUS");
    for ((project, state), (vms, vcpus)) in inventory {
        println!("{project:<12} {state:<12} {vms:>8} {vcpus:>8}");
    }

    // Ownership semantics identical to SLURM units.
    let sample = db
        .query(UNITS_TABLE, &ceems::relstore::Query::all().limit(1))
        .unwrap();
    let owner = sample[0][unit_cols::USER].as_text().unwrap();
    let uuid = sample[0][unit_cols::UUID].as_text().unwrap();
    println!(
        "\nverify({owner}, {uuid}) = {}, verify(intruder, {uuid}) = {}",
        updater.verify_ownership(owner, uuid),
        updater.verify_ownership("intruder", uuid),
    );

    std::fs::remove_dir_all(dir).ok();
}
