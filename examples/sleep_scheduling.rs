//! Sleep scheduling: turning k-coverage into network lifetime.
//!
//! ```text
//! cargo run --release --example sleep_scheduling
//! ```
//!
//! The paper's third motivation for k-coverage (§1): with k sensors on
//! every point, most of them can sleep. This example deploys for
//! k = 1..4 and runs the endurance loop twice on each deployment: once
//! rotating the in-network agreed 1-covering shifts, once with every node
//! always on. Both arms pay the same energy model (radio traffic plus idle
//! cost), and each ends at the first coverage loss no wake-up can mend.
//! The table prints both lifetimes and the extension rotation buys.

use decor::core::{
    run_endurance, CentralizedGreedy, CoverageMap, DeploymentConfig, EnduranceConfig, Placer,
};
use decor::geom::Aabb;
use decor::lds::halton_points;
use decor::net::RotationConfig;

fn main() {
    let field = Aabb::square(100.0);
    let rot = RotationConfig::default();
    println!(
        "k-coverage as an energy budget — battery {}, awake cost {}/period, sleep cost {}/period\n",
        rot.battery, rot.awake_cost, rot.sleep_cost
    );
    println!(
        "{:>3} {:>8} {:>8} {:>16} {:>16} {:>11}",
        "k", "sensors", "shifts", "rotating", "always-on", "extension"
    );
    for k in 1..=4u32 {
        let cfg = DeploymentConfig {
            k,
            rotation: Some(rot),
            ..DeploymentConfig::default()
        };
        let mut deployed = CoverageMap::new(halton_points(2000, &field), &field, &cfg);
        let out = CentralizedGreedy.place(&mut deployed, &cfg);
        assert!(out.fully_covered);

        let arm = |rotate: bool| {
            let mut map = deployed.clone();
            let e = EnduranceConfig {
                rotate,
                ..EnduranceConfig::default()
            };
            run_endurance(&mut map, &CentralizedGreedy, &cfg, &e)
        };
        let always_on = arm(false);
        let rotating = arm(true);
        println!(
            "{:>3} {:>8} {:>8} {:>8} periods {:>8} periods {:>10.2}x",
            k,
            deployed.n_active_sensors(),
            rotating.shifts,
            rotating.lifetime_periods,
            always_on.lifetime_periods,
            rotating.extension_over(&always_on)
        );
    }
    println!("\na tight greedy deployment decomposes into roughly k/2 disjoint shifts");
    println!("(splitting a point's exactly-k coverers into k covers is a hard domatic-");
    println!("partition instance), so the measured extension is a floor on the paper's");
    println!("qualitative claim: higher k still buys fault tolerance AND lifetime.");
}
