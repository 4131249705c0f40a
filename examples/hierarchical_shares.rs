//! Hierarchical share trees flattened onto ALPS (simulator).
//!
//! Two departments split the machine 2:1; engineering has three users with
//! weights 1:1:2, research has two equal users. The tree flattens to the
//! per-process integer shares one ALPS instance enforces — and when a user
//! leaves, re-flattening redistributes their entitlement *within their
//! department*, exactly as a hierarchical scheduler would.
//!
//! Run with: `cargo run --release --example hierarchical_shares`

use alps::{AlpsConfig, CostModel, Nanos, ShareTree};
use kernsim::{ComputeBound, Sim, SimConfig};

fn main() {
    // Build the tree. Leaf tags index into our pid table.
    let mut tree = ShareTree::new();
    let eng = tree.add_group(None, 2);
    let res = tree.add_group(None, 1);
    let users = [
        ("eng/ana", eng, 1u64),
        ("eng/bo", eng, 1),
        ("eng/cy", eng, 2),
        ("res/dee", res, 1),
        ("res/eli", res, 1),
    ];
    let mut sim = Sim::new(SimConfig::default());
    let mut pids = Vec::new();
    let mut leaf_ids = Vec::new();
    for (i, &(name, group, weight)) in users.iter().enumerate() {
        pids.push(sim.spawn(name, Box::new(ComputeBound)));
        leaf_ids.push(tree.add_leaf(Some(group), weight, i as u64));
    }

    let flat = tree.flatten().expect("shares fit");
    println!("tree: departments eng:res = 2:1; eng users 1:1:2; res users 1:1");
    println!("flattened integer shares:");
    let procs: Vec<(kernsim::Pid, u64)> = flat
        .iter()
        .map(|&(tag, share)| {
            println!("  {:<8} -> {share}", users[tag as usize].0);
            (pids[tag as usize], share)
        })
        .collect();

    let alps = alps::spawn_alps(
        &mut sim,
        "alps",
        AlpsConfig::new(Nanos::from_millis(10)),
        CostModel::paper(),
        &procs,
    );
    sim.run_until(Nanos::from_secs(30));

    println!("\nafter 30s:");
    let total: f64 = pids
        .iter()
        .map(|&p| sim.proc(p).unwrap().cputime().as_secs_f64())
        .sum();
    for (&(name, _, _), &pid) in users.iter().zip(&pids) {
        let c = sim.proc(pid).unwrap().cputime().as_secs_f64();
        println!("  {name:<8} {c:>6.2}s = {:>5.1}%", 100.0 * c / total);
    }
    println!("  (targets: eng 16.7/16.7/33.3, res 16.7/16.7)");

    // eng/cy's processes leave; re-flatten: their 2 weights go back to the
    // engineering pool, not to research.
    println!("\neng/cy departs; re-flattening within engineering...");
    tree.remove_leaf(leaf_ids[2]);
    let ids = alps.proc_ids();
    for &(tag, share) in &tree.flatten().expect("shares fit") {
        // Map tags to still-registered core ids (same registration order as
        // `procs`, which follows `flat`).
        let pos = flat
            .iter()
            .position(|&(t, _)| t == tag)
            .expect("was present");
        alps.set_share(ids[pos], share).expect("live");
        println!("  {:<8} -> {share}", users[tag as usize].0);
    }
    // Stop cy's process by removing its entitlement effectively: here we
    // just let it keep its old share id but the departed user would have
    // its processes removed by the supervisor; for the demo, terminate it.
    let cy_pos = flat.iter().position(|&(t, _)| t == 2).expect("cy");
    sim.terminate(pids[cy_pos]);

    let snap: Vec<f64> = pids
        .iter()
        .map(|&p| sim.proc(p).unwrap().cputime().as_secs_f64())
        .collect();
    sim.run_until(Nanos::from_secs(60));
    println!("\nnext 30s (cy gone):");
    let totals: Vec<f64> = pids
        .iter()
        .zip(&snap)
        .map(|(&p, &s)| sim.proc(p).unwrap().cputime().as_secs_f64() - s)
        .collect();
    let total: f64 = totals.iter().sum();
    for ((&(name, _, _), c), i) in users.iter().zip(&totals).zip(0..) {
        if i == cy_pos {
            continue;
        }
        println!("  {name:<8} {c:>6.2}s = {:>5.1}%", 100.0 * c / total);
    }
    println!("  (targets: eng/ana 33.3, eng/bo 33.3, res 16.7/16.7 — cy's");
    println!("   entitlement returned to engineering, not to research)");
}
