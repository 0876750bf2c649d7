//! Microbenchmarks of the substrate crates: LDS generation, discrepancy
//! measures, geometry queries, the event queue, heartbeat detection and
//! connectivity checks.

use criterion::{criterion_group, criterion_main, Criterion};
use decor_geom::{Aabb, Point, UnitDiskGraph};
use decor_lds::{hammersley_unit, l2_star_discrepancy, star_discrepancy, HaltonSequence, Sobol2D};
use decor_net::{EventQueue, HeartbeatConfig, HeartbeatSim, Network};
use std::hint::black_box;

fn bench_lds_generation(c: &mut Criterion) {
    let mut g = c.benchmark_group("lds_generation_2000");
    g.bench_function("halton", |b| {
        b.iter(|| black_box(HaltonSequence::new(2).take_unit2(2000)))
    });
    g.bench_function("halton_scrambled", |b| {
        b.iter(|| black_box(HaltonSequence::new(2).scrambled(7).take_unit2(2000)))
    });
    g.bench_function("hammersley", |b| {
        b.iter(|| black_box(hammersley_unit(2000)))
    });
    g.bench_function("sobol", |b| b.iter(|| black_box(Sobol2D::new().take(2000))));
    g.finish();
}

fn bench_discrepancy(c: &mut Criterion) {
    let pts = HaltonSequence::new(2).take_unit2(256);
    let mut g = c.benchmark_group("discrepancy_256");
    g.sample_size(20);
    g.bench_function("star_exact", |b| {
        b.iter(|| black_box(star_discrepancy(&pts)))
    });
    g.bench_function("l2_warnock", |b| {
        b.iter(|| black_box(l2_star_discrepancy(&pts)))
    });
    g.finish();
}

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("event_queue_schedule_pop_10k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..10_000u64 {
                q.schedule((i * 7919) % 100_000, i);
            }
            let mut acc = 0u64;
            while let Some((_, e)) = q.pop() {
                acc = acc.wrapping_add(e);
            }
            black_box(acc)
        })
    });
}

fn line_network(n: usize) -> Network {
    let mut net = Network::new(Aabb::square(1000.0));
    for i in 0..n {
        net.add_node(Point::new(5.0 + i as f64 * 5.0, 50.0), 4.0, 8.0);
    }
    net
}

fn bench_heartbeat_sim(c: &mut Criterion) {
    let mut g = c.benchmark_group("heartbeat_detection");
    g.sample_size(20);
    g.bench_function("100_nodes_20_periods", |b| {
        b.iter(|| {
            let mut net = line_network(100);
            let sim = HeartbeatSim::new(HeartbeatConfig {
                period: 100,
                timeout_periods: 3,
                seed: 1,
            });
            black_box(sim.run(&mut net, &[50], 500, 2000))
        })
    });
    g.finish();
}

fn bench_unit_disk_graph(c: &mut Criterion) {
    let mut pts = Vec::new();
    // A deterministic quasi-random cloud of 800 nodes.
    for (u, v) in HaltonSequence::new(2).take_unit2(800) {
        pts.push(Point::new(u * 100.0, v * 100.0));
    }
    let mut g = c.benchmark_group("unit_disk_graph_800");
    g.sample_size(20);
    g.bench_function("build", |b| {
        b.iter(|| black_box(UnitDiskGraph::build(&pts, 8.0)))
    });
    let graph = UnitDiskGraph::build(&pts, 8.0);
    g.bench_function("is_connected", |b| {
        b.iter(|| black_box(graph.is_connected()))
    });
    g.bench_function("k_connectivity_2", |b| {
        b.iter(|| black_box(graph.vertex_connectivity_at_least(2)))
    });
    g.finish();
}

fn bench_network_traffic(c: &mut Criterion) {
    c.bench_function("broadcast_500_nodes", |b| {
        let mut net = Network::new(Aabb::square(100.0));
        for (u, v) in HaltonSequence::new(2).take_unit2(500) {
            net.add_node(Point::new(u * 100.0, v * 100.0), 4.0, 8.0);
        }
        b.iter(|| {
            for id in 0..500 {
                black_box(net.broadcast(
                    id,
                    decor_net::Message::Heartbeat {
                        pos: net.node(id).pos,
                    },
                ));
            }
        })
    });
}

fn bench_delaunay_and_voronoi(c: &mut Criterion) {
    let mut pts = Vec::new();
    for (u, v) in HaltonSequence::new(2).take_unit2(400) {
        pts.push(Point::new(u * 100.0, v * 100.0));
    }
    let mut g = c.benchmark_group("delaunay_400_sites");
    g.sample_size(20);
    g.bench_function("triangulate", |b| {
        b.iter(|| black_box(decor_geom::Delaunay::build(&pts)))
    });
    let d = decor_geom::Delaunay::build(&pts);
    let field = Aabb::square(100.0);
    g.bench_function("voronoi_cells", |b| {
        b.iter(|| black_box(d.voronoi_cells(&field)))
    });
    g.finish();
}

fn bench_breach_paths(c: &mut Criterion) {
    let mut pts = Vec::new();
    for (u, v) in HaltonSequence::new(2).take_unit2(300) {
        pts.push(Point::new(u * 100.0, v * 100.0));
    }
    let field = Aabb::square(100.0);
    let mut g = c.benchmark_group("coverage_paths_res128");
    g.sample_size(10);
    g.bench_function("maximal_breach", |b| {
        b.iter(|| black_box(decor_geom::maximal_breach_path(&pts, &field, 128)))
    });
    g.bench_function("best_support", |b| {
        b.iter(|| black_box(decor_geom::best_support_path(&pts, &field, 128)))
    });
    g.finish();
}

fn bench_routing(c: &mut Criterion) {
    let net = {
        let mut net = Network::new(Aabb::square(100.0));
        for (u, v) in HaltonSequence::new(2).take_unit2(600) {
            net.add_node(Point::new(u * 100.0, v * 100.0), 4.0, 8.0);
        }
        net
    };
    c.bench_function("bfs_route_600_nodes", |b| {
        b.iter(|| black_box(decor_net::shortest_path(&net, 0, 599)))
    });
}

fn bench_sleep_scheduling(c: &mut Criterion) {
    // Three stacked lattices: a field the scheduler can split 3 ways.
    let mut net = Network::new(Aabb::square(40.0));
    for _ in 0..3 {
        for i in 0..6 {
            for j in 0..6 {
                net.add_node(
                    Point::new(3.0 + 6.5 * i as f64, 3.0 + 6.5 * j as f64),
                    6.0,
                    12.0,
                );
            }
        }
    }
    let pts: Vec<Point> = (0..100)
        .map(|i| Point::new(2.0 + 3.6 * (i % 10) as f64, 2.0 + 3.6 * (i / 10) as f64))
        .collect();
    let mut g = c.benchmark_group("sleep_scheduler_108_nodes");
    g.sample_size(20);
    g.bench_function("shifts", |b| {
        b.iter(|| black_box(decor_net::SleepScheduler::new(1).shifts(&net, &pts)))
    });
    g.finish();
}

criterion_group!(
    substrates,
    bench_lds_generation,
    bench_discrepancy,
    bench_event_queue,
    bench_heartbeat_sim,
    bench_unit_disk_graph,
    bench_network_traffic,
    bench_delaunay_and_voronoi,
    bench_breach_paths,
    bench_routing,
    bench_sleep_scheduling
);
criterion_main!(substrates);
