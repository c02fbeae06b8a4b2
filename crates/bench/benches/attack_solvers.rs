//! Criterion bench: cost of the attack solvers — the exact
//! full-knowledge lattice solver vs the dense-grid oracle, one warm
//! `PhantomOptimal` forge per slot shape, and the expectimax evaluator
//! across grid resolutions.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use arsf_attack::expectimax::{expected_fusion_width, GridScenario};
use arsf_attack::full_knowledge::{brute_force_attack, optimal_attack};
use arsf_attack::strategies::PhantomOptimal;
use arsf_attack::{AttackMode, AttackStrategy, SlotContext};
use arsf_interval::Interval;
use arsf_schedule::{SchedulePolicy, TransmissionOrder};

fn correct_set() -> Vec<Interval<f64>> {
    vec![
        Interval::new(-2.5, 2.5).expect("static"),
        Interval::new(-5.5, 5.5).expect("static"),
        Interval::new(-8.5, 8.5).expect("static"),
        Interval::new(-3.0, 7.0).expect("static"),
    ]
}

fn bench_full_knowledge(c: &mut Criterion) {
    let mut group = c.benchmark_group("full_knowledge_solver");
    let correct = correct_set();
    for fa in [1usize, 2] {
        let widths = vec![5.0; fa];
        group.bench_with_input(BenchmarkId::new("lattice_exact", fa), &widths, |b, w| {
            b.iter(|| optimal_attack(std::hint::black_box(&correct), w, 2))
        });
        group.bench_with_input(BenchmarkId::new("grid_oracle", fa), &widths, |b, w| {
            b.iter(|| brute_force_attack(std::hint::black_box(&correct), w, 2, 1.0))
        });
    }
    group.finish();
}

fn iv(lo: f64, hi: f64) -> Interval<f64> {
    Interval::new(lo, hi).expect("static")
}

/// One warm forge per call, on the two slot shapes the sweeps run: the
/// LandShark's n = 4, fa = 1 and Table I's n = 5, fa = 2 (the solver
/// enumerates pairs). Both are active slots with one correct sensor
/// still unseen, so the forge also builds a phantom and clamps.
fn bench_phantom_forge(c: &mut Criterion) {
    let mut group = c.benchmark_group("phantom_forge");
    let order4 = TransmissionOrder::new(vec![1, 2, 0, 3]).expect("permutation");
    let seen4 = [(1, iv(9.7, 10.5)), (2, iv(9.2, 10.4))];
    let widths4 = [1.0, 0.8, 1.2, 2.0];
    let n4 = SlotContext {
        order: &order4,
        slot: 2,
        sensor: 0,
        width: 1.0,
        seen: &seen4,
        delta: iv(9.6, 10.6),
        own_correct: iv(9.6, 10.6),
        mode: AttackMode::for_slot(2, 4, 1, 1),
        n: 4,
        f: 1,
        future_own_widths: &[],
        compromised: &[0],
        all_widths: &widths4,
    };
    let order5 = TransmissionOrder::new(vec![1, 2, 0, 3, 4]).expect("permutation");
    let seen5 = [(1, iv(7.0, 12.0)), (2, iv(8.5, 13.5))];
    let widths5 = [5.0, 5.0, 5.0, 5.0, 20.0];
    let n5 = SlotContext {
        order: &order5,
        slot: 2,
        sensor: 0,
        width: 5.0,
        seen: &seen5,
        delta: iv(8.0, 11.0),
        own_correct: iv(8.0, 13.0),
        mode: AttackMode::for_slot(2, 5, 2, 2),
        n: 5,
        f: 2,
        future_own_widths: &[20.0],
        compromised: &[0, 4],
        all_widths: &widths5,
    };
    for (name, ctx) in [("n4_fa1", &n4), ("n5_fa2", &n5)] {
        let mut strategy = PhantomOptimal::new();
        group.bench_function(name, |b| {
            b.iter(|| strategy.forge(std::hint::black_box(ctx)))
        });
    }
    group.finish();
}

fn bench_expectimax(c: &mut Criterion) {
    let mut group = c.benchmark_group("expectimax");
    group.sample_size(10);
    let widths = vec![5.0, 11.0, 17.0];
    let mut rng = StdRng::seed_from_u64(0);
    let order = SchedulePolicy::Descending.order(&widths, 0, &mut rng);
    for step in [4.0, 2.0, 1.0] {
        let scenario = GridScenario::new(widths.clone(), vec![0], 1, step);
        group.bench_with_input(
            BenchmarkId::new("table1_cell_desc", format!("step{step}")),
            &scenario,
            |b, sc| b.iter(|| expected_fusion_width(std::hint::black_box(sc), &order)),
        );
    }
    group.finish();
}

/// Shared bench configuration: short measurement windows keep the whole
/// workspace bench run in the minutes range while remaining stable.
fn configured() -> Criterion {
    Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(900))
        .sample_size(20)
}

criterion_group! {
    name = benches;
    config = configured();
    targets = bench_full_knowledge, bench_phantom_forge, bench_expectimax
}
criterion_main!(benches);
