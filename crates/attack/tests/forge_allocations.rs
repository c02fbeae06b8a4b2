//! `PhantomOptimal` forges without touching the heap once its buffers
//! have grown: a counting global allocator watches this thread while a
//! warm strategy forges 1000 more times.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use arsf_attack::strategies::PhantomOptimal;
use arsf_attack::{AttackMode, AttackStrategy, SlotContext};
use arsf_interval::Interval;
use arsf_schedule::TransmissionOrder;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, counting the calling thread's allocations while
/// armed (other test threads are not counted).
struct Counting;

fn note_allocation() {
    let _ = ARMED.try_with(|armed| {
        if armed.get() {
            ALLOCATIONS.with(|n| n.set(n.get() + 1));
        }
    });
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations made by `f` on this thread.
fn allocations_in(f: impl FnOnce()) -> usize {
    ALLOCATIONS.with(|n| n.set(0));
    ARMED.with(|armed| armed.set(true));
    f();
    ARMED.with(|armed| armed.set(false));
    ALLOCATIONS.with(|n| n.get())
}

fn iv(lo: f64, hi: f64) -> Interval<f64> {
    Interval::new(lo, hi).expect("ordered")
}

#[test]
fn warm_phantom_optimal_forges_without_allocating() {
    // n = 4, f = 1, fa = 1 (the LandShark shape): sensor 0 forges in the
    // third slot with one correct sensor still unseen, so the forge runs
    // a phantom, the fa = 1 solve and the uncertain-active clamp.
    let order4 = TransmissionOrder::new(vec![1, 2, 0, 3]).expect("permutation");
    let seen4 = [(1, iv(9.7, 10.5)), (2, iv(9.2, 10.4))];
    let widths4 = [1.0, 0.8, 1.2, 2.0];
    let compromised4 = [0];
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
        compromised: &compromised4,
        all_widths: &widths4,
    };
    // n = 5, f = 2, fa = 2 (Table I's {5, 5, 5, 5, 20} suite): sensor 0
    // forges with sensor 4's width still to send, so the solver
    // enumerates pairs.
    let order5 = TransmissionOrder::new(vec![1, 2, 0, 3, 4]).expect("permutation");
    let seen5 = [(1, iv(7.0, 12.0)), (2, iv(8.5, 13.5))];
    let widths5 = [5.0, 5.0, 5.0, 5.0, 20.0];
    let compromised5 = [0, 4];
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
        compromised: &compromised5,
        all_widths: &widths5,
    };
    assert_eq!(n4.mode, AttackMode::Active);
    assert_eq!(n5.mode, AttackMode::Active);

    for ctx in [&n4, &n5] {
        let mut strategy = PhantomOptimal::new();
        // Both solve axes (the forge alternates them) grow the buffers.
        for _ in 0..4 {
            strategy.forge(ctx);
        }
        let mut forged = Vec::with_capacity(1000);
        let count = allocations_in(|| {
            for _ in 0..1000 {
                forged.push(strategy.forge(ctx));
            }
        });
        assert_eq!(
            count, 0,
            "{count} allocations in 1000 warm forges for n = {}",
            ctx.n
        );
        assert!(forged.iter().all(|s| (s.width() - ctx.width).abs() < 1e-12));
    }
}

#[test]
fn the_counter_sees_allocations() {
    let count = allocations_in(|| {
        std::hint::black_box(vec![1u8; 64]);
    });
    assert_eq!(count, 1);
}
