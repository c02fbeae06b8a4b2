//! The exact solver for the paper's optimisation problem (1): optimal
//! interval forgery when all correct intervals are known.
//!
//! With full knowledge the attacker transmits last, so active mode is
//! always available and the placement question is purely geometric:
//!
//! > maximise `|S_{N,f}|` subject to `S_{N,f} ∩ aᵢ ≠ ∅` for every forged
//! > interval `aᵢ` (stealth).
//!
//! The solver exploits a snapping argument. The fusion width, as a
//! function of one forged interval's position with all others fixed, is
//! piecewise linear and changes slope only when one of the forged
//! endpoints crosses a *breakpoint*: a correct-interval endpoint or
//! another forged endpoint. Sliding an interval towards the optimum
//! therefore stops at a position where some endpoint coincides with a
//! breakpoint, and by induction an optimal solution exists on the lattice
//!
//! `E = {correct endpoints} ± (signed sums of at most fa − 1 forged widths)`
//!
//! with each forged interval's lower endpoint in `E ∪ (E − wᵢ)`.
//! Exhaustively evaluating that lattice (with exact fusion and exact
//! stealth verification per combination) yields the optimum over
//! `O((c · 3^{fa})^{fa})` lattice points — trivial for the paper's
//! `fa ≤ 2` and fine up to [`MAX_ATTACKED`] `= 4`; more attacked
//! intervals are refused with [`AttackError::SolverCapacity`]. The
//! correct endpoints are sorted once per solve, so each lattice point is
//! an `O(n)` merge of its `2 · fa` forged endpoints into them, with no
//! allocation, and is skipped outright when a bound from the correct
//! intervals' coverage shows it cannot beat the best so far. A solver
//! kept across solves, as
//! [`PhantomOptimal`](crate::strategies::PhantomOptimal) keeps one,
//! allocates nothing at all once its buffers have grown.
//!
//! [`brute_force_attack`] provides an independent dense-grid oracle used
//! by the property-test suite to validate the lattice solver. It fuses
//! every candidate from scratch with `marzullo::fuse`, the evaluation
//! the solver's merge reproduces.

use arsf_interval::coverage::CoverageMap;
use arsf_interval::Interval;

use crate::stealth::verify_stealth;
use crate::AttackError;

/// The most attacked intervals the lattice solver accepts; more are
/// refused with [`AttackError::SolverCapacity`].
pub const MAX_ATTACKED: usize = 4;

/// The result of an optimal full-knowledge attack.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimalAttack {
    /// One forged interval per attacked width, in input order.
    pub placements: Vec<Interval<f64>>,
    /// The resulting fusion interval (exact).
    pub fusion: Interval<f64>,
    /// The fusion width of the correct intervals alone at coverage
    /// `k = n − f` — what the attacker's sensors would contribute nothing
    /// to. `None` when the correct intervals never reach coverage `k`.
    pub honest_width: Option<f64>,
}

impl OptimalAttack {
    /// The width of the optimal fusion interval.
    pub fn width(&self) -> f64 {
        self.fusion.width()
    }
}

/// Computes the optimal stealthy attack given every correct interval
/// (problem (1) of the paper).
///
/// `correct` are the `n − fa` correct intervals, `attacked_widths` the
/// fixed widths of the attacker's intervals, and `f` the fusion fault
/// assumption, so `n = correct.len() + attacked_widths.len()` and the
/// required coverage is `k = n − f`.
///
/// # Errors
///
/// * [`AttackError::SolverCapacity`] — more than [`MAX_ATTACKED`]
///   attacked widths (the paper's regime is `fa ≤ f < ⌈n/2⌉` with
///   `n ≤ 5`),
/// * [`AttackError::NoCorrectIntervals`] — `correct` is empty,
/// * [`AttackError::UnboundedAttack`] — `fa ≥ k` (the paper's unbounded
///   regime, excluded by `fa ≤ f < ⌈n/2⌉`),
/// * [`AttackError::NoFeasiblePlacement`] — no stealthy placement reaches
///   coverage `k` anywhere (impossible when the correct intervals share
///   the true value).
///
/// # Panics
///
/// Panics if any attacked width is negative or non-finite.
///
/// # Example
///
/// ```
/// use arsf_attack::full_knowledge::optimal_attack;
/// use arsf_interval::Interval;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let correct = [Interval::new(0.0, 10.0)?, Interval::new(4.0, 6.0)?];
/// // n = 3, f = 1, k = 2: honest fusion is [4, 6] (width 2).
/// let attack = optimal_attack(&correct, &[3.0], 1)?;
/// // One forged width-3 interval stretches the fusion to [4, 10] (or
/// // symmetrically [0, 6]): width 6.
/// assert_eq!(attack.width(), 6.0);
/// assert_eq!(attack.honest_width, Some(2.0));
/// # Ok(())
/// # }
/// ```
pub fn optimal_attack(
    correct: &[Interval<f64>],
    attacked_widths: &[f64],
    f: usize,
) -> Result<OptimalAttack, AttackError> {
    let solution = LatticeSolver::new().solve(correct, attacked_widths, f)?;
    Ok(OptimalAttack {
        placements: solution.placements().to_vec(),
        fusion: solution.fusion,
        honest_width: honest_width(correct, attacked_widths.len(), f),
    })
}

/// The exact lattice solver behind [`optimal_attack`], owning its work
/// buffers so that repeated solves allocate nothing once they have grown.
///
/// Each solve sorts the correct intervals' endpoints once; every lattice
/// point that could still beat the best then merges its at most `2 · fa`
/// forged endpoints into them and sweeps the coverage count, checking
/// stealth in place.
#[derive(Debug, Clone, Default)]
pub(crate) struct LatticeSolver {
    /// The correct intervals' endpoint events in sweep order.
    events: Vec<Event>,
    /// Signed sums of at most `fa − 1` forged widths.
    shifts: Vec<f64>,
    /// Work stack for [`signed_subset_sums`].
    frontier: Vec<(f64, usize, usize)>,
    /// The breakpoint lattice.
    lattice: Vec<f64>,
    /// Every forged interval's candidate lower endpoints, back to back;
    /// interval `i`'s end at `ends[i]`.
    candidates: Vec<f64>,
    ends: [usize; MAX_ATTACKED],
}

/// The optimum found by [`LatticeSolver::solve`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Solution {
    forged: [Interval<f64>; MAX_ATTACKED],
    fa: usize,
    /// The resulting fusion interval (exact).
    pub(crate) fusion: Interval<f64>,
}

impl Solution {
    /// One forged interval per attacked width, in input order.
    pub(crate) fn placements(&self) -> &[Interval<f64>] {
        &self.forged[..self.fa]
    }
}

/// A coverage-sweep event: `(x, +1)` opens an interval, `(x, −1)` closes
/// one.
type Event = (f64, i8);

/// `k_covered_span`'s event order: by coordinate, `+1` before `−1` at
/// equal coordinates.
fn precedes(a: &Event, b: &Event) -> bool {
    a.0 < b.0 || (a.0 == b.0 && a.1 > b.1)
}

impl LatticeSolver {
    /// Creates a solver with empty buffers.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Solves problem (1) exactly: [`optimal_attack`] without
    /// `honest_width`.
    ///
    /// # Errors
    ///
    /// As [`optimal_attack`].
    ///
    /// # Panics
    ///
    /// Panics if any attacked width is negative or non-finite.
    pub(crate) fn solve(
        &mut self,
        correct: &[Interval<f64>],
        attacked_widths: &[f64],
        f: usize,
    ) -> Result<Solution, AttackError> {
        let fa = attacked_widths.len();
        if fa > MAX_ATTACKED {
            return Err(AttackError::SolverCapacity {
                fa,
                max: MAX_ATTACKED,
            });
        }
        assert!(
            attacked_widths.iter().all(|w| w.is_finite() && *w >= 0.0),
            "attacked widths must be finite and non-negative"
        );
        let k = coverage_requirement(correct, fa, f)?;
        self.build_lattice(correct, attacked_widths);

        // Sorted once, stably: merging the forged events after their
        // equals below reproduces a sort of all events together.
        self.events.clear();
        for s in correct {
            self.events.push((s.lo(), 1));
            self.events.push((s.hi(), -1));
        }
        self.events.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .expect("interval endpoints are finite by construction")
                .then(b.1.cmp(&a.1))
        });

        let Some(reach) = span_of(self.events.iter().copied(), k - fa) else {
            return Err(AttackError::NoFeasiblePlacement);
        };
        let bounds = Bounds {
            k,
            reach,
            honest: span_of(self.events.iter().copied(), k),
        };
        let mut forged = [correct[0]; MAX_ATTACKED];
        let mut best = None;
        self.search(0, attacked_widths, &bounds, &mut forged, &mut best);
        best.ok_or(AttackError::NoFeasiblePlacement)
    }

    /// Fills `shifts`, `lattice` and the per-interval candidate lists:
    /// the lattice is every correct endpoint shifted by every signed sum
    /// of at most `fa − 1` forged widths, and an interval's candidates
    /// put a lattice point at either its lower or its upper end.
    fn build_lattice(&mut self, correct: &[Interval<f64>], widths: &[f64]) {
        signed_subset_sums(
            widths,
            widths.len().saturating_sub(1),
            &mut self.shifts,
            &mut self.frontier,
        );
        self.lattice.clear();
        for s in correct {
            for b in [s.lo(), s.hi()] {
                self.lattice.extend(self.shifts.iter().map(|&d| b + d));
            }
        }
        let len = sort_dedup(&mut self.lattice);
        self.lattice.truncate(len);

        self.candidates.clear();
        for (i, &w) in widths.iter().enumerate() {
            let start = self.candidates.len();
            self.candidates.extend_from_slice(&self.lattice);
            self.candidates.extend(self.lattice.iter().map(|&x| x - w));
            let len = sort_dedup(&mut self.candidates[start..]);
            self.candidates.truncate(start + len);
            self.ends[i] = self.candidates.len();
        }
    }

    /// Interval `i`'s candidate lower endpoints, ascending.
    fn candidates(&self, i: usize) -> &[f64] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.candidates[start..self.ends[i]]
    }

    /// Enumerates candidate tuples from interval `idx` on in ascending
    /// lexicographic order, keeping the first widest stealthy fusion and
    /// skipping tuples whose [`Bounds`] cannot beat it.
    fn search(
        &self,
        idx: usize,
        widths: &[f64],
        bounds: &Bounds,
        forged: &mut [Interval<f64>; MAX_ATTACKED],
        best: &mut Option<Solution>,
    ) {
        let (reach_lo, reach_hi) = bounds.reach;
        if best.is_some_and(|b| reach_hi - reach_lo <= b.fusion.width()) {
            return; // nothing can be wider
        }
        if idx == widths.len() {
            let forged = &forged[..idx];
            if best.is_none_or(|b| bounds.widest(forged) > b.fusion.width()) {
                self.evaluate(forged, bounds.k, best);
            }
            return;
        }
        for &lo in self.candidates(idx) {
            forged[idx] =
                Interval::new(lo, lo + widths[idx]).expect("lattice coordinates are finite");
            self.search(idx + 1, widths, bounds, forged, best);
        }
    }

    /// Fuses `forged` with the correct intervals by merging their sorted
    /// endpoints, and records the result if it is stealthy and strictly
    /// wider than the best so far.
    ///
    /// The fusion is `marzullo::fuse` of the correct intervals followed
    /// by the forged ones, bit for bit: the sweep reads only the event
    /// sequence, and events that compare equal differ at most in a
    /// zero's sign, which the merge orders as a stable sort of that
    /// concatenation would. `fuse` sorts unstably; it agrees on inputs of
    /// the paper's size (the differential test against [`oracle_search`]
    /// pins this), while on much larger ones it may order such a tie
    /// differently and report `-0.0` for `0.0`.
    fn evaluate(&self, forged: &[Interval<f64>], k: usize, best: &mut Option<Solution>) {
        // The forged events, insertion-sorted (stable, like the merge).
        let mut own = [(0.0, 0); 2 * MAX_ATTACKED];
        let m = 2 * forged.len();
        for (i, p) in forged.iter().enumerate() {
            own[2 * i] = (p.lo(), 1);
            own[2 * i + 1] = (p.hi(), -1);
        }
        for i in 1..m {
            let mut j = i;
            while j > 0 && precedes(&own[j], &own[j - 1]) {
                own.swap(j, j - 1);
                j -= 1;
            }
        }

        let Some((lo, hi)) = span_of(merged(&self.events, &own[..m]), k) else {
            return;
        };
        let width = hi - lo;
        if best.is_some_and(|b| width <= b.fusion.width()) {
            return;
        }
        let fusion = Interval::new(lo, hi).expect("sweep produces ordered endpoints");
        if !forged.iter().all(|p| p.intersects(&fusion)) {
            return;
        }
        let mut solution = Solution {
            forged: [fusion; MAX_ATTACKED],
            fa: forged.len(),
            fusion,
        };
        solution.forged[..forged.len()].copy_from_slice(forged);
        *best = Some(solution);
    }
}

/// Where any fusion interval of one solve can lie, known before a
/// candidate tuple is fused.
///
/// A fused point is covered by `k` intervals, at most `fa` of them
/// forged, so by at least `k − fa` correct ones: it lies in `reach`. If
/// no forged interval covers it, `k` correct ones do: it lies in
/// `honest`.
struct Bounds {
    /// The coverage fusion requires.
    k: usize,
    /// The span of the points at least `k − fa` correct intervals cover.
    reach: (f64, f64),
    /// The span of the points at least `k` correct intervals cover.
    honest: Option<(f64, f64)>,
}

impl Bounds {
    /// An upper bound on the fusion width with `forged` placed: the width
    /// of the hull of `honest` and of the part of `reach` under the
    /// forged intervals' hull, or −∞ when both are empty. The hull's ends
    /// are event coordinates enclosing the fusion's, and rounded
    /// subtraction is monotone, so no fusion is wider.
    fn widest(&self, forged: &[Interval<f64>]) -> f64 {
        let (reach_lo, reach_hi) = self.reach;
        let under_lo = forged
            .iter()
            .map(|p| p.lo())
            .fold(f64::INFINITY, f64::min)
            .max(reach_lo);
        let under_hi = forged
            .iter()
            .map(|p| p.hi())
            .fold(f64::NEG_INFINITY, f64::max)
            .min(reach_hi);
        let (lo, hi) = match (self.honest, under_lo <= under_hi) {
            (Some((h_lo, h_hi)), true) => (h_lo.min(under_lo), h_hi.max(under_hi)),
            (Some(honest), false) => honest,
            (None, true) => (under_lo, under_hi),
            (None, false) => return f64::NEG_INFINITY,
        };
        hi - lo
    }
}

/// Two event lists in sweep order merged into one, taking from
/// `events` first among equals.
fn merged<'a>(events: &'a [Event], own: &'a [Event]) -> impl Iterator<Item = Event> + 'a {
    let (mut a, mut b) = (0, 0);
    std::iter::from_fn(move || {
        if b < own.len() && (a == events.len() || precedes(&own[b], &events[a])) {
            b += 1;
            Some(own[b - 1])
        } else {
            a += 1;
            events.get(a - 1).copied()
        }
    })
}

/// `k_covered_span` over events in sweep order, as `(lo, hi)`.
fn span_of(events: impl IntoIterator<Item = Event>, k: usize) -> Option<(f64, f64)> {
    let mut count = 0usize;
    let mut lo = None;
    let mut hi = None;
    for (x, delta) in events {
        if delta == 1 {
            count += 1;
            if count == k && lo.is_none() {
                lo = Some(x);
            }
        } else {
            if count == k {
                hi = Some(x);
            }
            count -= 1;
        }
    }
    lo.zip(hi)
}

/// The coverage `k = n − f` that fusion requires, or the error that makes
/// the problem ill-posed.
fn coverage_requirement(
    correct: &[Interval<f64>],
    fa: usize,
    f: usize,
) -> Result<usize, AttackError> {
    if correct.is_empty() {
        return Err(AttackError::NoCorrectIntervals);
    }
    let k = (correct.len() + fa).saturating_sub(f);
    if fa >= k {
        return Err(AttackError::UnboundedAttack { fa, required: k });
    }
    Ok(k)
}

/// The correct intervals' own fusion width at coverage `k = n − f`.
fn honest_width(correct: &[Interval<f64>], fa: usize, f: usize) -> Option<f64> {
    let k = (correct.len() + fa).saturating_sub(f);
    CoverageMap::build(correct)
        .span_at_least(k)
        .map(|s| s.width())
}

/// Fills `sums` with all sums of signed subsets of `widths` with at most
/// `max_terms` terms (always including 0), sorted and de-duplicated.
fn signed_subset_sums(
    widths: &[f64],
    max_terms: usize,
    sums: &mut Vec<f64>,
    frontier: &mut Vec<(f64, usize, usize)>,
) {
    sums.clear();
    sums.push(0.0);
    frontier.clear();
    frontier.push((0.0, 0, 0)); // (sum, next index, terms used)
    while let Some((sum, start, used)) = frontier.pop() {
        if used == max_terms {
            continue;
        }
        for (i, &w) in widths.iter().enumerate().skip(start) {
            for signed in [sum + w, sum - w] {
                sums.push(signed);
                frontier.push((signed, i + 1, used + 1));
            }
        }
    }
    let len = sort_dedup(sums);
    sums.truncate(len);
}

/// Sorts `xs` and moves its distinct values to the front (keeping the
/// first of each run, like `Vec::dedup`); returns how many there are.
fn sort_dedup(xs: &mut [f64]) -> usize {
    xs.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite lattice coordinates"));
    let mut kept = 0;
    for i in 0..xs.len() {
        if kept == 0 || xs[i] != xs[kept - 1] {
            xs[kept] = xs[i];
            kept += 1;
        }
    }
    kept
}

/// The reference search: every candidate tuple in `candidates` is fused
/// from scratch with [`arsf_fusion::marzullo::fuse`] and checked with
/// [`verify_stealth`]. The lattice solver must reproduce its results.
fn oracle_search(
    correct: &[Interval<f64>],
    attacked_widths: &[f64],
    f: usize,
    candidates: &[&[f64]],
) -> Result<OptimalAttack, AttackError> {
    let mut best: BestAttack = None;
    let mut placements: Vec<Interval<f64>> = Vec::with_capacity(attacked_widths.len());
    explore(
        correct,
        attacked_widths,
        f,
        candidates,
        &mut placements,
        &mut best,
    );
    match best {
        Some((_, placements, fusion)) => Ok(OptimalAttack {
            placements,
            fusion,
            honest_width: honest_width(correct, attacked_widths.len(), f),
        }),
        None => Err(AttackError::NoFeasiblePlacement),
    }
}

/// Best attack found so far: `(width, placements, fusion interval)`.
type BestAttack = Option<(f64, Vec<Interval<f64>>, Interval<f64>)>;

fn explore(
    correct: &[Interval<f64>],
    widths: &[f64],
    f: usize,
    candidates: &[&[f64]],
    placements: &mut Vec<Interval<f64>>,
    best: &mut BestAttack,
) {
    let idx = placements.len();
    if idx == widths.len() {
        evaluate(correct, placements, f, best);
        return;
    }
    for &lo in candidates[idx] {
        placements
            .push(Interval::new(lo, lo + widths[idx]).expect("lattice coordinates are finite"));
        explore(correct, widths, f, candidates, placements, best);
        placements.pop();
    }
}

fn evaluate(
    correct: &[Interval<f64>],
    placements: &[Interval<f64>],
    f: usize,
    best: &mut BestAttack,
) {
    let mut all: Vec<Interval<f64>> = correct.to_vec();
    all.extend(placements.iter().copied());
    let Ok(fusion) = arsf_fusion::marzullo::fuse(&all, f) else {
        return;
    };
    if !verify_stealth(placements, &fusion).is_empty() {
        return;
    }
    let width = fusion.width();
    if best.as_ref().is_none_or(|(w, ..)| width > *w) {
        *best = Some((width, placements.to_vec(), fusion));
    }
}

/// [`optimal_attack`] evaluated by [`oracle_search`] over the solver's
/// own lattice: the differential reference for the merge evaluator.
#[cfg(test)]
pub(crate) fn reference_attack(
    correct: &[Interval<f64>],
    attacked_widths: &[f64],
    f: usize,
) -> Result<OptimalAttack, AttackError> {
    let fa = attacked_widths.len();
    if fa > MAX_ATTACKED {
        return Err(AttackError::SolverCapacity {
            fa,
            max: MAX_ATTACKED,
        });
    }
    coverage_requirement(correct, fa, f)?;
    let mut solver = LatticeSolver::new();
    solver.build_lattice(correct, attacked_widths);
    let candidates: Vec<&[f64]> = (0..fa).map(|i| solver.candidates(i)).collect();
    oracle_search(correct, attacked_widths, f, &candidates)
}

/// Dense-grid oracle for [`optimal_attack`]: enumerates forged-interval
/// lower endpoints on the grid `{lo + i·step}` spanning all correct
/// endpoints padded by the largest forged width, fuses, verifies stealth
/// exactly, and returns the widest stealthy outcome.
///
/// Exponential in `fa` — intended for small cross-validation cases only.
/// With integer-coordinate inputs and `step` dividing all coordinates the
/// oracle is exact.
///
/// # Errors
///
/// Same contract as [`optimal_attack`].
pub fn brute_force_attack(
    correct: &[Interval<f64>],
    attacked_widths: &[f64],
    f: usize,
    step: f64,
) -> Result<OptimalAttack, AttackError> {
    coverage_requirement(correct, attacked_widths.len(), f)?;
    let max_w = attacked_widths.iter().copied().fold(0.0_f64, f64::max);
    let lo = correct.iter().map(|s| s.lo()).fold(f64::INFINITY, f64::min) - max_w;
    let hi = correct
        .iter()
        .map(|s| s.hi())
        .fold(f64::NEG_INFINITY, f64::max)
        + max_w;
    let steps = ((hi - lo) / step).round() as usize;
    let grid: Vec<f64> = (0..=steps).map(|i| lo + i as f64 * step).collect();
    let grids = vec![grid.as_slice(); attacked_widths.len()];
    oracle_search(correct, attacked_widths, f, &grids)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn iv(lo: f64, hi: f64) -> Interval<f64> {
        Interval::new(lo, hi).unwrap()
    }

    /// A solve result reduced to the bit patterns of everything it reports.
    type Bits = Result<(Vec<[u64; 2]>, [u64; 2], Option<u64>), AttackError>;

    fn bits(result: Result<OptimalAttack, AttackError>) -> Bits {
        let ends = |s: &Interval<f64>| [s.lo().to_bits(), s.hi().to_bits()];
        result.map(|a| {
            (
                a.placements.iter().map(ends).collect(),
                ends(&a.fusion),
                a.honest_width.map(f64::to_bits),
            )
        })
    }

    fn mirrored(xs: &[Interval<f64>]) -> Vec<Interval<f64>> {
        xs.iter().map(|s| iv(-s.hi(), -s.lo())).collect()
    }

    /// Problems with `fa ∈ 1..=4` on a coarse grid, so endpoints tie
    /// (including `0.0` against `-0.0`), with zero widths and degenerate
    /// correct intervals; the grid shrinks as `fa` grows to keep the
    /// reference's `|candidates|^fa` fusions affordable.
    fn problems() -> impl Strategy<Value = (Vec<Interval<f64>>, Vec<f64>, usize)> {
        (1usize..=4, 0usize..3).prop_flat_map(|(fa, scale)| {
            let span = [8_i64, 5, 3, 1][fa - 1];
            let unit = [1.0, 0.1, 0.3][scale];
            let coordinate = (0_i64..2, 0..=span).prop_map(move |(negative, m)| {
                let x = m as f64 * unit;
                if negative == 1 {
                    -x
                } else {
                    x
                }
            });
            (
                prop::collection::vec((coordinate, 0..=span), 1..=4),
                prop::collection::vec(0..=span, fa),
                0usize..=4,
            )
                .prop_map(move |(shapes, widths, f)| {
                    let correct = shapes
                        .into_iter()
                        .map(|(lo, len)| iv(lo, lo + len as f64 * unit))
                        .collect();
                    let widths = widths.into_iter().map(|w| w as f64 * unit).collect();
                    (correct, widths, f)
                })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn merge_solver_matches_the_fuse_reference_bit_for_bit(
            (correct, widths, f) in problems(),
        ) {
            prop_assert_eq!(
                bits(optimal_attack(&correct, &widths, f)),
                bits(reference_attack(&correct, &widths, f)),
                "correct={:?} widths={:?} f={}", correct, widths, f
            );
            // A solver reused across differently shaped problems must not
            // carry anything over.
            let mut solver = LatticeSolver::new();
            let flipped = mirrored(&correct);
            for (problem, widths) in [
                (&flipped[..], &widths[..]),
                (&correct[..], &widths[..]),
                (&flipped[..1], &widths[..1]),
            ] {
                let reused = solver.solve(problem, widths, f).map(|s| OptimalAttack {
                    placements: s.placements().to_vec(),
                    fusion: s.fusion,
                    honest_width: honest_width(problem, widths.len(), f),
                });
                prop_assert_eq!(bits(reused), bits(reference_attack(problem, widths, f)));
            }
        }
    }

    #[test]
    fn errors_on_empty_or_unbounded_input() {
        assert_eq!(
            optimal_attack(&[], &[1.0], 1).unwrap_err(),
            AttackError::NoCorrectIntervals
        );
        // n = 2, f = 1, k = 1, fa = 1 >= k: unbounded.
        assert_eq!(
            optimal_attack(&[iv(0.0, 1.0)], &[1.0], 1).unwrap_err(),
            AttackError::UnboundedAttack { fa: 1, required: 1 }
        );
    }

    #[test]
    fn no_attack_matches_honest_fusion() {
        let correct = [iv(0.0, 4.0), iv(1.0, 5.0), iv(2.0, 6.0)];
        let attack = optimal_attack(&correct, &[], 1).unwrap();
        // k = 2 over the three correct: span of >= 2 coverage = [1, 5].
        assert_eq!(attack.fusion, iv(1.0, 5.0));
        assert_eq!(attack.honest_width, Some(4.0));
    }

    #[test]
    fn doc_example_single_forged_interval() {
        let correct = [iv(0.0, 10.0), iv(4.0, 6.0)];
        let attack = optimal_attack(&correct, &[3.0], 1).unwrap();
        assert_eq!(attack.width(), 6.0);
    }

    #[test]
    fn straddling_beats_one_sided_extension() {
        // Honest k = 2 region is the tiny [4.9, 5.1]; one-sided extension
        // reaches width 5.1 (to an end of the wide interval), but a width-6
        // forged interval straddling the centre achieves its full width.
        let correct = [iv(0.0, 10.0), iv(4.9, 5.1)];
        let attack = optimal_attack(&correct, &[6.0], 1).unwrap();
        assert_eq!(attack.width(), 6.0);
    }

    #[test]
    fn wide_forged_interval_covers_everything() {
        let correct = [iv(0.0, 10.0), iv(4.0, 6.0)];
        let attack = optimal_attack(&correct, &[12.0], 1).unwrap();
        assert_eq!(attack.fusion, iv(0.0, 10.0));
    }

    #[test]
    fn two_attacked_intervals_split_sides() {
        // n = 5, f = 2, k = 3, fa = 2 of width 2 each.
        let correct = [iv(0.0, 8.0), iv(2.0, 6.0), iv(3.0, 5.0)];
        let attack = optimal_attack(&correct, &[2.0, 2.0], 2).unwrap();
        // Stacking both forged at one frontier reaches the width-1
        // coverage points: [3,5] -> 8 on the right (or 0 on the left),
        // width 5; splitting sides reaches [2,6] frontiers, width 4.
        assert_eq!(attack.width(), 5.0);
    }

    #[test]
    fn placements_are_never_detected_and_keep_widths() {
        let correct = [iv(-3.0, 3.0), iv(-1.0, 4.0), iv(0.0, 5.0)];
        for widths in [vec![2.0], vec![6.0], vec![1.0, 9.0]] {
            let attack = optimal_attack(&correct, &widths, 2).unwrap();
            assert!(verify_stealth(&attack.placements, &attack.fusion).is_empty());
            for (p, w) in attack.placements.iter().zip(&widths) {
                assert!((p.width() - w).abs() < 1e-12, "width must be preserved");
            }
        }
    }

    #[test]
    fn attack_never_loses_to_honesty() {
        let correct = [iv(0.0, 4.0), iv(1.0, 5.0), iv(2.0, 6.0)];
        let attack = optimal_attack(&correct, &[3.0], 2).unwrap();
        assert!(attack.width() >= attack.honest_width.unwrap());
    }

    #[test]
    fn brute_force_agrees_on_small_cases() {
        let cases: Vec<(Vec<Interval<f64>>, Vec<f64>, usize)> = vec![
            (vec![iv(0.0, 4.0), iv(1.0, 5.0)], vec![2.0], 1),
            (vec![iv(0.0, 10.0), iv(4.0, 6.0)], vec![3.0], 1),
            (vec![iv(0.0, 10.0), iv(4.0, 6.0)], vec![6.0], 1),
            (
                vec![iv(0.0, 8.0), iv(2.0, 6.0), iv(3.0, 5.0)],
                vec![2.0, 2.0],
                2,
            ),
            (vec![iv(-2.0, 2.0), iv(-1.0, 3.0)], vec![4.0], 1),
        ];
        for (correct, widths, f) in cases {
            let exact = optimal_attack(&correct, &widths, f).unwrap();
            let brute = brute_force_attack(&correct, &widths, f, 1.0).unwrap();
            assert_eq!(
                exact.width(),
                brute.width(),
                "case correct={correct:?} widths={widths:?} f={f}"
            );
        }
    }

    #[test]
    fn signed_subset_sums_enumerate_correctly() {
        let sums = |widths: &[f64], max_terms| {
            let (mut sums, mut frontier) = (vec![7.0], vec![(7.0, 9, 9)]);
            signed_subset_sums(widths, max_terms, &mut sums, &mut frontier);
            sums
        };
        assert_eq!(sums(&[1.0, 10.0], 1), vec![-10.0, -1.0, 0.0, 1.0, 10.0]);
        let sums2 = sums(&[1.0, 10.0], 2);
        assert!(sums2.contains(&11.0));
        assert!(sums2.contains(&-9.0));
        assert!(sums2.contains(&9.0));
        assert_eq!(sums(&[], 3), vec![0.0]);
        assert_eq!(sums(&[5.0], 0), vec![0.0]);
    }

    #[test]
    fn too_many_attacked_intervals_are_a_typed_error() {
        let correct = [iv(0.0, 1.0); 12];
        let capacity = AttackError::SolverCapacity { fa: 5, max: 4 };
        assert_eq!(optimal_attack(&correct, &[1.0; 5], 5), Err(capacity));
        assert_eq!(
            LatticeSolver::new().solve(&correct, &[1.0; 5], 5),
            Err(capacity)
        );
    }
}
