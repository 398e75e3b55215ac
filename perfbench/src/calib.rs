//! Host-speed calibration for the end-to-end timings.
//!
//! The benchmark runs on a few cores of a shared host. Other tenants'
//! load slows this process by up to a third, in phases that last from
//! milliseconds to minutes, so two runs of the same code a minute apart
//! can differ by more than any regression bound. Longer runs do not
//! help: on a 2-core Xeon guest, medians of 24 s and of 60 s windows of
//! `election-fabric` spread alike, 13–17 % between their quartiles.
//!
//! A fixed piece of the benchmark's own work slows by the same factor:
//! a small event loop over a binary heap, a hash map and a frame-sized
//! byte buffer, the kind of work the simulator does. Run after every
//! simulated slice on the same thread, its burst times follow the
//! repetition times with a correlation of 0.85–0.98 (a register-only
//! loop reaches 0.6). The untraced run runs short bursts of it beside
//! each repetition and divides the repetition's host times by the
//! bursts' slowdown against [`NOMINAL_NS_PER_EVENT`]: the end-to-end
//! times are host seconds at the nominal host speed. A single `World`
//! runs a burst after every simulated slice; a campaign, whose runs the
//! runner schedules, runs bursts on every worker core at each boundary
//! between its phases, and each phase takes the mean slowdown of the
//! bursts on either side of it.
//!
//! The calibration is the benchmark's code, not the program's, so a
//! change to the program moves the program's times and not the factor.
//! It allocates nothing after construction, and each burst reads its
//! own state untimed before it starts, so neither the program's heap nor
//! what the program left in cache sets the burst's time.

use std::cmp::Reverse;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BinaryHeap, HashMap};
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

/// Events of one burst: about 0.13 ms on the reference host.
const BURST: u32 = 256;

/// Host nanoseconds per calibration event that count as a slowdown of 1:
/// about the median on the 2-core Xeon guest the bounds were set on.
pub const NOMINAL_NS_PER_EVENT: f64 = 520.0;

/// Events in flight in the calibration's queue.
const QUEUE: u64 = 64;

/// Largest frame the calibration writes, in bytes.
const FRAME: usize = 1_500;

/// The calibration's state and the host time its bursts took.
pub struct Meter {
    queue: BinaryHeap<Reverse<(u64, u32)>>,
    /// Deterministic hasher: every run does the same work.
    table: HashMap<u16, u64, BuildHasherDefault<DefaultHasher>>,
    frame: Vec<u8>,
    rng: u64,
    events: u64,
    host_s: f64,
}

impl Meter {
    pub fn new() -> Meter {
        let mut table = HashMap::default();
        table.reserve(512);
        Meter {
            queue: (0..QUEUE).map(|i| Reverse((i * 1_000, i as u32))).collect(),
            table,
            frame: vec![0; FRAME],
            rng: 0x853c_49e6_748f_ea9b,
            events: 0,
            host_s: 0.0,
        }
    }

    /// Runs one burst of [`BURST`] events. It first reads all of its
    /// state untimed, so the burst starts with its data in cache whatever
    /// the program left there, and the program's cache footprint does not
    /// set the burst's time.
    pub fn burst(&mut self) {
        black_box(self.table.values().fold(0u64, |s, &v| s.wrapping_add(v)));
        black_box(self.queue.iter().fold(0u64, |s, e| s.wrapping_add(e.0 .0)));
        black_box(
            self.frame
                .iter()
                .fold(0u64, |s, &b| s.wrapping_add(u64::from(b))),
        );
        let t = Instant::now();
        let mut sum = 0u64;
        for _ in 0..BURST {
            let Reverse((at, id)) = self.queue.pop().expect("the queue never drains");
            let mut x = self.rng;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.rng = x;
            let len = 64 + (x % (FRAME as u64 - 64)) as usize;
            for (j, b) in self.frame[..len].iter_mut().enumerate() {
                *b = (j as u64 ^ x) as u8;
            }
            sum = self.frame[..len]
                .iter()
                .fold(sum, |s, &b| s.wrapping_add(u64::from(b)));
            *self.table.entry((x % 512) as u16).or_insert(0) += at;
            self.queue.push(Reverse((at + 1 + x % 5_000, id)));
        }
        black_box(sum);
        self.host_s += t.elapsed().as_secs_f64();
        self.events += u64::from(BURST);
    }

    /// Host time the bursts took, in seconds.
    pub fn host_s(&self) -> f64 {
        self.host_s
    }
}

/// Runs `n` bursts on every meter at once, each on its own thread (the
/// first on the calling one), so the slowdown covers every core the
/// workload's worker threads use. Returns the slowdown of these bursts;
/// 1 without meters.
pub fn bursts_together(meters: &mut [Meter], n: usize) -> f64 {
    let (host_s, events) = totals(meters);
    let Some((first, rest)) = meters.split_first_mut() else {
        return 1.0;
    };
    std::thread::scope(|scope| {
        for m in rest {
            scope.spawn(move || (0..n).for_each(|_| m.burst()));
        }
        (0..n).for_each(|_| first.burst());
    });
    let (host_after, events_after) = totals(meters);
    ratio(host_after - host_s, events_after - events)
}

/// How much slower than nominal the host ran every burst of the meters;
/// 1 when none ran.
pub fn slowdown(meters: &[Meter]) -> f64 {
    let (host_s, events) = totals(meters);
    ratio(host_s, events)
}

fn totals(meters: &[Meter]) -> (f64, u64) {
    (
        meters.iter().map(|m| m.host_s).sum(),
        meters.iter().map(|m| m.events).sum(),
    )
}

fn ratio(host_s: f64, events: u64) -> f64 {
    if events == 0 {
        return 1.0;
    }
    host_s * 1e9 / events as f64 / NOMINAL_NS_PER_EVENT
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_bursts_is_no_slowdown() {
        assert_eq!(slowdown(&[Meter::new()]), 1.0);
        assert_eq!(bursts_together(&mut [], 3), 1.0);
    }

    #[test]
    fn bursts_together_run_on_every_meter() {
        let mut meters = [Meter::new(), Meter::new()];
        let s = bursts_together(&mut meters, 2);
        assert!(s > 0.0 && s.is_finite());
        for m in &meters {
            assert_eq!(m.events, 2 * u64::from(BURST));
        }
        assert_eq!(slowdown(&meters), s);
    }
}
