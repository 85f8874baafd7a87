//! Calibrated host time.
//!
//! On a shared virtual machine the speed of one vCPU moves by up to 1.7x
//! within seconds (neighbours load the same physical core), and thread CPU
//! time does not remove that: it tracks wall time within 2%, because the
//! thread is slowed while it runs, not descheduled. Every time the
//! benchmark reports is therefore divided by the host's current slowness,
//! measured by a fixed reference kernel that the benchmark runs between
//! units of work (never inside a call into the program).
//!
//! The kernel is kept apart from the program as far as one process allows:
//! it works only in a buffer allocated once, before the workload starts, and
//! never touches the heap the program allocates from; and the first run of
//! every burst, which finds its buffer evicted by the work just done, is
//! discarded. What the two still share is the core and its caches, which is
//! what the kernel exists to sample.
//!
//! The contention slows cache- and memory-heavy code far more than
//! arithmetic, so each workload is calibrated by the kernel that resembles
//! it: [`Kernel::Scatter`] for the simulations, [`Kernel::Stream`] for the
//! classification campaign.

use std::time::{Duration, Instant};

/// A reference kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// Scattered read-modify-writes over a 2 MiB table and binary searches
    /// of a sorted 32 KiB index (the dependent loads of an ordered-map
    /// descent): what the packet simulations do.
    Scatter,
    /// Add-rotate-xor rounds streamed sequentially into an 8 MiB buffer:
    /// what ChaCha-driven struct-of-arrays fills do.
    Stream,
}

/// Words of the [`Kernel::Scatter`] table and of its sorted index.
const SCATTER_TABLE: usize = 1 << 18;
const SCATTER_INDEX: usize = 1 << 12;

impl Kernel {
    /// A fixed scale: about the seconds one run of the kernel took on a
    /// lightly loaded core of the host the baseline in `perfbench/README.md`
    /// was recorded on. Calibrated seconds are host seconds at that speed.
    pub fn nominal_s(self) -> f64 {
        match self {
            Kernel::Scatter => 0.000_4,
            Kernel::Stream => 0.002_2,
        }
    }

    fn words(self) -> usize {
        match self {
            Kernel::Scatter => SCATTER_TABLE + SCATTER_INDEX,
            Kernel::Stream => 1 << 20,
        }
    }

    /// The kernel's buffer, allocated once: zeroed, and for
    /// [`Kernel::Scatter`] ending in its sorted index.
    fn buffer(self) -> Vec<u64> {
        let mut buf = vec![0; self.words()];
        if self == Kernel::Scatter {
            for (i, w) in buf[SCATTER_TABLE..].iter_mut().enumerate() {
                *w = (i as u64) << 12;
            }
        }
        buf
    }

    /// Runs the kernel once over `buf` (from [`Kernel::buffer`]) and returns
    /// the seconds it took. It allocates nothing.
    pub fn run(self, buf: &mut [u64]) -> f64 {
        let start = Instant::now();
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        match self {
            Kernel::Scatter => {
                let (table, index) = buf.split_at_mut(SCATTER_TABLE);
                let mask = table.len() - 1;
                for i in 0..100_000u64 {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let j = (x as usize) & mask;
                    table[j] = table[j].wrapping_add(i ^ x);
                    if i % 16 == 0 {
                        let k = index.partition_point(|&v| v < x >> 40);
                        table[(k << 6) & mask] ^= x;
                    }
                }
            }
            Kernel::Stream => {
                let mut y: u64 = 0x6A09_E667_F3BC_C908;
                for w in buf.chunks_exact_mut(2) {
                    for _ in 0..2 {
                        x = x.wrapping_add(y);
                        y ^= x;
                        y = y.rotate_left(16);
                        x = x.wrapping_add(y);
                        y ^= x;
                        y = y.rotate_left(12);
                    }
                    w[0] = x;
                    w[1] = y;
                }
            }
        }
        std::hint::black_box(&buf);
        start.elapsed().as_secs_f64()
    }
}

/// Share of wall time spent sampling: after `d` of work, the next tick runs
/// the kernel for `d * SAMPLE_SHARE` (at least once), so the samples cover
/// the run evenly however long its units are.
const SAMPLE_SHARE: f64 = 0.1;

/// Ticks closer together than this take no sample.
const MIN_GAP: Duration = Duration::from_millis(20);

/// Reference-kernel samples taken through one run.
pub struct Calibration {
    kernel: Kernel,
    samples: Vec<f64>,
    last: Instant,
    buf: Vec<u64>,
}

impl Calibration {
    /// Starts a calibration by `kernel` with one burst.
    pub fn new(kernel: Kernel) -> Self {
        let mut c = Calibration { kernel, samples: Vec::new(), last: Instant::now(), buf: kernel.buffer() };
        c.burst(0.0);
        c
    }

    /// The kernel in use.
    pub fn kernel(&self) -> Kernel {
        self.kernel
    }

    /// Samples the kernel in proportion to the time since the last sample.
    /// Call between units of work.
    pub fn tick(&mut self) {
        let gap = self.last.elapsed();
        if gap < MIN_GAP {
            return;
        }
        self.burst(gap.as_secs_f64() * SAMPLE_SHARE);
    }

    /// Runs the kernel once unrecorded (the cold run), then recorded for
    /// about `secs` (at least once).
    fn burst(&mut self, secs: f64) {
        self.kernel.run(&mut self.buf);
        let start = Instant::now();
        loop {
            self.samples.push(self.kernel.run(&mut self.buf));
            if start.elapsed().as_secs_f64() >= secs {
                break;
            }
        }
        self.last = Instant::now();
    }

    /// Times `f`, then samples the kernel for a tenth of that; returns the
    /// result and the calibrated seconds of `f` by those samples alone. For
    /// set-up steps, which run at one moment of the run.
    pub fn timed<R>(&mut self, f: impl FnOnce() -> R) -> (R, f64) {
        let t0 = Instant::now();
        let out = f();
        let host = t0.elapsed().as_secs_f64();
        let from = self.samples.len();
        self.burst(host * SAMPLE_SHARE);
        let local = mean(&self.samples[from..]) / self.kernel.nominal_s();
        (out, host / local)
    }

    /// How much slower than nominal the host ran: mean kernel time over the
    /// nominal time.
    pub fn slowness(&self) -> f64 {
        mean(&self.samples) / self.kernel.nominal_s()
    }

    /// A mark for [`slowness_since`](Self::slowness_since).
    pub fn mark(&self) -> usize {
        self.samples.len()
    }

    /// The slowness by the samples taken since `mark` (by all samples when
    /// none were).
    pub fn slowness_since(&self, mark: usize) -> f64 {
        match &self.samples[mark.min(self.samples.len())..] {
            [] => self.slowness(),
            recent => mean(recent) / self.kernel.nominal_s(),
        }
    }

    /// Host seconds converted to calibrated seconds.
    pub fn calibrate(&self, host_s: f64) -> f64 {
        host_s / self.slowness()
    }

    /// Bytes of the kernel's buffer, all of them resident once it has run:
    /// the benchmark's share of the process's peak resident set.
    pub fn buffer_bytes(&self) -> usize {
        self.buf.len() * std::mem::size_of::<u64>()
    }

    /// Number of samples taken.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Fastest sample, in seconds.
    pub fn fastest(&self) -> f64 {
        self.samples.iter().copied().fold(f64::INFINITY, f64::min)
    }
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_scales_by_mean_kernel_time() {
        let mut c = Calibration::new(Kernel::Scatter);
        c.samples = vec![2.0 * Kernel::Scatter.nominal_s(), 4.0 * Kernel::Scatter.nominal_s()];
        assert!((c.slowness() - 3.0).abs() < 1e-12);
        assert!((c.calibrate(6.0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn timed_returns_the_result_and_a_positive_time() {
        let mut c = Calibration::new(Kernel::Stream);
        let before = c.count();
        let (v, secs) = c.timed(|| (0..1000u64).sum::<u64>());
        assert_eq!(v, 499_500);
        assert!(secs > 0.0);
        assert!(c.count() > before, "a burst follows the timed step");
    }

    #[test]
    fn kernels_allocate_nothing() {
        for kernel in [Kernel::Scatter, Kernel::Stream] {
            let mut buf = kernel.buffer();
            let a0 = crate::alloc::Allocs::now();
            kernel.run(&mut buf);
            assert_eq!(a0.since(), crate::alloc::Allocs::default(), "{kernel:?}");
        }
    }

    #[test]
    fn scatter_index_is_sorted() {
        let buf = Kernel::Scatter.buffer();
        assert!(buf[SCATTER_TABLE..].windows(2).all(|w| w[0] < w[1]));
    }
}
