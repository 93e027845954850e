//! Host-speed calibration.
//!
//! The benchmark shares its CPUs with other tenants, and on such a host the
//! speed of one core moves by up to 2x over tens of seconds with no steal
//! or run-queue wait to show for it: every instruction just takes longer.
//! Thread CPU time moves with wall time, so it does not help. What does is
//! a fixed piece of work timed next to every op: a [`Kernel`] runs right
//! before each op, and the op's time is rescaled by how much slower or
//! faster the kernel ran than on the reference host. Reported op times are
//! thus *reference seconds*: what the op would take on that host, with the
//! host's passing speed divided out.
//!
//! The kernels are code of the benchmark's own, not of the program, so no
//! change to the program moves them. Contention does not slow all code
//! alike: a busy neighbour slows dense floating-point loops more than
//! branchy integer code. Each workload therefore names the kernel whose
//! slowdown tracks its own. On a 2-vCPU Intel Xeon guest, regressing the
//! log of op time (less its input's mean) on the log of kernel time over
//! the op-to-op swings of one 45-second run gave a slope of 0.93 for
//! `table1_sim` on [`Kernel::Dense`] but 1.51 on [`Kernel::Mixed`], and
//! 0.89 for `opamp_flow` and 1.28 for `grid_eval` on [`Kernel::Mixed`];
//! 1 is perfect tracking. `ga_ckpt` gave 0.42 on [`Kernel::Mixed`], and
//! 0.47 across runs whose host speed differed by a quarter: about half its
//! op time goes to file commits (the traced run's `ckpt.write_s`), which do
//! not slow with the CPU, so only its CPU share is rescaled (see
//! [`Calibration`]). Changing a kernel, its reference time or a CPU share
//! rescales every time the benchmark reports, so do none of these in a
//! change that is being measured.

use std::hint::black_box;
use std::time::Instant;

/// How a workload's op time follows the host's speed.
#[derive(Clone, Copy)]
pub struct Calibration {
    /// The kernel whose slowdown tracks the workload's CPU work.
    pub kernel: Kernel,
    /// The share of op time, at reference speed, that is CPU work and
    /// scales with the host's speed; the rest waits on the disk.
    pub cpu_share: f64,
}

impl Calibration {
    /// Rescales `seconds` of op time to reference seconds, given the time
    /// the kernel took next to it: the CPU share is multiplied by the
    /// host's speed and the rest is kept as measured.
    pub fn rescale(self, seconds: f64, kernel_s: f64) -> f64 {
        let speed = self.kernel.speed(kernel_s);
        seconds / (self.cpu_share / speed + 1.0 - self.cpu_share)
    }
}

/// A calibration kernel.
#[derive(Clone, Copy)]
pub enum Kernel {
    /// Dense floating-point elimination, as in the simulator's small LU
    /// solves.
    Dense,
    /// Dense elimination and a data-dependent integer sift through a
    /// binary heap, as in the router's priority queue.
    Mixed,
}

/// Side of the dense matrix the kernels factor.
const N: usize = 40;
/// Keys sifted through the heap by [`Kernel::Mixed`].
const KEYS: usize = 2048;

impl Kernel {
    /// Runs the kernel once and returns how long it took, seconds.
    pub fn time(self) -> f64 {
        let t0 = Instant::now();
        match self {
            Kernel::Dense => black_box(eliminate(black_box(10))),
            Kernel::Mixed => black_box(eliminate(black_box(5)) + sift(black_box(KEYS))),
        };
        t0.elapsed().as_secs_f64()
    }

    /// Host speed relative to the reference host, above 1 when this host
    /// ran the kernel faster, from one of its times in seconds.
    pub fn speed(self, seconds: f64) -> f64 {
        self.reference_s() / seconds
    }

    /// Seconds the kernel took, median over a run, on a 2-vCPU Intel Xeon
    /// guest at its usual speed. Only the ratio to it matters.
    fn reference_s(self) -> f64 {
        match self {
            Kernel::Dense => 1.3e-4,
            Kernel::Mixed => 3.0e-4,
        }
    }
}

/// Gaussian elimination with partial pivoting of a fixed `N`×`N` matrix,
/// `factors` times.
fn eliminate(factors: usize) -> f64 {
    let mut acc = 0.0;
    let mut a = vec![0.0f64; N * N];
    for rep in 0..factors {
        for i in 0..N {
            for j in 0..N {
                let diag = if i == j { 4.0 * N as f64 } else { 0.0 };
                a[i * N + j] = ((i * 7 + j * 13 + rep) % 17) as f64 + diag;
            }
        }
        for k in 0..N {
            let p = (k..N)
                .max_by(|&x, &y| a[x * N + k].abs().total_cmp(&a[y * N + k].abs()))
                .unwrap_or(k);
            if p != k {
                for j in 0..N {
                    a.swap(k * N + j, p * N + j);
                }
            }
            let d = a[k * N + k];
            for i in k + 1..N {
                let f = a[i * N + k] / d;
                for j in k..N {
                    a[i * N + j] -= f * a[k * N + j];
                }
            }
        }
        acc += a[N * N - 1];
    }
    acc
}

/// A binary min-heap filled with `keys` keys from an xorshift stream, then
/// drained.
fn sift(keys: usize) -> f64 {
    let mut heap: Vec<u64> = Vec::with_capacity(keys);
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..keys {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        heap.push(x);
        let mut i = heap.len() - 1;
        while i > 0 && heap[(i - 1) / 2] > heap[i] {
            heap.swap(i, (i - 1) / 2);
            i = (i - 1) / 2;
        }
    }
    let mut order = 0u64;
    while let Some(last) = heap.pop() {
        if heap.is_empty() {
            order = order.wrapping_add(last);
            break;
        }
        order = order.wrapping_add(heap[0]);
        heap[0] = last;
        let mut i = 0;
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut m = i;
            if l < heap.len() && heap[l] < heap[m] {
                m = l;
            }
            if r < heap.len() && heap[r] < heap[m] {
                m = r;
            }
            if m == i {
                break;
            }
            heap.swap(i, m);
            i = m;
        }
    }
    (order % 1024) as f64
}
