//! Machine-speed calibration for the reported times.
//!
//! On a shared host the speed of the same single-threaded code changes by
//! up to 1.7× within minutes, as other tenants load the caches and memory
//! the benchmark uses: identical quick-suite passes took 4.3 s to 7.6 s
//! in one five-minute process. Medians within a run cannot remove a change
//! that lasts longer than the run. So every timed operation runs between
//! two runs of a fixed kernel of the benchmark's own — integer mixing,
//! random `HashMap` inserts and lookups in a table of a few MiB, and many
//! short rows filled, sorted, and sorted by content, the kinds of work the
//! search does — and its time is reported scaled by `REFERENCE_S` over the mean
//! kernel time around it: the time the operation would take on a machine
//! where the kernel takes `REFERENCE_S`. The kernel calls nothing of the
//! repository, so a faster program moves the scaled time and the kernel
//! does not. The raw times are printed beside the scaled ones.
//!
//! The kernel allocates its ~14 MiB once, when `Speed` is made, and then
//! only reuses it; the resident size that adds is measured then and taken
//! off the peak-memory metric.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Kernel time that defines the reference speed, seconds: about what the
/// kernel takes on a 2-vCPU Xeon guest with quiet neighbours.
pub const REFERENCE_S: f64 = 0.030;

/// A kernel run this recent still measures the speed before an operation.
const FRESH: Duration = Duration::from_millis(100);

/// The time of one operation.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// Wall time as measured, seconds.
    pub raw_s: f64,
    /// `REFERENCE_S` over the mean kernel time before and after.
    pub scale: f64,
}

impl Timing {
    /// Wall time scaled to the reference speed, seconds.
    pub fn scaled_s(&self) -> f64 {
        self.raw_s * self.scale
    }
}

/// Times operations between kernel runs.
pub struct Speed {
    kernel: RefCell<Kernel>,
    /// Resident memory the kernel's buffers added, MiB.
    kernel_mb: f64,
    /// The last kernel run: when it ended and how long it took.
    last: Cell<Option<(Instant, f64)>>,
    /// Every kernel time, seconds.
    kernels: RefCell<Vec<f64>>,
}

impl Speed {
    /// Allocates the kernel's buffers and runs it once to touch them.
    pub fn new() -> Speed {
        let before = crate::resident_mb("VmRSS");
        let mut kernel = Kernel::new();
        black_box(kernel.run());
        Speed {
            kernel_mb: crate::resident_mb("VmRSS") - before,
            kernel: RefCell::new(kernel),
            last: Cell::new(None),
            kernels: RefCell::new(Vec::new()),
        }
    }

    /// Runs `f` between two kernel runs (the one before is skipped when a
    /// kernel ended less than `FRESH` ago).
    pub fn time<T>(&self, f: impl FnOnce() -> T) -> (T, Timing) {
        let before = match self.last.take() {
            Some((at, secs)) if at.elapsed() < FRESH => secs,
            _ => self.kernel(),
        };
        let start = Instant::now();
        let out = f();
        let raw_s = start.elapsed().as_secs_f64();
        let after = self.kernel();
        let scale = REFERENCE_S / ((before + after) / 2.0);
        (out, Timing { raw_s, scale })
    }

    /// Every kernel time so far, seconds.
    pub fn kernels(&self) -> Vec<f64> {
        self.kernels.borrow().clone()
    }

    /// Peak resident memory of the process (`VmHWM`) without the kernel's
    /// buffers, MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        crate::resident_mb("VmHWM") - self.kernel_mb
    }

    fn kernel(&self) -> f64 {
        let start = Instant::now();
        black_box(self.kernel.borrow_mut().run());
        let secs = start.elapsed().as_secs_f64();
        self.last.set(Some((Instant::now(), secs)));
        self.kernels.borrow_mut().push(secs);
        secs
    }
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The fixed work, on buffers that keep their capacity between runs.
struct Kernel {
    table: HashMap<u64, u64>,
    rows: Vec<Vec<u32>>,
}

const ROWS: usize = 20_000;
const ROW_MAX: usize = 64;

impl Kernel {
    fn new() -> Kernel {
        Kernel {
            table: HashMap::with_capacity(1 << 18),
            rows: (0..ROWS).map(|_| Vec::with_capacity(ROW_MAX)).collect(),
        }
    }

    /// The same work on every call.
    fn run(&mut self) -> u64 {
        let mut state = 1;
        let mut acc = 0u64;
        for _ in 0..3_000_000 {
            acc ^= splitmix(&mut state);
        }

        self.table.clear();
        for i in 0..200_000 {
            self.table.insert(splitmix(&mut state) & 0xf_ffff, i);
        }
        for _ in 0..300_000 {
            if let Some(v) = self.table.get(&(splitmix(&mut state) & 0xf_ffff)) {
                acc = acc.wrapping_add(*v);
            }
        }

        for row in &mut self.rows {
            row.clear();
            let len = (splitmix(&mut state) % ROW_MAX as u64) as usize + 1;
            row.extend((0..len).map(|_| splitmix(&mut state) as u32));
            row.sort_unstable();
        }
        self.rows.sort();
        acc ^ u64::from(self.rows[0].first().copied().unwrap_or(0))
    }
}
