//! Instrumentation the benchmark wraps around the library: timed calls
//! into [`Mutator`], per-thread CPU from `/proc`, the host-speed probe and
//! run provenance.

use std::time::{Duration, Instant};

use otf_gc::{AllocError, Mutator, ObjShape, ObjectRef};
use otf_support::hist::Histogram;

/// A [`Mutator`] whose `alloc`, `write_ref`, `read_ref` and `cooperate`
/// calls are counted and, in a traced run, timed one by one.
///
/// The untraced path adds one predictable branch per call, so the
/// end-to-end run and the traced run execute the same workload code.
pub struct Timed {
    /// The wrapped mutator, for the calls that are not timed (data words,
    /// shadow-stack roots).
    pub m: Mutator,
    traced: bool,
    /// Per-call latency of `alloc`, in ns (traced runs only).
    pub alloc_ns: Histogram,
    /// Per-call latency of `write_ref`, in ns (traced runs only).
    pub write_ref_ns: Histogram,
    /// Per-call latency of `read_ref`, in ns (traced runs only).
    pub read_ref_ns: Histogram,
    /// Per-call latency of the explicit `cooperate` calls, in ns (traced
    /// runs only).
    pub cooperate_ns: Histogram,
    /// Successful `alloc` calls over this mutator's life.  The collector's
    /// own `objects_allocated` must equal it at the end of a run.
    pub allocs: u64,
    /// `write_ref` calls over this mutator's life.
    pub write_refs: u64,
}

#[inline]
fn time_into<R>(traced: bool, hist: &Histogram, f: impl FnOnce() -> R) -> R {
    if traced {
        let t0 = Instant::now();
        let r = f();
        hist.record_duration(t0.elapsed());
        r
    } else {
        f()
    }
}

impl Timed {
    pub fn new(m: Mutator, traced: bool) -> Timed {
        Timed {
            m,
            traced,
            alloc_ns: Histogram::new(),
            write_ref_ns: Histogram::new(),
            read_ref_ns: Histogram::new(),
            cooperate_ns: Histogram::new(),
            allocs: 0,
            write_refs: 0,
        }
    }

    /// Empties the call histograms, so they cover the timed window only.
    pub fn reset_histograms(&mut self) {
        for h in [
            &mut self.alloc_ns,
            &mut self.write_ref_ns,
            &mut self.read_ref_ns,
            &mut self.cooperate_ns,
        ] {
            *h = Histogram::new();
        }
    }

    #[inline]
    pub fn alloc(&mut self, shape: &ObjShape) -> Result<ObjectRef, AllocError> {
        let m = &mut self.m;
        let r = time_into(self.traced, &self.alloc_ns, || m.alloc(shape));
        if r.is_ok() {
            self.allocs += 1;
        }
        r
    }

    #[inline]
    pub fn write_ref(&mut self, x: ObjectRef, i: usize, y: ObjectRef) {
        let m = &mut self.m;
        time_into(self.traced, &self.write_ref_ns, || m.write_ref(x, i, y));
        self.write_refs += 1;
    }

    #[inline]
    pub fn read_ref(&self, x: ObjectRef, i: usize) -> ObjectRef {
        time_into(self.traced, &self.read_ref_ns, || self.m.read_ref(x, i))
    }

    #[inline]
    pub fn cooperate(&mut self) {
        let m = &mut self.m;
        time_into(self.traced, &self.cooperate_ns, || m.cooperate());
    }
}

/// `cpu_set_t` as glibc declares it: a bit mask over 1024 CPUs.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// Pins the calling thread to the first CPU it may run on and returns
/// that CPU.  Threads it creates afterwards inherit the mask, so calling
/// this first puts the mutator and every collector thread on one CPU.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    let mut mask: CpuSet = [0; 16];
    // SAFETY: `mask` is a live, writable `cpu_set_t`-sized buffer and the
    // size passed is its size; pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut mask) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpu = (0..1024)
        .find(|&c| mask[c / 64] & (1 << (c % 64)) != 0)
        .ok_or("no CPU in the affinity mask")?;
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live `cpu_set_t`-sized buffer, only read by the
    // call; pid 0 names the calling thread.
    if unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}

/// The mean cost of timing one call in a traced run, measured on an
/// empty call.  The per-call means of a traced run include it.
pub fn timer_ns() -> f64 {
    let hist = Histogram::new();
    for i in 0..1_000_000u64 {
        time_into(true, &hist, || std::hint::black_box(i));
    }
    hist.mean()
}

/// CPU time of every thread of this process, in ns, keyed by thread id,
/// with each thread's name.  Read from `/proc/self/task/*/schedstat`,
/// whose first field is the time the thread has spent on a CPU.
pub fn thread_cpu() -> Vec<(u64, String, u64)> {
    let mut out = Vec::new();
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return out;
    };
    for entry in dir.flatten() {
        let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
            continue;
        };
        let path = entry.path();
        let ns = std::fs::read_to_string(path.join("schedstat"))
            .ok()
            .and_then(|s| s.split_whitespace().next()?.parse().ok());
        let name = std::fs::read_to_string(path.join("comm")).unwrap_or_default();
        if let Some(ns) = ns {
            out.push((tid, name.trim().to_string(), ns));
        }
    }
    out
}

/// CPU spent between two [`thread_cpu`] readings.
pub struct CpuUse {
    /// All threads; a thread born in between counts from zero.
    pub all: Duration,
    /// The main thread, the benchmark's mutator.
    pub main: Duration,
    /// The collector thread (named "otf-gc-collector", which the kernel
    /// cuts to 15 bytes).
    pub collector: Duration,
}

pub fn cpu_between(before: &[(u64, String, u64)], after: &[(u64, String, u64)]) -> CpuUse {
    let pid = u64::from(std::process::id());
    let mut used = CpuUse {
        all: Duration::ZERO,
        main: Duration::ZERO,
        collector: Duration::ZERO,
    };
    for (tid, name, ns) in after {
        let base = before.iter().find(|b| b.0 == *tid).map_or(0, |b| b.2);
        let d = Duration::from_nanos(ns.saturating_sub(base));
        used.all += d;
        if *tid == pid {
            used.main += d;
        }
        if name == "otf-gc-collecto" {
            used.collector += d;
        }
    }
    used
}

/// The host-speed probes, taken before a run's first session.
pub struct Host {
    pub spin_ms: f64,
    pub mem_ns: f64,
}

impl Host {
    pub fn measure() -> Host {
        Host {
            spin_ms: spin_ms(),
            mem_ns: mem_ns(),
        }
    }
}

/// Times a fixed integer-mixing loop that touches no memory.  Its wall
/// time moves only with the host's speed and load, so a run's figures
/// can be read against the speed of the machine at the time.
fn spin_ms() -> f64 {
    const ROUNDS: u64 = 40_000_000;
    let t0 = Instant::now();
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    for i in 0..ROUNDS {
        x = (x ^ i).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        x ^= x >> 29;
    }
    std::hint::black_box(x);
    t0.elapsed().as_secs_f64() * 1e3
}

/// Mean latency of a dependent load, in ns, over a 16 MB chain visited
/// in a scrambled order.  The spin loop cannot see the host's memory
/// slowing down; this probe does, and the workloads are memory-bound.
fn mem_ns() -> f64 {
    const LEN: usize = 4 << 20;
    const STEPS: usize = 1 << 20;
    // A full-period LCG over the power-of-two length (Hull-Dobell), so
    // the chain is one cycle through every slot.
    let next = |i: usize| {
        i.wrapping_mul(0x5851_F42D_4C95_7F2D)
            .wrapping_add(0x1405_7B7E_F767_814F)
            % LEN
    };
    let chain: Vec<u32> = (0..LEN).map(|i| next(i) as u32).collect();
    let t0 = Instant::now();
    let mut i = 0usize;
    for _ in 0..STEPS {
        i = chain[i] as usize;
    }
    std::hint::black_box(i);
    t0.elapsed().as_secs_f64() * 1e9 / STEPS as f64
}

/// The checked-out commit, read from `.git` without running git;
/// `"unknown"` outside a git checkout.
pub fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(&format!(".git/{name}")) {
        return rev.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(name))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The nearest-rank `q`-quantile of sorted latencies in ns (0 when
/// empty).
pub fn quantile_ns(sorted: &[u32], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    f64::from(sorted[rank - 1])
}
