//! A host-speed probe. The benchmark runs on a shared host whose vCPUs
//! slow down by up to half for seconds at a time, each on its own
//! schedule, and those slowdowns lengthen a call's CPU time as much as
//! its wall time, because the guest cannot see them. The probe measures
//! them where the call runs: one background thread pinned to each CPU
//! the call uses runs a fixed burst a few times a second and records the
//! burst's thread CPU time. A burst does identical work every time and
//! uses none of the repository's code, so its time moves only with the
//! host.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Random read-modify-writes per burst.
const STEPS: usize = 150_000;
/// Words in the burst's buffer (8 MiB: the size of the largest
/// workload's resident set, so the burst feels the same cache
/// pressure).
const WORDS: usize = 1 << 20;
/// Pause between bursts.
const PERIOD: Duration = Duration::from_millis(40);
/// The burst time every host-normalised figure is scaled to: a
/// normalised time is what the call would take on a host where one
/// burst takes this long. On the 2-vCPU Intel Xeon reference host a
/// burst took 1.2–2.9 ms.
pub const NOMINAL_S: f64 = 1.0e-3;

/// One burst: xorshift-addressed read-modify-writes over `buf`.
fn burst(buf: &mut [u64]) -> u64 {
    let mut x = 0x9e37_79b9_7f4a_7c15_u64;
    let mut acc = 0;
    for _ in 0..STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = (x as usize) % buf.len();
        buf[i] = buf[i].wrapping_add(x);
        acc ^= buf[i];
    }
    acc
}

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
}

/// CPU seconds the calling thread has used.
fn thread_cpu_seconds() -> f64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `Timespec` matches the C `struct timespec` on 64-bit Linux,
    // `ts` is a live, writable value of that type, and
    // CLOCK_THREAD_CPUTIME_ID (3) is a valid clock.
    let rc = unsafe { clock_gettime(3, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// The CPUs the calling thread may run on.
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; 16];
    // SAFETY: `mask` is a writable 1024-bit `cpu_set_t`; pid 0 is the
    // calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    assert!(rc >= 0, "sched_getaffinity failed");
    (0..1024)
        .filter(|&c| mask[c / 64] & (1 << (c % 64)) != 0)
        .collect()
}

/// Restricts the calling thread (and the threads it spawns later) to
/// `cpus`.
pub fn pin(cpus: &[usize]) {
    let mut mask = [0u64; 16];
    for &c in cpus {
        mask[c / 64] |= 1 << (c % 64);
    }
    // SAFETY: `mask` is a 1024-bit `cpu_set_t` naming CPUs the thread
    // was already allowed; pid 0 is the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    assert_eq!(rc, 0, "sched_setaffinity({cpus:?}) failed");
}

fn median(v: &mut [f64]) -> Option<f64> {
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => None,
        n if n % 2 == 1 => Some(v[n / 2]),
        n => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

type Samples = Arc<Mutex<Vec<(Instant, f64)>>>;

/// Probe threads, one per CPU; [`Probe::finish`] stops and joins them.
pub struct Probe {
    stop: Arc<AtomicBool>,
    threads: Vec<(Samples, JoinHandle<()>)>,
}

impl Probe {
    /// Starts one probe thread on each of `cpus` and returns once every
    /// thread's buffer is resident.
    pub fn start(cpus: &[usize]) -> Probe {
        let stop = Arc::new(AtomicBool::new(false));
        let ready = Arc::new(Barrier::new(cpus.len() + 1));
        let threads = cpus
            .iter()
            .map(|&cpu| {
                let samples: Samples = Arc::default();
                let (stop, out) = (Arc::clone(&stop), Arc::clone(&samples));
                let ready = Arc::clone(&ready);
                let handle = std::thread::spawn(move || {
                    pin(&[cpu]);
                    let mut buf = vec![1u64; WORDS];
                    ready.wait();
                    while !stop.load(Ordering::Relaxed) {
                        let at = Instant::now();
                        let c0 = thread_cpu_seconds();
                        std::hint::black_box(burst(&mut buf));
                        let cpu_s = thread_cpu_seconds() - c0;
                        out.lock().expect("probe samples").push((at, cpu_s));
                        std::thread::sleep(PERIOD);
                    }
                });
                (samples, handle)
            })
            .collect();
        ready.wait();
        Probe { stop, threads }
    }

    /// The probe buffers' share of the process's resident set, in MB.
    pub fn resident_mb(&self) -> f64 {
        (self.threads.len() * WORDS * std::mem::size_of::<u64>()) as f64 / (1024.0 * 1024.0)
    }

    fn bursts(&self, thread: usize, from: Instant, to: Instant) -> Vec<f64> {
        self.threads[thread]
            .0
            .lock()
            .expect("probe samples")
            .iter()
            .filter(|(at, _)| *at >= from && *at <= to)
            .map(|&(_, s)| s)
            .collect()
    }

    /// How much slower than nominal the probed CPUs ran over
    /// `[from, to]`: the mean over CPUs of the median time of the bursts
    /// that started in that window (or in the two periods before it, so
    /// a short window still holds one), over [`NOMINAL_S`]. `None` if a
    /// CPU ran no such burst.
    pub fn slowdown(&self, from: Instant, to: Instant) -> Option<f64> {
        let from = from.checked_sub(2 * PERIOD).unwrap_or(from);
        let mut sum = 0.0;
        for t in 0..self.threads.len() {
            sum += median(&mut self.bursts(t, from, to))?;
        }
        Some(sum / self.threads.len() as f64 / NOMINAL_S)
    }

    /// The fastest burst so far, in seconds: on a quiet host, about
    /// [`NOMINAL_S`].
    pub fn fastest(&self) -> f64 {
        self.threads
            .iter()
            .flat_map(|(samples, _)| {
                let v: Vec<f64> = samples
                    .lock()
                    .expect("probe samples")
                    .iter()
                    .map(|&(_, s)| s)
                    .collect();
                v
            })
            .fold(f64::INFINITY, f64::min)
    }

    /// CPU seconds of the bursts that started in `[from, to]`.
    pub fn cpu_seconds(&self, from: Instant, to: Instant) -> f64 {
        (0..self.threads.len())
            .map(|t| self.bursts(t, from, to).iter().sum::<f64>())
            .sum()
    }

    pub fn finish(self) {
        self.stop.store(true, Ordering::Relaxed);
        for (_, handle) in self.threads {
            handle.join().expect("probe thread panicked");
        }
    }
}
