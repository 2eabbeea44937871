//! What the benchmark reads from the machine it runs on: processor count
//! and model, load average, CPU time and peak memory of itself and of its
//! child processes, and where its files go.

use std::path::{Path, PathBuf};
use std::time::Duration;

/// Threads the closed-loop load generator may use: `min(nproc, 4)`.
pub fn load_threads() -> usize {
    nproc().min(4)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The one-minute load average.
pub fn loadavg() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|t| t.split_whitespace().next().and_then(|x| x.parse().ok()))
        .unwrap_or(0.0)
}

/// The first eight counters of `/proc/stat`'s summary line (user, nice,
/// system, idle, iowait, irq, softirq, steal), in seconds summed over CPUs
/// since boot.
fn cpu_seconds() -> Option<[f64; 8]> {
    let text = std::fs::read_to_string("/proc/stat").ok()?;
    let mut fields = text.lines().next()?.split_whitespace().skip(1);
    let mut out = [0.0; 8];
    for slot in &mut out {
        *slot = fields.next()?.parse::<f64>().ok()? / sys::clock_ticks_per_s();
    }
    Some(out)
}

/// Seconds the hypervisor has run something else while a CPU of this
/// machine had work to do, summed over CPUs since boot; 0 where the kernel
/// does not report it.
pub fn steal_s() -> f64 {
    cpu_seconds().map_or(0.0, |c| c[7])
}

/// How long a run sleeps before it starts, to see what else the machine is
/// doing.
pub const SETTLE: Duration = Duration::from_millis(300);

/// CPUs' worth of work the machine does while this process sleeps for
/// [`SETTLE`]: everything in `/proc/stat` that is not idle or waiting for
/// I/O, steal included. The load average cannot say this between workloads:
/// for a minute it still holds the benchmark's own previous run.
pub fn others_busy_cpus() -> f64 {
    let busy = |c: [f64; 8]| c.iter().sum::<f64>() - c[3] - c[4];
    let before = cpu_seconds();
    let t0 = std::time::Instant::now();
    std::thread::sleep(SETTLE);
    match (before, cpu_seconds()) {
        (Some(b), Some(a)) => ((busy(a) - busy(b)) / t0.elapsed().as_secs_f64()).max(0.0),
        _ => 0.0,
    }
}

/// Whether that much foreign work leaves the benchmark less than one CPU of
/// its own.
pub fn is_noisy(others_busy_cpus: f64) -> bool {
    others_busy_cpus > nproc() as f64 - 1.0
}

/// CPU time and peak resident memory of a process, or of all the children
/// a process has waited for.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Usage {
    pub cpu: Duration,
    pub peak_rss_mib: f64,
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads /proc and 64-bit Linux's struct rusage");

mod sys {
    /// `struct rusage` of 64-bit Linux: two `timeval`s, then fourteen
    /// `long`s of which the first is `ru_maxrss` in KiB.
    #[repr(C)]
    #[derive(Default)]
    pub struct Rusage {
        pub utime: [i64; 2],
        pub stime: [i64; 2],
        pub maxrss: i64,
        rest: [i64; 13],
    }

    const _: () = assert!(std::mem::size_of::<Rusage>() == 144);

    pub const RUSAGE_SELF: i32 = 0;
    pub const RUSAGE_CHILDREN: i32 = -1;
    const SC_CLK_TCK: i32 = 2;

    /// `cpu_set_t`: 1024 CPUs, one bit each.
    type CpuSet = [u64; 16];

    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
        fn sysconf(name: i32) -> i64;
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    }

    /// Restricts the calling thread, and every process it spawns from now
    /// on, to the highest-numbered CPU it may run on. Returns that CPU.
    pub fn pin_to_one_cpu() -> Option<usize> {
        let mut allowed: CpuSet = [0; 16];
        // SAFETY: `allowed` is a live, writable mask of exactly the size
        // passed, and pid 0 names the calling thread.
        if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut allowed) } != 0 {
            return None;
        }
        let cpu = (0..1024)
            .rev()
            .find(|c| allowed[c / 64] >> (c % 64) & 1 == 1)?;
        let mut only: CpuSet = [0; 16];
        only[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: `only` is a live mask of exactly the size passed; the call
        // reads it and changes scheduling only.
        (unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &only) } == 0).then_some(cpu)
    }

    pub fn rusage(who: i32) -> Option<Rusage> {
        let mut r = Rusage::default();
        // SAFETY: `r` is a live, writable `struct rusage` of the layout the
        // kernel fills on this target (size asserted above), and `who` is
        // one of the two constants the call defines.
        let rc = unsafe { getrusage(who, &mut r) };
        (rc == 0).then_some(r)
    }

    pub fn clock_ticks_per_s() -> f64 {
        // SAFETY: `sysconf` takes a plain integer and touches no memory of
        // ours.
        let t = unsafe { sysconf(SC_CLK_TCK) };
        if t > 0 {
            t as f64
        } else {
            100.0
        }
    }
}

fn usage_of(who: i32) -> Usage {
    sys::rusage(who).map_or_else(Usage::default, |r| Usage {
        cpu: Duration::from_secs((r.utime[0] + r.stime[0]) as u64)
            + Duration::from_micros((r.utime[1] + r.stime[1]) as u64),
        peak_rss_mib: r.maxrss as f64 / 1024.0,
    })
}

/// This process, all threads. The peak is `VmHWM`, which starts afresh at
/// exec; `ru_maxrss` does not, and would report the parent shell's size for
/// a process that stays smaller than it.
pub fn usage_self() -> Usage {
    Usage {
        cpu: usage_of(sys::RUSAGE_SELF).cpu,
        peak_rss_mib: usage_of_pid(std::process::id()).peak_rss_mib,
    }
}

/// Every child this process has waited for, with their waited-for
/// descendants; the peak is that of the largest single one.
pub fn usage_children() -> Usage {
    usage_of(sys::RUSAGE_CHILDREN)
}

/// Pins the calling thread and the children it will spawn to one CPU (see
/// `serve_hot` for why). Returns the CPU, or `None` where the kernel refuses.
pub fn pin_to_one_cpu() -> Option<usize> {
    sys::pin_to_one_cpu()
}

/// A running child, read from `/proc/<pid>`: user + system time from
/// `stat`, `VmHWM` from `status`.
pub fn usage_of_pid(pid: u32) -> Usage {
    let ticks = std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .ok()
        .and_then(|t| {
            // Fields after the parenthesised command name; utime and stime
            // are the 14th and 15th of the line.
            let rest = t.rsplit_once(')')?.1;
            let f: Vec<&str> = rest.split_whitespace().collect();
            Some(f.get(11)?.parse::<u64>().ok()? + f.get(12)?.parse::<u64>().ok()?)
        })
        .unwrap_or(0);
    let hwm_kib = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .unwrap_or(0.0);
    Usage {
        cpu: Duration::from_secs_f64(ticks as f64 / sys::clock_ticks_per_s()),
        peak_rss_mib: hwm_kib / 1024.0,
    }
}

/// The benchmark's own directory (`benchmark/`), fixed when it was built:
/// the driver builds it in the checkout it then runs in.
pub fn benchmark_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Where results, traces and scratch files go: `benchmark/out`, inside the
/// checkout.
pub fn out_dir() -> PathBuf {
    benchmark_dir().join("out")
}

/// A fresh, empty scratch directory under `benchmark/out/scratch`.
pub fn fresh_scratch(name: &str) -> std::io::Result<PathBuf> {
    let dir = out_dir().join("scratch").join(name);
    if dir.exists() {
        std::fs::remove_dir_all(&dir)?;
    }
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Median microseconds the file system under `dir` takes for one durable
/// write of `bytes`, made the way the repository's `atomic_write` makes one:
/// temporary file, write, fsync, rename, fsync of the directory. It is the
/// disk's share of a cache store, measured without the program.
pub fn durable_write_us(dir: &Path, bytes: usize, reps: usize) -> std::io::Result<f64> {
    use std::io::Write;
    let contents = vec![b'x'; bytes];
    let (tmp, dst) = (dir.join(".probe.tmp"), dir.join("probe.json"));
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = std::time::Instant::now();
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(&contents)?;
        f.sync_all()?;
        drop(f);
        std::fs::rename(&tmp, &dst)?;
        // Best effort, as in the repository: not every file system can.
        let _ = std::fs::File::open(dir).and_then(|d| d.sync_all());
        samples.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    std::fs::remove_file(&dst)?;
    Ok(crate::stats::median(&samples))
}

/// The file system type holding `dir`, from `/proc/mounts` (longest mount
/// point that is a prefix of the path).
pub fn fs_type_of(dir: &Path) -> String {
    let dir = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
    std::fs::read_to_string("/proc/mounts")
        .ok()
        .and_then(|t| {
            t.lines()
                .filter_map(|l| {
                    let mut f = l.split_whitespace();
                    let (_, mount, fs) = (f.next()?, f.next()?, f.next()?);
                    dir.starts_with(mount)
                        .then(|| (mount.len(), fs.to_string()))
                })
                .max_by_key(|(len, _)| *len)
                .map(|(_, fs)| fs)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// A release binary of the repository's workspace. With `CARGO_TARGET_DIR`
/// set, both workspaces build into one directory and the binary sits next
/// to this one; otherwise it is under the repository's own `target/`.
pub fn repo_binary(name: &str) -> Result<PathBuf, String> {
    let beside = std::env::current_exe()
        .ok()
        .and_then(|e| e.parent().map(|d| d.join(name)));
    let in_repo = benchmark_dir().join("../target/release").join(name);
    beside
        .into_iter()
        .chain([in_repo])
        .find(|p| p.is_file())
        .ok_or_else(|| format!("{name} is not built: run benchmark/run.sh, which builds the repository's release binaries first"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_usage_grows_with_work_and_memory_is_positive() {
        let before = usage_self();
        let mut x = 0u64;
        for n in 0..30_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(std::hint::black_box(n));
        }
        std::hint::black_box(x);
        let after = usage_self();
        assert!(after.cpu > before.cpu);
        assert!(after.peak_rss_mib > 1.0);
    }

    #[test]
    fn pid_reader_sees_this_process() {
        let u = usage_of_pid(std::process::id());
        assert!(u.peak_rss_mib > 1.0);
    }

    #[test]
    fn foreign_load_is_measured_while_this_process_sleeps() {
        let quiet = others_busy_cpus();
        assert!(quiet >= 0.0 && quiet <= nproc() as f64 + 0.5, "{quiet}");
        // A spinning thread of this process is foreign to the sleeping one.
        let stop = std::sync::atomic::AtomicBool::new(false);
        let busy = std::thread::scope(|s| {
            s.spawn(|| {
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    std::hint::spin_loop();
                }
            });
            let busy = others_busy_cpus();
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
            busy
        });
        assert!(busy > 0.5, "a spinning thread read as {busy} busy CPUs");
        assert!(is_noisy(nproc() as f64) && !is_noisy(0.0));
    }

    #[test]
    fn a_durable_write_takes_time_and_leaves_nothing_behind() {
        let dir = fresh_scratch(&format!("probe-test-{}", std::process::id())).unwrap();
        assert!(durable_write_us(&dir, 2048, 5).unwrap() > 0.0);
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn machine_facts_are_sane() {
        assert!(nproc() >= 1);
        assert!((1..=4).contains(&load_threads()));
        assert!(loadavg() >= 0.0);
        assert!(steal_s() >= 0.0);
        assert!(!cpu_model().is_empty());
        assert!(!fs_type_of(Path::new("/")).is_empty());
    }
}
