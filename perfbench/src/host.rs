//! The host and environment a measurement was taken on.

use std::path::Path;

/// Refuse to run when any `RFSP_*` variable is set: the pool reads
/// `RFSP_POOL_*` at run time, so an inherited variable would silently
/// change the engine under test.
///
/// # Errors
///
/// The offending variable names.
pub fn refuse_rfsp_env() -> Result<(), String> {
    let mut set: Vec<String> =
        std::env::vars_os().filter_map(|(k, _)| k.into_string().ok()).collect();
    set.retain(|k| k.starts_with("RFSP_"));
    set.sort();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to run with {} set: it would change the code under test",
            set.join(", ")
        ))
    }
}

/// `VmHWM` (peak resident set) in KiB from a `/proc/<pid>/status` text.
pub fn vm_hwm_kib(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?.trim().parse().ok())
}

/// This process's peak resident set in KiB.
///
/// # Errors
///
/// `/proc/self/status` is unreadable.
pub fn own_peak_rss_kib() -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    vm_hwm_kib(&status).ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Confine this thread, and every thread and child process it creates
/// afterwards, to the highest-numbered CPU it may run on. Returns that
/// CPU.
///
/// # Errors
///
/// The affinity calls fail.
#[cfg(target_os = "linux")]
pub fn confine_to_one_cpu() -> Result<usize, String> {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    // A glibc `cpu_set_t`: 1024 bits.
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable buffer of exactly `size` bytes, and pid
    // 0 names the calling thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return Err(format!("sched_getaffinity: {}", std::io::Error::last_os_error()));
    }
    let cpu = (0..size * 8)
        .rev()
        .find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .ok_or("the affinity mask holds no CPU")?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of exactly `size` bytes, and pid
    // 0 names the calling thread.
    if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
        return Err(format!("sched_setaffinity: {}", std::io::Error::last_os_error()));
    }
    Ok(cpu)
}

/// Without CPU affinity support the process stays unconfined.
///
/// # Errors
///
/// Never.
#[cfg(not(target_os = "linux"))]
pub fn confine_to_one_cpu() -> Result<usize, String> {
    Ok(0)
}

/// Data/unified cache sizes of CPU 0 as `L<level>=<size>` strings.
fn caches() -> Vec<String> {
    let mut out = Vec::new();
    for i in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        let (Some(level), Some(kind), Some(size)) = (read("level"), read("type"), read("size"))
        else {
            break;
        };
        if kind.trim() != "Instruction" {
            out.push(format!("L{}={}", level.trim(), size.trim()));
        }
    }
    out
}

/// Filesystem type of the mount holding `path`, from `/proc/self/mounts`.
fn filesystem(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else { return "unknown".into() };
    let Ok(mounts) = std::fs::read_to_string("/proc/self/mounts") else {
        return "unknown".into();
    };
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, point, fs) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(point).then(|| (point.len(), fs.to_string()))
        })
        .max()
        .map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

/// One line describing the host, the build and the workload's memory
/// footprint, as a JSON object.
pub fn record(
    nproc: usize,
    build: &[(String, String)],
    spool_dir: &Path,
    array_bytes: u64,
) -> String {
    let caches = caches().iter().map(|c| format!("\"{c}\"")).collect::<Vec<_>>().join(",");
    let mut fields = vec![
        format!("\"nproc\":{nproc}"),
        format!("\"caches\":[{caches}]"),
        format!("\"array_bytes\":{array_bytes}"),
        format!("\"spool_fs\":\"{}\"", filesystem(spool_dir)),
    ];
    for (k, v) in build {
        fields.push(format!("\"{k}\":\"{}\"", v.replace(['"', '\\'], "")));
    }
    format!("{{{}}}", fields.join(","))
}
