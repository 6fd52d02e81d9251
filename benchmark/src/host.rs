//! What the numbers were measured on: the host block every result
//! carries, the core-count gate, and the peak-memory reader.

use serde_json::{json, Value};
use std::process::Command;

/// Cores the benchmark is sized for: the rayon pool of the offline
/// workloads and the server's job workers. The runner refuses to start on
/// fewer cores than this: a row stamped "2 threads" on one core is a
/// serialized measurement.
pub const POOL_THREADS: usize = 2;

/// Pool threads while a server runs in this process. Its two job workers
/// already fill the two cores; a second pool thread shared between them
/// helps a job only while the other worker, the HTTP threads and the load
/// generator all leave it a core. Whether they did was settled run by run:
/// with a 2-thread pool the heaviest jobs (and with them
/// `job_latency_p95_ms`) of `service-open-mixed` took 76 ms in three runs
/// of ten and 92 ms in the rest. With one thread they take 93 ms always.
pub const SERVICE_POOL_THREADS: usize = 1;

/// Size from which glibc's `malloc` serves a block with `mmap` and gives it
/// back on `free`.
const MMAP_THRESHOLD_BYTES: i32 = 1024 * 1024;

/// Pin glibc's `mmap` threshold. Left alone it starts at 128 KiB and grows
/// to the size of whatever large block is freed first, after which blocks
/// of that size come from the heaps of whichever threads asked and stay
/// resident: `peak_rss_mb` of one and the same run then differs by up to a
/// tenth from run to run with thread timing. Pinned, every block of 1 MiB
/// or more (graph arrays, vertex state) is mapped and unmapped on its own
/// and the peak follows what is live. The page faults this adds cost
/// `offline-plain` about 3 % of its throughput.
pub fn pin_allocator() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        use std::ffi::c_int;
        extern "C" {
            fn mallopt(param: c_int, value: c_int) -> c_int;
        }
        const M_MMAP_THRESHOLD: c_int = -3;
        // SAFETY: `mallopt` takes two integers and only changes a tunable
        // of the allocator; it is called before any other thread exists.
        // A refusal (return 0) leaves the default in place, which is safe.
        unsafe {
            mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES);
        }
    }
}

/// Logical cores this process may use.
pub fn logical_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `Err` with the message to print when the host cannot run the fixed
/// 2-thread configuration.
pub fn check_cores(cores: usize) -> Result<(), String> {
    if cores < POOL_THREADS {
        Err(format!(
            "refusing to run: {cores} logical core(s) available, the benchmark is fixed at \
             {POOL_THREADS} pool threads + {POOL_THREADS} server workers and will not stamp an \
             oversubscribed result"
        ))
    } else {
        Ok(())
    }
}

/// `VmHWM` (peak resident set) in KiB out of the text of
/// `/proc/<pid>/status`.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let value: u64 = fields.next()?.parse().ok()?;
    match fields.next() {
        Some("kB") | None => Some(value),
        Some(_) => None,
    }
}

/// Peak resident set of this process in MiB; `None` where `/proc` does
/// not provide it.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm_kib(&status).map(|kib| kib as f64 / 1024.0)
}

fn first_line_of(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8_lossy(&out.stdout);
    text.lines().next().map(|l| l.trim().to_string())
}

fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    info.lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

/// The host block: everything a reader needs to judge whether two results
/// are comparable.
pub fn host_block(seed: u64) -> Value {
    let governor = std::fs::read_to_string("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor")
        .ok()
        .map(|s| s.trim().to_string());
    json!({
        "logical_cores": logical_cores(),
        "cpu_model": cpu_model(),
        "governor": governor,
        "rustc": first_line_of("rustc", &["--version"]),
        // The driver's checkout is not a git repository; then this is null.
        "git_commit": first_line_of("git", &["rev-parse", "HEAD"]),
        "rayon_pool_threads": rayon::current_num_threads(),
        "rayon_impl": "benchmark/vendor/rayon stand-in (no registry offline)",
        "seed": seed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_parser() {
        let status =
            "Name:\tbenchmark\nVmPeak:\t  901234 kB\nVmHWM:\t  123456 kB\nVmRSS:\t   99999 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(123_456));
        assert_eq!(parse_vm_hwm_kib("VmHWM: 12 kB"), Some(12));
        assert_eq!(parse_vm_hwm_kib("VmRSS:\t5 kB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\tlots kB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t5 MB\n"), None);
        assert_eq!(parse_vm_hwm_kib(""), None);
    }

    #[test]
    fn one_core_is_refused_two_are_accepted() {
        assert!(check_cores(1).unwrap_err().contains("refusing"));
        assert!(check_cores(2).is_ok());
        assert!(check_cores(64).is_ok());
    }

    #[test]
    fn this_process_has_a_peak_rss() {
        if let Some(mib) = peak_rss_mib() {
            assert!(mib > 0.0);
        }
    }
}
