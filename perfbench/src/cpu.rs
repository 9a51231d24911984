//! CPU accounting per thread, from `/proc/self/task/*/{comm,stat}`.
//!
//! The server runs in this process, so its cost is the CPU time of the
//! threads it names. Linux truncates a thread name to 15 bytes, which
//! leaves `metaai-serve-` plus two characters: connection readers read
//! `metaai-serve-co`, writers `metaai-serve-wr`, the accept loop (named
//! by this benchmark) `metaai-serve-ac`, and a scoring worker of tenant
//! `mnist` reads `metaai-serve-mn`. [`check_tenant_name`] keeps tenant
//! names clear of the reserved prefixes so the roles stay distinct.

use std::collections::BTreeMap;

/// Clock ticks per second of `/proc` CPU times (`USER_HZ`, fixed at 100
/// by the Linux ABI).
const TICKS_PER_SECOND: f64 = 100.0;

/// Name prefix of every server thread.
pub const SERVER_PREFIX: &str = "metaai-serve";

/// Name given to the thread running the accept loop.
pub const ACCEPT_THREAD: &str = "metaai-serve-accept";

/// What a server thread does, read from its (possibly truncated) name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    /// Reads and decodes frames of one connection.
    Conn,
    /// Encodes and writes replies of one connection.
    Writer,
    /// The accept loop.
    Accept,
    /// A scoring worker of some tenant.
    Worker,
}

/// Tenant-name prefixes that would make a worker's truncated name read
/// like another role.
const RESERVED: [&str; 3] = ["co", "wr", "ac"];

/// The role of a thread named `comm`, or `None` for a thread that is
/// not the server's.
pub fn role(comm: &str) -> Option<Role> {
    let rest = comm.strip_prefix(SERVER_PREFIX)?.strip_prefix('-')?;
    Some(if rest.starts_with("co") {
        Role::Conn
    } else if rest.starts_with("wr") {
        Role::Writer
    } else if rest.starts_with("ac") {
        Role::Accept
    } else {
        Role::Worker
    })
}

/// Rejects tenant names whose worker threads would be miscounted.
pub fn check_tenant_name(name: &str) -> Result<(), String> {
    match RESERVED.iter().find(|p| name.starts_with(*p)) {
        Some(p) => Err(format!(
            "tenant name {name:?} starts with {p:?}: its workers would read as another role"
        )),
        None => Ok(()),
    }
}

/// `utime + stime` in ticks from one `/proc/.../stat` line. The name
/// field may hold spaces and parentheses, so fields are counted from the
/// last `)`.
pub fn parse_stat(line: &str) -> Option<u64> {
    let after = &line[line.rfind(')')? + 1..];
    let fields: Vec<&str> = after.split_whitespace().collect();
    // After the name: state(3) ppid … utime(14) stime(15), 1-based
    // over the whole line.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(utime + stime)
}

/// CPU ticks of every live thread of this process, keyed by thread id,
/// with the thread's name.
pub type Snapshot = BTreeMap<u32, (String, u64)>;

/// Reads every thread's name and CPU ticks. Threads that exit while the
/// directory is walked are skipped.
pub fn snapshot() -> Snapshot {
    let mut out = Snapshot::new();
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return out;
    };
    for entry in dir.flatten() {
        let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
            continue;
        };
        let path = entry.path();
        let (Ok(comm), Ok(stat)) = (
            std::fs::read_to_string(path.join("comm")),
            std::fs::read_to_string(path.join("stat")),
        ) else {
            continue;
        };
        if let Some(ticks) = parse_stat(&stat) {
            out.insert(tid, (comm.trim_end().to_string(), ticks));
        }
    }
    out
}

/// CPU seconds spent between `before` and `after` by threads whose role
/// `keep` accepts. A thread born in between counts from zero.
pub fn seconds_between(before: &Snapshot, after: &Snapshot, keep: impl Fn(Role) -> bool) -> f64 {
    let ticks: u64 = after
        .iter()
        .filter(|(_, (comm, _))| role(comm).is_some_and(&keep))
        .map(|(tid, (_, t))| t.saturating_sub(before.get(tid).map_or(0, |(_, b)| *b)))
        .sum();
    ticks as f64 / TICKS_PER_SECOND
}

/// `struct timespec` of 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `CLOCK_THREAD_CPUTIME_ID` of Linux.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// On-CPU seconds of the calling thread so far, in nanoseconds, from
/// `clock_gettime(CLOCK_THREAD_CPUTIME_ID)`; `None` if the call fails.
/// Unlike the `/proc` figures, which for a running thread lag by up to
/// a scheduler tick, it is exact at the moment of the call. Time the
/// thread spends waiting for a core does not count, so this is the work
/// a thread did, not how long it took.
pub fn thread_seconds() -> Option<f64> {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` and the clock id
    // is one Linux defines; the call writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    (rc == 0).then_some(ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9)
}

/// CPU seconds of the whole process so far, or `None` when `/proc` is
/// unreadable.
pub fn process_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    parse_stat(&stat).map(|t| t as f64 / TICKS_PER_SECOND)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_cpu_ticks_past_awkward_names() {
        let line =
            "4242 (metaai-serve-co) S 1 4242 1 0 -1 4194368 12 0 0 0 731 269 0 0 20 0 9 0 77 0";
        assert_eq!(parse_stat(line), Some(1000));
        let spaced = "7 (a) b (c)) R 1 7 1 0 -1 0 0 0 0 0 5 6 0 0 20 0 1 0 1 0";
        assert_eq!(parse_stat(spaced), Some(11));
        assert_eq!(parse_stat("7 (short) R 1 2"), None);
        assert_eq!(parse_stat("no parenthesis"), None);
    }

    #[test]
    fn truncated_names_keep_their_roles() {
        assert_eq!(role("metaai-serve-co"), Some(Role::Conn));
        assert_eq!(role("metaai-serve-conn"), Some(Role::Conn));
        assert_eq!(role("metaai-serve-wr"), Some(Role::Writer));
        assert_eq!(role("metaai-serve-ac"), Some(Role::Accept));
        assert_eq!(role("metaai-serve-mn"), Some(Role::Worker));
        assert_eq!(role("metaai-serve-wi"), Some(Role::Worker));
        assert_eq!(role("metaai-adapt"), None);
        assert_eq!(role("metaai-servex"), None);
        assert_eq!(role("perfbench-send"), None);
    }

    #[test]
    fn tenant_names_avoid_reserved_prefixes() {
        for ok in ["mnist", "widar", "afhq"] {
            assert!(check_tenant_name(ok).is_ok(), "{ok}");
            let comm: String = format!("{SERVER_PREFIX}-{ok}-0").chars().take(15).collect();
            assert_eq!(role(&comm), Some(Role::Worker), "{comm}");
        }
        for bad in ["conv", "wrist", "acme"] {
            assert!(check_tenant_name(bad).is_err(), "{bad}");
        }
        let accept: String = ACCEPT_THREAD.chars().take(15).collect();
        assert_eq!(role(&accept), Some(Role::Accept));
    }

    #[test]
    fn deltas_count_new_threads_from_zero_and_filter_roles() {
        let mut before = Snapshot::new();
        before.insert(1, ("metaai-serve-co".into(), 100));
        before.insert(2, ("metaai-serve-mn".into(), 50));
        let mut after = before.clone();
        after.insert(1, ("metaai-serve-co".into(), 130));
        after.insert(2, ("metaai-serve-mn".into(), 250));
        after.insert(3, ("metaai-serve-wr".into(), 20));
        after.insert(4, ("perfbench-recv".into(), 999));
        let all = seconds_between(&before, &after, |_| true);
        assert!((all - 2.5).abs() < 1e-12, "{all}");
        let workers = seconds_between(&before, &after, |r| r == Role::Worker);
        assert!((workers - 2.0).abs() < 1e-12, "{workers}");
        let tcp = seconds_between(&before, &after, |r| matches!(r, Role::Conn | Role::Writer));
        assert!((tcp - 0.5).abs() < 1e-12, "{tcp}");
    }

    #[test]
    fn thread_cpu_time_counts_this_threads_work() {
        let t0 = thread_seconds().unwrap();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        let busy = thread_seconds().unwrap() - t0;
        assert!(busy > 0.0, "{busy} {x}");
        let t1 = thread_seconds().unwrap();
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert!(thread_seconds().unwrap() - t1 < 0.02);
    }

    #[test]
    fn this_process_is_readable() {
        assert!(process_seconds().is_some());
        assert!(!snapshot().is_empty());
    }
}
