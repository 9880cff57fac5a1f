//! Real-time priority for the threads that drive a remote server, and
//! the host's CPU steal while they do.
//!
//! An open-loop generator must send each frame at its due time. When
//! other runnable threads share the CPUs, a woken `SCHED_OTHER` thread
//! can wait several milliseconds for a CPU, and the run then fails its
//! schedule check for reasons outside the program under test. A
//! `SCHED_FIFO` thread preempts every `SCHED_OTHER` thread as soon as it
//! wakes. The driving threads only send frames and block on replies or
//! timers, so they take little CPU at that priority.
//!
//! The server is spawned before the priority is raised, so it keeps the
//! normal policy. Threads spawned while it is raised inherit it. The
//! previous policy is restored on drop, before the CPU-heavy offline
//! verification runs.

use std::os::raw::c_int;

const SCHED_FIFO: c_int = 1;
/// Lowest real-time priority: enough to preempt `SCHED_OTHER`.
const FIFO_PRIORITY: c_int = 1;

#[repr(C)]
struct SchedParam {
    sched_priority: c_int,
}

extern "C" {
    fn sched_getscheduler(pid: c_int) -> c_int;
    fn sched_getparam(pid: c_int, param: *mut SchedParam) -> c_int;
    fn sched_setscheduler(pid: c_int, policy: c_int, param: *const SchedParam) -> c_int;
}

/// While alive, the calling thread runs at `SCHED_FIFO` priority 1, if
/// the process may raise it.
pub struct Realtime {
    /// The policy and priority to restore; `None` when nothing changed.
    prev: Option<(c_int, c_int)>,
    /// What happened, for the report.
    pub note: String,
}

impl Realtime {
    pub fn enter() -> Realtime {
        let mut param = SchedParam { sched_priority: 0 };
        // SAFETY: pid 0 names the calling thread; `param` is a live,
        // properly aligned `struct sched_param` for the duration of
        // each call, and these functions keep no pointer to it.
        let (policy, got) = unsafe { (sched_getscheduler(0), sched_getparam(0, &mut param)) };
        if policy < 0 || got != 0 {
            return Realtime {
                prev: None,
                note: format!(
                    "driving threads at the normal priority (reading the policy failed: {})",
                    std::io::Error::last_os_error()
                ),
            };
        }
        let fifo = SchedParam {
            sched_priority: FIFO_PRIORITY,
        };
        // SAFETY: as above; `fifo` outlives the call.
        if unsafe { sched_setscheduler(0, SCHED_FIFO, &fifo) } != 0 {
            return Realtime {
                prev: None,
                note: format!(
                    "driving threads at the normal priority (SCHED_FIFO refused: {})",
                    std::io::Error::last_os_error()
                ),
            };
        }
        Realtime {
            prev: Some((policy, param.sched_priority)),
            note: format!("driving threads at SCHED_FIFO priority {FIFO_PRIORITY}"),
        }
    }

    /// Whether the calling thread runs at `SCHED_FIFO` now.
    pub fn raised(&self) -> bool {
        self.prev.is_some()
    }
}

impl Drop for Realtime {
    fn drop(&mut self) {
        if let Some((policy, priority)) = self.prev {
            let param = SchedParam {
                sched_priority: priority,
            };
            // SAFETY: as in `enter`; `param` outlives the call.
            unsafe { sched_setscheduler(0, policy, &param) };
        }
    }
}

/// The `steal` and total jiffies of all CPUs so far, from `/proc/stat`.
/// Steal is time the hypervisor ran something else on this machine's
/// virtual CPUs; no priority inside the machine can win it back.
pub fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal [guest guest_nice],
    // where guest time is already counted in user and nice.
    let steal = *fields.get(7)?;
    Some((steal, fields.iter().take(8).sum()))
}

/// Share of CPU time stolen by the hypervisor between two
/// [`cpu_jiffies`] readings, or `None` if either is missing.
pub fn steal_share(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> Option<f64> {
    let ((s0, t0), (s1, t1)) = (before?, after?);
    (t1 > t0).then(|| s1.saturating_sub(s0) as f64 / (t1 - t0) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steal_share_is_the_stolen_part_of_elapsed_jiffies() {
        assert_eq!(steal_share(Some((10, 100)), Some((30, 300))), Some(0.1));
        assert_eq!(steal_share(None, Some((30, 300))), None);
        assert_eq!(steal_share(Some((10, 100)), Some((10, 100))), None);
        let now = cpu_jiffies();
        assert!(now.map_or(true, |(steal, total)| steal <= total));
    }

    #[test]
    fn realtime_restores_the_previous_policy() {
        // SAFETY: pid 0 names the calling thread.
        let before = unsafe { sched_getscheduler(0) };
        drop(Realtime::enter());
        // SAFETY: as above.
        assert_eq!(unsafe { sched_getscheduler(0) }, before);
    }
}
