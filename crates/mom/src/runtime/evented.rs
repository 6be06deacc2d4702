//! The shard pool: N worker threads drive *all* servers.
//!
//! The one execution substrate of the bus. Every server is multiplexed
//! onto a fixed pool of shard workers — as many as there are servers
//! under `RuntimeConfig::threaded()`, a few for thousands of servers in
//! the C10K shape — and no worker belongs to a server: any of them runs
//! whichever slot is ready. Each server lives in a [`Slot`]:
//!
//! - its transport installs a readiness notifier that marks the slot
//!   *scheduled* and pushes its index onto a shared MPMC run queue;
//! - shard workers pop indices off that queue — because the queue is
//!   shared, an idle shard steals runnable servers from a busy one for
//!   free — and run one bounded step ([`PoolShared::run_ready_server`]):
//!   handle at most one command, drain up to [`MAX_STEP_DRAIN`] datagrams
//!   into one batched transaction, poll link timers;
//! - a dedicated timer thread scans per-slot deadlines (retransmission
//!   and relay retry timeouts) every millisecond and schedules slots
//!   whose deadline passed, so an otherwise-quiet server still retransmits
//!   on time.
//!
//! The scheduled flag collapses notification bursts: a slot is enqueued at
//! most once until a worker picks it up, so a thousand datagrams cost one
//! queue entry. Workers never block on a slot — if a stale wakeup races a
//! step in progress, `try_lock` fails and the slot is simply re-queued.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use aaa_base::{Error, Result, ServerId, VTime};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;

use super::driver::ServerDriver;
use super::{Boot, Command, Transport, MAX_STEP_DRAIN};

/// Run-queue sentinel: wakes a worker without running a slot (used to
/// drain workers at shutdown).
const WAKE: usize = usize::MAX;

/// How often the timer thread scans slot deadlines.
const TIMER_RESOLUTION: Duration = Duration::from_millis(1);

/// How long a worker sleeps on an empty run queue before re-checking the
/// stop flag.
const IDLE_PARK: Duration = Duration::from_millis(50);

/// Sentinel deadline meaning "no wakeup needed".
const NO_DEADLINE: u64 = u64::MAX;

struct SlotState {
    driver: ServerDriver,
    endpoint: Box<dyn Transport>,
}

/// One server multiplexed onto the shard pool.
struct Slot {
    /// Set while the slot sits in the run queue (or a worker is about to
    /// run it); collapses wakeup bursts into one queue entry.
    scheduled: AtomicBool,
    /// Set once the slot processed [`Command::Shutdown`] (final flush and
    /// group commit done); dead slots are never run again.
    dead: AtomicBool,
    cmd_tx: Sender<Command>,
    cmd_rx: Receiver<Command>,
    state: Mutex<SlotState>,
    /// Earliest link deadline in micros-since-start ([`NO_DEADLINE`] if
    /// none); maintained after every step, consumed by the timer thread.
    deadline_us: AtomicU64,
}

pub(crate) struct PoolShared {
    slots: Vec<Slot>,
    runq_tx: Sender<usize>,
    runq_rx: Receiver<usize>,
    stop: AtomicBool,
    start: Instant,
}

impl PoolShared {
    fn now(&self) -> VTime {
        VTime::from_micros(self.start.elapsed().as_micros() as u64)
    }

    /// Marks slot `i` runnable. The swap makes this idempotent: a slot
    /// already queued is not queued twice.
    fn schedule(&self, i: usize) {
        let slot = &self.slots[i];
        if slot.dead.load(Ordering::Acquire) {
            return;
        }
        if !slot.scheduled.swap(true, Ordering::AcqRel) {
            // Failure means every worker already exited at teardown;
            // nothing is left to run the slot anyway.
            // audit:allow(error-swallow)
            let _ = self.runq_tx.send(i);
        }
    }

    /// Runs one bounded step of server `i`: at most one command, a capped
    /// datagram drain processed as one transaction, then link timers. This
    /// is the shard-loop entry point — everything reachable from here must
    /// stay non-blocking (enforced by the `block-in-step` audit rule).
    pub(crate) fn run_ready_server(&self, i: usize) {
        let slot = &self.slots[i];
        // Clear before draining: arrivals that race the drain re-schedule.
        slot.scheduled.store(false, Ordering::Release);
        if slot.dead.load(Ordering::Acquire) {
            return;
        }
        let Some(mut guard) = slot.state.try_lock() else {
            // Another worker is mid-step here (a timer wakeup racing a
            // traffic wakeup). Hand the slot back so the event is not
            // lost; the running worker will make progress meanwhile.
            self.schedule(i);
            std::thread::yield_now();
            return;
        };
        // Re-check under the lock: `dead` is only ever set by the worker
        // holding this guard, so a worker that passed the check above
        // while another worker was mid-shutdown can acquire the lock
        // right after the final flush + group commit and would otherwise
        // poll the endpoint and tick the driver of a dead slot (the
        // step-after-dead race; the interleaving model check in
        // aaa-audit finds exactly this window when the re-check knob is
        // disabled).
        if slot.dead.load(Ordering::Acquire) {
            return;
        }
        let st = &mut *guard;

        // One command per step, then the inbox. A caller's next command
        // lands while this one is handled, so draining commands until the
        // queue is empty can run for as long as the caller keeps up, and
        // the peers' acks wait in the inbox all that time.
        if let Ok(cmd) = slot.cmd_rx.try_recv() {
            if !st
                .driver
                .handle_command(st.endpoint.as_ref(), cmd, self.now())
            {
                slot.dead.store(true, Ordering::Release);
                slot.deadline_us.store(NO_DEADLINE, Ordering::Release);
                return;
            }
        }

        let mut drained = Vec::new();
        while drained.len() < MAX_STEP_DRAIN {
            match st.endpoint.poll_recv() {
                Ok(Some(inc)) => drained.push((inc.from, inc.bytes)),
                Ok(None) | Err(_) => break,
            }
        }
        let saturated = drained.len() >= MAX_STEP_DRAIN;
        if !drained.is_empty() {
            st.driver
                .on_batch(st.endpoint.as_ref(), drained, self.now());
        }

        st.driver.tick(st.endpoint.as_ref(), self.now());
        let next = st
            .driver
            .next_wakeup()
            .map_or(NO_DEADLINE, VTime::as_micros);
        slot.deadline_us.store(next, Ordering::Release);
        drop(guard);

        if saturated || !slot.cmd_rx.is_empty() {
            // More work is already waiting; go to the back of the queue
            // instead of starving the other servers on this shard.
            self.schedule(i);
        }
    }

    fn worker(self: &Arc<Self>) {
        while !self.stop.load(Ordering::Acquire) {
            match self.runq_rx.recv_timeout(IDLE_PARK) {
                Ok(WAKE) => {}
                Ok(i) => self.run_ready_server(i),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => return,
            }
        }
    }

    fn timer(self: &Arc<Self>) {
        while !self.stop.load(Ordering::Acquire) {
            let now_us = self.start.elapsed().as_micros() as u64;
            for (i, slot) in self.slots.iter().enumerate() {
                let due = slot.deadline_us.load(Ordering::Acquire);
                if due <= now_us
                    && slot
                        .deadline_us
                        .compare_exchange(due, NO_DEADLINE, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                {
                    self.schedule(i);
                }
            }
            std::thread::sleep(TIMER_RESOLUTION);
        }
    }
}

/// The running shard pool: worker threads plus the shared slot table.
pub(crate) struct EventedPool {
    shared: Arc<PoolShared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl EventedPool {
    /// Builds the slot table (one driver per endpoint, each sharing
    /// `boot`), installs readiness notifiers and starts `shards` workers
    /// plus the timer thread. Every slot is scheduled once so
    /// pre-notifier arrivals are drained promptly.
    pub(crate) fn start(
        boot: &Arc<Boot>,
        endpoints: Vec<Box<dyn Transport>>,
        shards: usize,
    ) -> Result<EventedPool> {
        let n = endpoints.len();
        let (runq_tx, runq_rx) = unbounded::<usize>();
        let mut slots = Vec::with_capacity(n);
        for (i, mut endpoint) in endpoints.into_iter().enumerate() {
            let me = ServerId::new(i as u16);
            let obs = boot.obs_for(i);
            if let Some((meter, _)) = &obs {
                endpoint.attach_meter(meter, &boot.topology.neighbors(me));
            }
            let driver = boot.driver(me, obs)?;
            let (cmd_tx, cmd_rx) = unbounded::<Command>();
            slots.push(Slot {
                scheduled: AtomicBool::new(false),
                dead: AtomicBool::new(false),
                cmd_tx,
                cmd_rx,
                state: Mutex::new(SlotState { driver, endpoint }),
                deadline_us: AtomicU64::new(NO_DEADLINE),
            });
        }
        let shared = Arc::new(PoolShared {
            slots,
            runq_tx,
            runq_rx,
            stop: AtomicBool::new(false),
            start: boot.start,
        });

        // The notifier holds a Weak so slot → endpoint → notifier does not
        // keep the pool alive past the last external handle.
        for i in 0..n {
            let weak: Weak<PoolShared> = Arc::downgrade(&shared);
            let notifier: aaa_net::ReadyNotifier = Arc::new(move || {
                if let Some(shared) = weak.upgrade() {
                    shared.schedule(i);
                }
            });
            shared.slots[i]
                .state
                .lock()
                .endpoint
                .set_ready_notifier(notifier);
            shared.schedule(i);
        }

        let mut workers = Vec::with_capacity(shards + 1);
        for _ in 0..shards {
            let shared = shared.clone();
            workers.push(std::thread::spawn(move || shared.worker()));
        }
        let timer_shared = shared.clone();
        workers.push(std::thread::spawn(move || timer_shared.timer()));
        Ok(EventedPool { shared, workers })
    }

    pub(crate) fn server_count(&self) -> usize {
        self.shared.slots.len()
    }

    /// Enqueues a command for server `i` and wakes a worker for it.
    pub(crate) fn send_cmd(&self, i: usize, cmd: Command) -> Result<()> {
        let slot = self
            .shared
            .slots
            .get(i)
            .ok_or(Error::UnknownServer(ServerId::new(i as u16)))?;
        if slot.dead.load(Ordering::Acquire) {
            return Err(Error::Closed("server shut down"));
        }
        slot.cmd_tx
            .send(cmd)
            .map_err(|_| Error::Closed("shard pool"))?;
        self.shared.schedule(i);
        Ok(())
    }

    /// Waits (until `deadline`) for every slot to process its shutdown
    /// command, then stops and joins the workers. Returns `true` if all
    /// slots shut down gracefully in time.
    pub(crate) fn stop(mut self, deadline: Instant) -> bool {
        let all_dead = loop {
            if self
                .shared
                .slots
                .iter()
                .all(|s| s.dead.load(Ordering::Acquire))
            {
                break true;
            }
            if Instant::now() >= deadline {
                break false;
            }
            std::thread::sleep(Duration::from_millis(1));
        };
        self.halt();
        for handle in self.workers.drain(..) {
            // Join errors mean the thread panicked; the panic is already
            // on stderr and shutdown must keep reaping the others.
            // audit:allow(error-swallow)
            let _ = handle.join();
        }
        all_dead
    }

    fn halt(&self) {
        self.shared.stop.store(true, Ordering::Release);
        for _ in 0..self.workers.len() {
            // Workers may have already exited and dropped the receiver.
            // audit:allow(error-swallow)
            let _ = self.shared.runq_tx.send(WAKE);
        }
    }
}

impl Drop for EventedPool {
    fn drop(&mut self) {
        // Dropping a Mom without shutdown() must not leak the pool's
        // threads; they are detached here and exit within one IDLE_PARK.
        if !self.workers.is_empty() {
            self.halt();
        }
    }
}

impl std::fmt::Debug for EventedPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventedPool")
            .field("servers", &self.shared.slots.len())
            .field("workers", &self.workers.len())
            .finish()
    }
}
