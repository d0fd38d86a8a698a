//! The caller-driven world.
//!
//! The Manager, the per-machine Servers and the remote-procedure
//! processes are *actors*: run-to-completion message handlers with
//! private state, each fed by its own endpoint. None of them is a
//! thread. They run only when somebody who is waiting for a message
//! drives them, through the one scheduler there is, [`World::recv`]:
//! look in your own mailbox; if it is empty, give every actor one step
//! and look again. Distribution is carried by the virtual timestamps in
//! the messages, not by host scheduling, so the composition of the
//! per-site programs runs as the one sequential program it is equal to.
//!
//! Because actors run only when driven, an empty mailbox after a pass
//! in which nobody worked means the awaited message *cannot* arrive:
//! that quiescence is the loss event ([`NetError::Timeout`]), found at
//! once instead of after a wall-clock deadline.
//!
//! Four rules keep that verdict sound when several threads drive one
//! world: an actor is only ever `try_lock`ed (a busy actor is mid-step
//! further up this thread's own stack, or on another thread whose step
//! may be producing our reply); a pass during which *any* thread
//! completed a step counts as worked, since that step may have sent to
//! an actor this pass had already gone by; the table lock is never held
//! across a step (a Server registers a process mid-step) and a pass
//! walks a copy of the table, so a concurrent retirement cannot make it
//! skip an actor with mail; and shutdown clears the table, because
//! actors hold a `RuntimeCtx`, which holds the world.

use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, TryLockError};
use std::time::Duration;

use netsim::{Endpoint, Envelope, NetError};

/// What one [`Actor::step`] did.
pub(crate) enum Step {
    /// The mailbox was empty.
    Idle,
    /// One message was handled.
    Worked,
    /// The actor terminated and is to be retired.
    Done,
}

/// A run-to-completion message handler.
pub(crate) trait Actor: Send {
    /// Handle at most one message from the actor's own mailbox.
    fn step(&mut self) -> Step;
}

struct Slot {
    /// Token of the thread inside `step`, 0 when none.
    runner: AtomicU64,
    /// `None` once the actor is retired.
    actor: Mutex<Option<Box<dyn Actor>>>,
}

/// The outcome of one pass over the actors.
struct Pass {
    /// Some actor handled a message or retired, on any thread, while
    /// the pass ran.
    worked: bool,
    /// Some actor was mid-step on another thread.
    foreign: bool,
}

static NEXT_TOKEN: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// This thread's identity in `Slot::runner`.
    static TOKEN: u64 = NEXT_TOKEN.fetch_add(1, Ordering::Relaxed);
    /// Reused table copies, one per nesting depth of `pass`.
    static SCRATCH: RefCell<Vec<Vec<Arc<Slot>>>> = const { RefCell::new(Vec::new()) };
}

/// The actors of one Schooner world, in registration order.
#[derive(Clone, Default)]
pub(crate) struct World {
    slots: Arc<Mutex<Vec<Arc<Slot>>>>,
    /// Steps that handled a message or retired an actor, on every
    /// thread: a pass that sees it move has to look again. Bumped with
    /// `AcqRel` after the step and read with `Acquire`, so a pass that
    /// sees a step counted also sees what that step sent.
    steps: Arc<AtomicU64>,
}

impl World {
    /// Register an actor; it runs whenever somebody waits.
    pub(crate) fn spawn(&self, actor: impl Actor + 'static) {
        let slot = Slot { runner: AtomicU64::new(0), actor: Mutex::new(Some(Box::new(actor))) };
        self.slots.lock().unwrap().push(Arc::new(slot));
    }

    /// Wait for the next message on `ep`, driving the world until it
    /// arrives. `Err(NetError::Timeout)` means the world went quiescent
    /// without producing one — the message is lost.
    pub(crate) fn recv(&self, ep: &Endpoint) -> Result<Envelope, NetError> {
        loop {
            if let Some(env) = ep.try_recv() {
                return Ok(env);
            }
            let pass = self.pass();
            if pass.worked {
                continue;
            }
            // A foreign step may be producing our message: wait for it.
            // Otherwise one last look closes the window between our
            // mailbox check and a step that completed on another thread.
            let wait = Duration::from_millis(if pass.foreign { 1 } else { 0 });
            match ep.recv(wait) {
                Err(NetError::Timeout) if pass.foreign => {}
                other => return other,
            }
        }
    }

    /// Drive the world until no actor has mail.
    pub(crate) fn run_until_idle(&self) {
        loop {
            let pass = self.pass();
            if pass.foreign {
                std::thread::sleep(Duration::from_millis(1));
            } else if !pass.worked {
                return;
            }
        }
    }

    /// Retire every actor (breaking the `RuntimeCtx` ↔ `World` cycle).
    pub(crate) fn clear(&self) {
        // Dropped outside the table lock: an actor's drop unregisters
        // its endpoint and releases its `RuntimeCtx`.
        let retired = std::mem::take(&mut *self.slots.lock().unwrap());
        drop(retired);
    }

    /// Give every actor that is not already mid-step one step.
    fn pass(&self) -> Pass {
        let me = TOKEN.with(|t| *t);
        let steps_before = self.steps.load(Ordering::Acquire);
        let mut table = SCRATCH.with(|s| s.borrow_mut().pop()).unwrap_or_default();
        table.extend(self.slots.lock().unwrap().iter().cloned());
        let mut pass = Pass { worked: false, foreign: false };
        for slot in &table {
            let mut guard = match slot.actor.try_lock() {
                Ok(guard) => guard,
                Err(TryLockError::WouldBlock) => {
                    // Mid-step up our own stack, or on another thread
                    // (an unset runner is a foreign thread between its
                    // lock and its store).
                    pass.foreign |= slot.runner.load(Ordering::Acquire) != me;
                    continue;
                }
                Err(TryLockError::Poisoned(_)) => continue,
            };
            let Some(actor) = guard.as_mut() else { continue };
            slot.runner.store(me, Ordering::Release);
            // A panicking procedure body retires its process, exactly as
            // it used to kill only its own thread.
            let step = catch_unwind(AssertUnwindSafe(|| actor.step())).unwrap_or(Step::Done);
            slot.runner.store(0, Ordering::Release);
            match step {
                Step::Idle => continue,
                Step::Worked => {}
                Step::Done => {
                    // Dropping the actor drops its endpoint, which
                    // unregisters its address.
                    *guard = None;
                    drop(guard);
                    self.slots.lock().unwrap().retain(|s| !Arc::ptr_eq(s, slot));
                }
            }
            self.steps.fetch_add(1, Ordering::AcqRel);
        }
        table.clear();
        SCRATCH.with(|s| s.borrow_mut().push(table));
        pass.worked = self.steps.load(Ordering::Acquire) != steps_before;
        pass
    }
}

#[cfg(test)]
mod tests {
    use std::sync::mpsc::{channel, Receiver, Sender};

    use bytes::Bytes;
    use netsim::{npss_testbed, Network};

    use super::*;

    /// Forwards whatever reaches its endpoint to `to`.
    struct Relay {
        ep: Endpoint,
        to: &'static str,
    }

    impl Actor for Relay {
        fn step(&mut self) -> Step {
            let Some(env) = self.ep.try_recv() else { return Step::Idle };
            self.ep.send(self.to, env.payload, env.arrive_at).unwrap();
            Step::Worked
        }
    }

    /// On its first step, lets another thread run one whole pass and
    /// waits for it to finish; idle ever after.
    struct Yield {
        go: Option<(Sender<()>, Receiver<()>)>,
    }

    impl Actor for Yield {
        fn step(&mut self) -> Step {
            if let Some((go, done)) = self.go.take() {
                go.send(()).unwrap();
                done.recv().unwrap();
            }
            Step::Idle
        }
    }

    /// A step that another thread completes during this thread's pass,
    /// after this pass went by the actor it sends to, is still work: the
    /// message is on its way, not lost. Actors in order: X relays to the
    /// waiter, Y (stepped by the waiter) lets thread B run one pass, and
    /// Z holds one message for X, which B's pass moves on.
    #[test]
    fn a_step_completed_on_another_thread_mid_pass_is_not_a_loss() {
        let net = Network::new(npss_testbed());
        let waiter = net.register("ua-sparc10:waiter").unwrap();
        let x = net.register("ua-sparc10:x").unwrap();
        let z = net.register("ua-sparc10:z").unwrap();
        net.send("ua-sparc10:src", "ua-sparc10:z", Bytes::from_static(b"m"), 0.0).unwrap();

        let world = World::default();
        let (go_tx, go_rx) = channel();
        let (done_tx, done_rx) = channel();
        world.spawn(Relay { ep: x, to: "ua-sparc10:waiter" });
        world.spawn(Yield { go: Some((go_tx, done_rx)) });
        world.spawn(Relay { ep: z, to: "ua-sparc10:x" });
        let other = world.clone();
        let b = std::thread::spawn(move || {
            go_rx.recv().unwrap();
            other.pass();
            done_tx.send(()).unwrap();
        });

        let env = world.recv(&waiter).expect("the message reaches the waiter");
        assert_eq!(&env.payload[..], b"m");
        b.join().unwrap();
        world.clear();
    }
}
