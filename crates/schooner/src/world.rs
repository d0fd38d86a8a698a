//! The caller-driven world.
//!
//! The Manager, the per-machine Servers and the remote-procedure
//! processes are *actors*: run-to-completion message handlers with
//! private state, each fed by its own endpoint. None of them is a
//! thread. They run only when somebody who is waiting for a message
//! drives them, through the one scheduler there is, [`World::recv`]:
//! look in your own mailbox; if it is empty, give every actor that has
//! mail one step, in registration order, and look again. The world
//! holds each actor's [`Mailbox`], so it sees who has mail without
//! stepping anyone. Distribution is carried by the virtual timestamps in
//! the messages, not by host scheduling, so the composition of the
//! per-site programs runs as the one sequential program it is equal to.
//!
//! Because actors run only when driven, an empty mailbox after a pass
//! in which nobody worked means the awaited message *cannot* arrive:
//! that quiescence is the loss event ([`NetError::Timeout`]), found at
//! once instead of after a wall-clock deadline.
//!
//! Five rules keep that verdict sound when several threads drive one
//! world: an actor is only ever `try_lock`ed (a busy actor is mid-step
//! further up this thread's own stack, or on another thread whose step
//! may be producing our reply); a pass during which *any* thread
//! completed a step counts as worked, since that step may have sent to
//! an actor this pass had already gone by; the table lock is never held
//! across a step (a Server registers a process mid-step) and a pass
//! walks an immutable snapshot of the table, so a concurrent spawn or
//! retirement cannot make it skip an actor with mail (the snapshot is
//! rebuilt at the first pass after a spawn or a retirement, in place
//! when no pass still walks it); shutdown clears the table and takes
//! every actor out of its slot, because actors hold a `RuntimeCtx`,
//! which holds the world; and an actor skipped for want of mail whose
//! runner is another thread's token still counts as foreign, since
//! that thread took the mail and its step may be producing our reply. A step is counted before its runner is cleared,
//! so a pass that reads a cleared runner also sees the step counted.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, TryLockError};
use std::time::Duration;

use netsim::transport::Mailbox;
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

    /// Whether the actor holds messages it has already taken from its
    /// mailbox: it is then stepped as if it had mail.
    fn has_backlog(&self) -> bool {
        false
    }
}

struct Slot {
    /// Token of the thread inside `step`, 0 when none.
    runner: AtomicU64,
    /// The actor's own mailbox: a pass steps the actor only when it
    /// has mail (or a backlog).
    mailbox: Mailbox,
    /// [`Actor::has_backlog`] after the actor's last step.
    backlog: AtomicBool,
    /// `None` once the actor is retired.
    actor: Mutex<Option<Box<dyn Actor>>>,
}

impl Slot {
    fn ready(&self) -> bool {
        self.mailbox.has_mail() || self.backlog.load(Ordering::Acquire)
    }
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
}

/// The actor table: the live slots in registration order, and the
/// snapshot of them that passes walk.
#[derive(Default)]
struct Table {
    slots: Vec<Arc<Slot>>,
    /// `slots` as of the last rebuild. A pass holds one reference to
    /// it for its whole walk, so what it walks never changes under it.
    snapshot: Arc<Vec<Arc<Slot>>>,
    /// A spawn or a retirement since the last rebuild.
    stale: bool,
}

impl Table {
    /// The snapshot of the live slots, rebuilt first if a spawn or a
    /// retirement made it stale — in place when no pass walks it, so a
    /// world that only steps allocates nothing for it.
    fn snapshot(&mut self) -> Arc<Vec<Arc<Slot>>> {
        if self.stale {
            match Arc::get_mut(&mut self.snapshot) {
                Some(snapshot) => {
                    snapshot.clear();
                    snapshot.extend(self.slots.iter().cloned());
                }
                None => self.snapshot = Arc::new(self.slots.clone()),
            }
            self.stale = false;
        }
        Arc::clone(&self.snapshot)
    }
}

/// The actors of one Schooner world, in registration order.
#[derive(Clone, Default)]
pub(crate) struct World {
    table: Arc<Mutex<Table>>,
    /// Steps that handled a message or retired an actor, on every
    /// thread: a pass that sees it move has to look again. Bumped with
    /// `AcqRel` after the step and read with `Acquire`, so a pass that
    /// sees a step counted also sees what that step sent.
    steps: Arc<AtomicU64>,
}

impl World {
    /// Register an actor fed by `mailbox`; it runs whenever somebody
    /// waits and its mailbox has mail.
    pub(crate) fn spawn(&self, actor: impl Actor + 'static, mailbox: Mailbox) {
        let slot = Slot {
            runner: AtomicU64::new(0),
            mailbox,
            backlog: AtomicBool::new(false),
            actor: Mutex::new(Some(Box::new(actor))),
        };
        let mut table = self.table.lock().unwrap();
        table.slots.push(Arc::new(slot));
        table.stale = true;
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

    /// Retire every actor (breaking the `RuntimeCtx` ↔ `World` cycle),
    /// also those a snapshot some pass still holds refers to.
    pub(crate) fn clear(&self) {
        let retired = {
            let mut table = self.table.lock().unwrap();
            // The snapshot lets go of the slots too, so an actor mid-step
            // on another thread goes with the last pass that holds it.
            match Arc::get_mut(&mut table.snapshot) {
                Some(snapshot) => snapshot.clear(),
                None => table.snapshot = Arc::default(),
            }
            table.stale = false;
            std::mem::take(&mut table.slots)
        };
        // Dropped outside the table lock: an actor's drop unregisters
        // its endpoint and releases its `RuntimeCtx`.
        let actors: Vec<_> = retired
            .iter()
            .filter_map(|slot| slot.actor.try_lock().ok().and_then(|mut actor| actor.take()))
            .collect();
        drop(actors);
    }

    /// Give every actor that has mail and is not already mid-step one
    /// step.
    fn pass(&self) -> Pass {
        let me = TOKEN.with(|t| *t);
        let steps_before = self.steps.load(Ordering::Acquire);
        let table = self.table.lock().unwrap().snapshot();
        let mut pass = Pass { worked: false, foreign: false };
        for slot in table.iter() {
            if !slot.ready() {
                // Whoever took the mail may still be stepping on it.
                let runner = slot.runner.load(Ordering::Acquire);
                pass.foreign |= runner != 0 && runner != me;
                continue;
            }
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
            let done = matches!(step, Step::Done);
            slot.backlog.store(!done && actor.has_backlog(), Ordering::Release);
            if done {
                // Dropping the actor drops its endpoint, which
                // unregisters its address.
                *guard = None;
            }
            if !matches!(step, Step::Idle) {
                self.steps.fetch_add(1, Ordering::AcqRel);
            }
            slot.runner.store(0, Ordering::Release);
            drop(guard);
            if done {
                let mut table = self.table.lock().unwrap();
                table.slots.retain(|s| !Arc::ptr_eq(s, slot));
                table.stale = true;
            }
        }
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

    /// Forwards whatever reaches its endpoint to `to`, after holding
    /// each message for `hold`.
    struct Relay {
        ep: Endpoint,
        to: &'static str,
        hold: Duration,
    }

    impl Actor for Relay {
        fn step(&mut self) -> Step {
            let Some(env) = self.ep.try_recv() else { return Step::Idle };
            std::thread::sleep(self.hold);
            self.ep.send(self.to, env.payload, env.arrive_at).unwrap();
            Step::Worked
        }
    }

    fn spawn_relay(world: &World, ep: Endpoint, to: &'static str, hold: Duration) {
        let mailbox = ep.mailbox();
        world.spawn(Relay { ep, to, hold }, mailbox);
    }

    /// Counts its steps; takes one message per step and, when it holds
    /// `child`, spawns it on its first step. Reports `Done` after
    /// `lifetime` messages.
    struct Counted {
        ep: Endpoint,
        steps: Arc<AtomicU64>,
        lifetime: u64,
        child: Option<(World, Box<Counted>)>,
        /// Dropped with the actor.
        _alive: Arc<()>,
    }

    impl Actor for Counted {
        fn step(&mut self) -> Step {
            let n = self.steps.fetch_add(1, Ordering::Relaxed) + 1;
            if let Some((world, child)) = self.child.take() {
                let mailbox = child.ep.mailbox();
                world.spawn(*child, mailbox);
            }
            self.ep.try_recv();
            if n >= self.lifetime {
                Step::Done
            } else {
                Step::Worked
            }
        }
    }

    /// An actor on `ep` with the given lifetime, and its step count.
    fn counted(ep: Endpoint, lifetime: u64, alive: &Arc<()>) -> (Counted, Arc<AtomicU64>) {
        let steps = Arc::new(AtomicU64::new(0));
        let actor =
            Counted { ep, steps: steps.clone(), lifetime, child: None, _alive: alive.clone() };
        (actor, steps)
    }

    /// Send `n` messages to `to` on `net`.
    fn mail(net: &Network, to: &str, n: usize) {
        for _ in 0..n {
            net.send("ua-sparc10:src", to, Bytes::from_static(b"m"), 0.0).unwrap();
        }
    }

    /// A pass walks the table as it was when the pass began: an actor
    /// spawned during one of its steps, mail and all, is stepped by the
    /// next pass, not this one.
    #[test]
    fn an_actor_spawned_during_a_step_is_stepped_on_a_later_pass() {
        let net = Network::new(npss_testbed());
        let alive = Arc::new(());
        let world = World::default();
        let (child, child_steps) = counted(net.register("ua-sparc10:child").unwrap(), 9, &alive);
        let (mut parent, parent_steps) =
            counted(net.register("ua-sparc10:parent").unwrap(), 9, &alive);
        parent.child = Some((world.clone(), Box::new(child)));
        mail(&net, "ua-sparc10:parent", 1);
        mail(&net, "ua-sparc10:child", 2);
        let mailbox = parent.ep.mailbox();
        world.spawn(parent, mailbox);

        assert!(world.pass().worked);
        assert_eq!(parent_steps.load(Ordering::Relaxed), 1);
        assert_eq!(child_steps.load(Ordering::Relaxed), 0, "spawned mid-pass, stepped in it");
        assert!(world.pass().worked);
        assert_eq!(child_steps.load(Ordering::Relaxed), 1);
        world.run_until_idle();
        assert_eq!(
            (parent_steps.load(Ordering::Relaxed), child_steps.load(Ordering::Relaxed)),
            (1, 2)
        );
        world.clear();
        assert_eq!(Arc::strong_count(&alive), 1);
    }

    /// An actor that retires with mail still queued is never stepped
    /// again: not by the pass that retired it, nor by any later one.
    #[test]
    fn a_retired_actor_is_never_stepped_again() {
        let net = Network::new(npss_testbed());
        let alive = Arc::new(());
        let world = World::default();
        let (first, first_steps) = counted(net.register("ua-sparc10:first").unwrap(), 1, &alive);
        let (second, second_steps) = counted(net.register("ua-sparc10:second").unwrap(), 9, &alive);
        let mailbox = first.ep.mailbox();
        mail(&net, "ua-sparc10:first", 3);
        world.spawn(first, mailbox.clone());
        let second_mail = second.ep.mailbox();
        world.spawn(second, second_mail);
        mail(&net, "ua-sparc10:second", 2);

        world.run_until_idle();
        assert_eq!(first_steps.load(Ordering::Relaxed), 1);
        assert_eq!(second_steps.load(Ordering::Relaxed), 2);
        assert!(mailbox.has_mail(), "the retired actor left mail behind");
        assert_eq!(Arc::strong_count(&alive), 2, "the retired actor was dropped");
        for _ in 0..3 {
            assert!(!world.pass().worked);
        }
        assert_eq!(first_steps.load(Ordering::Relaxed), 1);
        world.clear();
    }

    /// `clear` drops every actor, also while a pass somewhere still
    /// holds the snapshot that lists it.
    #[test]
    fn clear_drops_every_actor_while_a_snapshot_is_alive() {
        let net = Network::new(npss_testbed());
        let alive = Arc::new(());
        let world = World::default();
        for i in 0..3 {
            let (actor, _) = counted(net.register(format!("ua-sparc10:a{i}")).unwrap(), 9, &alive);
            let mailbox = actor.ep.mailbox();
            world.spawn(actor, mailbox);
        }
        let held = world.table.lock().unwrap().snapshot();
        assert_eq!(held.len(), 3);
        world.clear();
        assert_eq!(Arc::strong_count(&alive), 1, "an actor outlived clear");
        assert!(held.iter().all(|slot| slot.actor.lock().unwrap().is_none()));
        assert!(world.table.lock().unwrap().snapshot().is_empty());
        assert!(!world.pass().worked);
    }

    /// On its first message, lets another thread run one whole pass and
    /// waits for it to finish. It reports every step idle, so its own
    /// steps never count as work.
    struct Yield {
        ep: Endpoint,
        go: Option<(Sender<()>, Receiver<()>)>,
    }

    impl Actor for Yield {
        fn step(&mut self) -> Step {
            if self.ep.try_recv().is_some() {
                if let Some((go, done)) = self.go.take() {
                    go.send(()).unwrap();
                    done.recv().unwrap();
                }
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
        let y = net.register("ua-sparc10:y").unwrap();
        let z = net.register("ua-sparc10:z").unwrap();
        for to in ["ua-sparc10:y", "ua-sparc10:z"] {
            net.send("ua-sparc10:src", to, Bytes::from_static(b"m"), 0.0).unwrap();
        }

        let world = World::default();
        let (go_tx, go_rx) = channel();
        let (done_tx, done_rx) = channel();
        spawn_relay(&world, x, "ua-sparc10:waiter", Duration::ZERO);
        let mailbox = y.mailbox();
        world.spawn(Yield { ep: y, go: Some((go_tx, done_rx)) }, mailbox);
        spawn_relay(&world, z, "ua-sparc10:x", Duration::ZERO);
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

    /// An actor with no mail that is mid-step on another thread may be
    /// producing the awaited message: the waiter waits for it. Thread B
    /// steps S, which takes its one message and holds it before
    /// relaying it to the waiter; the waiter starts once S's mailbox is
    /// empty, so every pass it makes skips S for want of mail.
    #[test]
    fn a_mail_less_actor_mid_step_on_another_thread_is_waited_for() {
        let net = Network::new(npss_testbed());
        let waiter = net.register("ua-sparc10:waiter").unwrap();
        let s = net.register("ua-sparc10:s").unwrap();
        let s_mail = s.mailbox();
        net.send("ua-sparc10:src", "ua-sparc10:s", Bytes::from_static(b"m"), 0.0).unwrap();

        let world = World::default();
        spawn_relay(&world, s, "ua-sparc10:waiter", Duration::from_millis(50));
        let other = world.clone();
        let b = std::thread::spawn(move || other.pass().worked);
        while s_mail.has_mail() {
            std::thread::yield_now();
        }

        let env = world.recv(&waiter).expect("the held message reaches the waiter");
        assert_eq!(&env.payload[..], b"m");
        assert!(b.join().unwrap(), "B's pass stepped S");
        world.clear();
    }
}
