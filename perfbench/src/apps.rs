//! A pass-through timing wrapper for applications.

use std::any::Any;
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use mn_packet::VnId;
use modelnet::{AppAction, AppCtx, Application, Message};

/// Wraps an application, timing each callback and recording the peers it
/// sends to. The wrapped application sees a fresh context and its actions
/// are forwarded unchanged and in order, so the run is the same as without
/// the wrapper.
pub struct TimedApp {
    inner: Box<dyn Application>,
    /// Callbacks delivered.
    pub callbacks: u64,
    /// Host time spent inside the wrapped callbacks.
    pub busy: Duration,
    /// VNs this application sent a message to.
    pub peers: BTreeSet<VnId>,
}

impl TimedApp {
    /// Wraps `inner`.
    pub fn new(inner: Box<dyn Application>) -> Self {
        TimedApp {
            inner,
            callbacks: 0,
            busy: Duration::ZERO,
            peers: BTreeSet::new(),
        }
    }

    /// The wrapped application.
    pub fn inner(&self) -> &dyn Application {
        self.inner.as_ref()
    }

    fn call(&mut self, ctx: &mut AppCtx, f: impl FnOnce(&mut dyn Application, &mut AppCtx)) {
        let mut inner_ctx = AppCtx::new(ctx.my_id(), ctx.now());
        let start = Instant::now();
        f(self.inner.as_mut(), &mut inner_ctx);
        self.busy += start.elapsed();
        self.callbacks += 1;
        for action in inner_ctx.into_actions() {
            match action {
                AppAction::Send { to, message } => {
                    self.peers.insert(to);
                    ctx.send(to, message);
                }
                AppAction::SetTimer { delay, token } => ctx.set_timer(delay, token),
                AppAction::Record { metric, value } => ctx.record(metric, value),
            }
        }
    }
}

impl Application for TimedApp {
    fn on_start(&mut self, ctx: &mut AppCtx) {
        self.call(ctx, |app, c| app.on_start(c));
    }

    fn on_message(&mut self, ctx: &mut AppCtx, from: VnId, message: Message) {
        self.call(ctx, |app, c| app.on_message(c, from, message));
    }

    fn on_timer(&mut self, ctx: &mut AppCtx, token: u64) {
        self.call(ctx, |app, c| app.on_timer(c, token));
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}
