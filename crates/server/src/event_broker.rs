//! The broker's plug-in for the `apcm-netio` event loop.
//!
//! [`BrokerService`] adapts the shared per-line dispatcher
//! ([`crate::request::on_conn_line`]) to [`apcm_netio::Service`]: the
//! loop frames byte-capped lines and drives idle reaping; this adapter
//! supplies the protocol semantics, connection accounting, and the
//! maintenance tick. A connection that performs the `REPLICATE`
//! handshake gets a [`LoopFollower`] — the event-loop face of
//! [`FollowerConn`] — so replication broadcast enqueues frames on the
//! same bounded outbound queue as any other reply.

use std::sync::{Arc, OnceLock};

use apcm_netio::{CloseReason, ConnId, Line, LoopHandle, SendOutcome, Service, Verdict};

use crate::replication::FollowerConn;
use crate::request::{on_conn_line, ConnCtx, ConnState, Flow, LineInput};
use crate::stats::ServerStats;

pub(crate) struct BrokerService {
    ctx: ConnCtx,
    handle: OnceLock<Arc<LoopHandle>>,
}

impl BrokerService {
    pub(crate) fn new(ctx: ConnCtx) -> Self {
        BrokerService {
            ctx,
            handle: OnceLock::new(),
        }
    }
}

/// Replication feed outbound face for a loop-served connection.
struct LoopFollower {
    handle: Arc<LoopHandle>,
    conn: ConnId,
}

impl FollowerConn for LoopFollower {
    fn try_send(&self, line: String) -> bool {
        matches!(self.handle.try_send(self.conn, line), SendOutcome::Sent)
    }

    fn kick(&self) {
        self.handle.kick(self.conn);
    }
}

impl Service for BrokerService {
    type Session = ConnState;

    fn on_open(&self, _conn: ConnId, handle: &Arc<LoopHandle>) -> ConnState {
        let _ = self.handle.set(handle.clone());
        // Also publish the handle into the hub's delivery cell here:
        // `Server::start` sets it right after `EventLoop::start` returns,
        // but a connection accepted in that gap could PUB and need its
        // RESULT routed before the cell is otherwise populated.
        let _ = self.ctx.hub.delivery.set(handle.clone());
        ServerStats::add(&self.ctx.hub.stats.conns_total, 1);
        ServerStats::add(&self.ctx.hub.stats.conns_active, 1);
        ConnState::default()
    }

    fn on_line(&self, session: &mut ConnState, conn: ConnId, line: Line<'_>) -> Verdict {
        let handle = self
            .handle
            .get()
            .expect("on_open registered the handle")
            .clone();
        let stats = self.ctx.hub.stats.clone();
        let reply_handle = handle.clone();
        let mut reply = move |text: String| {
            // Control replies ride the uncapped path: a loop worker must
            // never stall on one connection — the queue is drained by
            // EPOLLOUT regardless.
            let _ = reply_handle.send(conn, text);
            ServerStats::add(&stats.replies_sent, 1);
        };
        let mut make_follower = move || -> std::io::Result<Box<dyn FollowerConn>> {
            Ok(Box::new(LoopFollower {
                handle: handle.clone(),
                conn,
            }))
        };
        let input = match line {
            Line::Text(text) => LineInput::Text(text),
            Line::TooLong => LineInput::TooLong,
        };
        match on_conn_line(
            &self.ctx,
            conn,
            session,
            input,
            &mut reply,
            &mut make_follower,
        ) {
            Flow::Continue => Verdict::Continue,
            Flow::Close => Verdict::Close,
        }
    }

    fn on_close(&self, _session: &mut ConnState, conn: ConnId, reason: CloseReason) {
        // If this connection was a replication feed, drop its follower
        // slot so the lag gauge stops tracking it.
        if let Some(p) = &self.ctx.persist {
            p.remove_follower(conn);
        }
        ServerStats::sub(&self.ctx.hub.stats.conns_active, 1);
        if reason == CloseReason::Idle {
            ServerStats::add(&self.ctx.hub.stats.idle_reaped, 1);
        }
    }

    /// The maintenance sweep: every shard's `maintain()` and the
    /// persister's tick. Idle reaping is the loop's own timer wheel's
    /// job.
    fn on_tick(&self) {
        let report = self.ctx.engine.maintain();
        self.ctx.hub.stats.record_maintenance(&report);
        if let Some(p) = &self.ctx.persist {
            p.maintenance_tick();
        }
    }
}
