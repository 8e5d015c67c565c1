//! The client and resilience stack: attempt timers, retries and their
//! tickets, inner-hop retry policies, hedged logical requests, cancel
//! chases, and every terminal outcome (complete, fail, shed).

use crate::resilience::{CancelPolicy, HedgeDelay, HedgePolicy};
use ntier_des::prelude::*;
use ntier_trace::{TerminalClass, TraceEventKind, TraceHandle, TRACE_NONE};

use super::slab::ReqId;
use super::{Engine, Event};
use crate::plan::Plan;

/// Sentinel for "this attempt belongs to no hedged logical request".
pub(super) const LOGICAL_NONE: u32 = u32::MAX;

/// Everything needed to launch the next client attempt of a logical
/// request, captured when the retry is *granted*: by the time the backoff
/// elapses, the previous attempt's slab slot may already belong to someone
/// else.
#[derive(Debug)]
pub(super) struct RetryTicket {
    injected_at: SimTime,
    client: Option<u32>,
    class: &'static str,
    plan: Plan,
    /// 0-based attempt index of the attempt this ticket launches.
    attempt: u32,
    /// The logical request's trace; the ticket holds a reference across the
    /// backoff and hands it to the relaunched attempt.
    trace: TraceHandle,
}

/// One *logical* request under a hedged caller: the primary attempt plus up
/// to K backups race down the chain; the first completion wins and the
/// losers are orphaned (and, with a [`CancelPolicy`], chased down and
/// reaped). Slots are recycled through `Engine::free_logicals`; `gen`
/// invalidates stale `HedgeFire` / `LogicalDeadline` events exactly like
/// [`ReqId::gen`] does for requests.
#[derive(Debug)]
pub(super) struct LogicalState {
    gen: u32,
    /// A winner completed or the deadline passed; later attempt outcomes
    /// are orphan completions / silent reaps.
    resolved: bool,
    /// Live attempt handles (winner/losers are unlinked as they terminate).
    attempts: Vec<ReqId>,
    /// Backup attempts launched so far (excludes the primary).
    hedges_launched: u32,
    injected_at: SimTime,
    client: Option<u32>,
    class: &'static str,
    plan: Plan,
    /// The logical request's trace. The logical slot owns one reference;
    /// every attempt retains it, so hedge races append into one timeline.
    trace: TraceHandle,
}

impl Engine {
    /// The client's cancel policy: with one, abandoned and losing attempts
    /// are chased down and reaped instead of running on as orphans.
    fn cancel_policy(&self) -> Option<CancelPolicy> {
        self.cfg.tiers[0]
            .caller_policy
            .as_ref()
            .and_then(|p| p.cancel)
    }

    /// The client's hedge policy; with one, injection goes through
    /// [`Self::inject_hedged`].
    pub(super) fn hedge_policy(&self) -> Option<HedgePolicy> {
        self.cfg.tiers[0]
            .caller_policy
            .as_ref()
            .and_then(|p| p.hedge)
    }

    /// Claims a logical-request slot for a hedged injection.
    fn alloc_logical(
        &mut self,
        injected_at: SimTime,
        client: Option<u32>,
        class: &'static str,
        plan: Plan,
    ) -> u32 {
        if let Some(lid) = self.free_logicals.pop() {
            let l = &mut self.logicals[lid as usize];
            l.resolved = false;
            l.attempts.clear();
            l.hedges_launched = 0;
            l.injected_at = injected_at;
            l.client = client;
            l.class = class;
            l.plan = plan;
            l.trace = TRACE_NONE;
            lid
        } else {
            self.logicals.push(LogicalState {
                gen: 0,
                resolved: false,
                attempts: Vec::new(),
                hedges_launched: 0,
                injected_at,
                client,
                class,
                plan,
                trace: TRACE_NONE,
            });
            (self.logicals.len() - 1) as u32
        }
    }

    /// Recycles a logical slot once it has resolved *and* every attempt has
    /// reached its terminal path; outstanding `HedgeFire`/`LogicalDeadline`
    /// events go stale via the generation bump.
    fn maybe_free_logical(&mut self, lid: u32) {
        let l = &mut self.logicals[lid as usize];
        if l.resolved && l.attempts.is_empty() {
            l.gen = l.gen.wrapping_add(1);
            let h = std::mem::replace(&mut l.trace, TRACE_NONE);
            self.free_logicals.push(lid);
            self.tracer.release(h);
        }
    }

    /// Detaches `req` from its logical request (no-op for non-hedged
    /// attempts) and recycles the logical slot if this was the last link.
    fn unlink_from_logical(&mut self, req: ReqId) {
        let lid = self.slab[req.slot as usize].logical;
        if lid == LOGICAL_NONE {
            return;
        }
        let l = &mut self.logicals[lid as usize];
        if let Some(pos) = l.attempts.iter().position(|a| *a == req) {
            l.attempts.remove(pos);
        }
        self.maybe_free_logical(lid);
    }

    /// Launches attempt `attempt` of logical request `lid` down the chain:
    /// the attempt retains the logical's trace and joins its race.
    fn launch_hedge_attempt(&mut self, lid: u32, attempt: u32) -> ReqId {
        let l = &self.logicals[lid as usize];
        let (injected_at, client, class, h) = (l.injected_at, l.client, l.class, l.trace);
        let plan = l.plan.share();
        let id = self.slab.alloc(injected_at, client, class, plan, attempt);
        self.tracer.retain(h);
        if attempt > 0 {
            self.tracer
                .record(h, self.now, TraceEventKind::HedgeFire { attempt });
        }
        self.slab[id.slot as usize].trace = h;
        self.slab[id.slot as usize].logical = lid;
        self.logicals[lid as usize].attempts.push(id);
        id
    }

    /// Injects under a hedged client policy: one logical request, a primary
    /// attempt now, backups on the hedge timer, and a single overall
    /// deadline instead of per-attempt timers (`retry` is ignored — hedging
    /// replaces sequential retry).
    pub(super) fn inject_hedged(&mut self, client: Option<u32>, class: &'static str, plan: Plan) {
        let deadline = self.cfg.tiers[0]
            .caller_policy
            .as_ref()
            .expect("checked by caller")
            .attempt_timeout;
        let lid = self.alloc_logical(self.now, client, class, plan);
        self.injected += 1;
        // The logical slot owns the trace's start reference; the primary
        // attempt retains it so both must release before finalization.
        self.logicals[lid as usize].trace = self.tracer.start(self.now, class);
        let id = self.launch_hedge_attempt(lid, 0);
        let lgen = self.logicals[lid as usize].gen;
        self.queue.push(
            self.now + deadline,
            Event::LogicalDeadline { logical: lid, lgen },
        );
        self.schedule_next_hedge(lid);
        self.send(id, 0, 0);
    }

    /// Schedules the next `HedgeFire` for `lid`, if the per-request backup
    /// bound allows another. The delay is the policy's fixed value or the
    /// currently observed latency quantile (clamped), read from the run's
    /// completion histogram.
    fn schedule_next_hedge(&mut self, lid: u32) {
        let hedge = self
            .hedge_policy()
            .expect("hedged path requires a hedge policy");
        let l = &self.logicals[lid as usize];
        if l.hedges_launched >= hedge.max_hedges {
            return;
        }
        // A controller-set delay overrides the configured policy (the
        // tuner already clamped it into the tuner's floor/cap band).
        let delay = match self.hedge_override {
            Some(d) => d,
            None => {
                let observed = match hedge.delay {
                    HedgeDelay::Quantile { q, .. } => self.latency.quantile(q),
                    HedgeDelay::Fixed(_) => None,
                };
                hedge.delay.resolve(observed)
            }
        };
        let lgen = l.gen;
        self.queue
            .push(self.now + delay, Event::HedgeFire { logical: lid, lgen });
    }

    /// A hedge timer fired: launch the next backup attempt unless the
    /// logical request already resolved or the hedge budget is empty (an
    /// empty budget also stops the hedge ladder for this request — budget
    /// pressure means the system is already saturated with duplicates).
    pub(super) fn on_hedge_fire(&mut self, lid: u32, lgen: u32) {
        let l = &self.logicals[lid as usize];
        if l.gen != lgen || l.resolved {
            return;
        }
        if let Some(bucket) = self.hedge_bucket.as_mut() {
            if !bucket.try_withdraw(self.now) {
                self.tiers[0].res.budget_exhausted += 1;
                return;
            }
        }
        let l = &mut self.logicals[lid as usize];
        l.hedges_launched += 1;
        let attempt = l.hedges_launched;
        self.tiers[0].res.hedges += 1;
        let id = self.launch_hedge_attempt(lid, attempt);
        self.send(id, 0, 0);
        self.schedule_next_hedge(lid);
    }

    /// The hedged caller's deadline passed with no winner: the logical
    /// request resolves as cancelled (cancel policy set — the caller
    /// revokes the outstanding work) or failed (no cancellation — the
    /// attempts run on as orphans).
    pub(super) fn on_logical_deadline(&mut self, lid: u32, lgen: u32) {
        let l = &mut self.logicals[lid as usize];
        if l.gen != lgen || l.resolved {
            return;
        }
        l.resolved = true;
        self.tiers[0].res.timeouts += 1;
        self.tiers[0].hop_result(self.now, false);
        let class = if self.cancel_policy().is_some() {
            self.cancelled += 1;
            TerminalClass::Cancelled
        } else {
            self.failed += 1;
            TerminalClass::Failed
        };
        let l = &self.logicals[lid as usize];
        let latency = self.now.saturating_since(l.injected_at);
        self.tracer.set_terminal(l.trace, self.now, class, latency);
        self.orphan_attempts(lid, None);
        self.schedule_client_next(self.logicals[lid as usize].client);
        self.maybe_free_logical(lid);
    }

    /// Orphans every live attempt of logical request `lid` except `winner`
    /// and, under a cancel policy, chases each with a cancel. Orphaning and
    /// chasing leave `attempts` alone, so it is scanned in place.
    fn orphan_attempts(&mut self, lid: u32, winner: Option<ReqId>) {
        let cancel = self.cancel_policy().is_some();
        for k in 0..self.logicals[lid as usize].attempts.len() {
            let att = self.logicals[lid as usize].attempts[k];
            if Some(att) == winner {
                continue;
            }
            if let Some(j) = self.slab.live(att) {
                self.slab.hot[j].orphan = true;
                if cancel {
                    self.chase_cancel(att, 0);
                }
            }
        }
    }

    /// Sends a cancel chasing attempt `req` to `tier`, one cancel hop away.
    fn chase_cancel(&mut self, req: ReqId, tier: usize) {
        let hop = self
            .cancel_policy()
            .expect("a cancel chase requires a cancel policy")
            .hop_delay;
        let tier = tier as u8;
        self.queue
            .push(self.now + hop, Event::CancelArrive { req, tier });
    }

    /// A cancel reaches `tier`. Three races, all realistic:
    /// * the attempt's front is **deeper** — forward the cancel one hop;
    /// * the front is **here** — reap: pluck it from the backlog or the
    ///   connection-pool wait queue, free every held thread/slot, and
    ///   retire the attempt (counted as `wasted_work_saved`);
    /// * the front is already **upstream** — the reply outran the cancel;
    ///   the chase ends and the reply completes as an orphan.
    pub(super) fn on_cancel_arrive(&mut self, req: ReqId, tier: usize) {
        let Some(i) = self.slab.live(req) else {
            return; // the attempt terminated on its own before the cancel landed
        };
        self.tiers[tier].res.cancels_propagated += 1;
        let head = self.slab.hot[i].head as usize;
        if head > tier {
            self.chase_cancel(req, tier + 1);
        } else if head == tier {
            self.reap_attempt(req, tier);
        }
    }

    /// Physically removes attempt `req` from the system at `tier`: backlog
    /// slot, pooled-connection wait, and all held threads/admission slots
    /// are reclaimed; pending events for the attempt go stale via the
    /// generation bump.
    fn reap_attempt(&mut self, req: ReqId, tier: usize) {
        let i = self.slab.live_expect(req);
        let rep = self.slab[i].cursors[tier].replica as usize;
        self.tracer.record(
            self.slab[i].trace,
            self.now,
            TraceEventKind::CancelReap {
                tier: TierId::from(tier),
                replica: ReplicaId::from(rep),
            },
        );
        if self.tiers[tier].replicas[rep]
            .backlog
            .remove_where(|p| p.req == req)
            .is_some()
        {
            self.record_queue(tier, rep);
        }
        // At most one parked pool wait can reference the attempt, so the
        // unordered scan is deterministic.
        let parked_token = self
            .parked
            .iter()
            .find_map(|(tok, (r, _, _))| (*r == req).then_some(*tok));
        if let Some(tok) = parked_token {
            let (_, target, _) = self.parked.remove(&tok).expect("token just seen");
            let pool_tier = self.cfg.shape.parent[target].expect("pooled hop has a caller");
            let pool_rep = self.slab[i].cursors[pool_tier].replica as usize;
            let removed = self.tiers[pool_tier].replicas[pool_rep]
                .conn_pool
                .as_mut()
                .expect("parked wait implies a pool")
                .cancel_waiter(tok);
            debug_assert!(removed, "parked token missing from pool wait queue");
        }
        self.release_resources(req);
        self.tiers[tier].res.wasted_work_saved += 1;
        self.unlink_from_logical(req);
        self.free_request(i);
    }

    /// Arms the client's per-attempt timer, when a client policy is set.
    pub(super) fn arm_attempt_timer(&mut self, req: ReqId) {
        if let Some(policy) = &self.cfg.tiers[0].caller_policy {
            self.queue.push(
                self.now + policy.attempt_timeout,
                Event::AttemptTimeout { req },
            );
        }
    }

    /// A message into `tier` was dropped and the hop has a caller policy:
    /// count the failure on the hop breaker, then either resend after
    /// app-level backoff (if retries, budget and breaker all allow) or give
    /// the request up.
    pub(super) fn app_hop_drop(&mut self, req: ReqId, tier: usize, rep: usize, visit: u16) {
        let i = self.slab.live_expect(req);
        let now = self.now;
        self.tiers[tier].hop_result(now, false);
        let attempt = self.slab[i].hop_attempts;
        // `RetryPolicy` is `Copy`: no composite `CallerPolicy` clone here.
        let retry = self.cfg.tiers[tier]
            .caller_policy
            .as_ref()
            .expect("checked by caller")
            .retry;
        let Some(retry) = retry.filter(|r| r.allows(attempt)) else {
            self.fail_request(req);
            return;
        };
        let node = &mut self.tiers[tier];
        if let Some(bucket) = node.hop_bucket.as_mut() {
            if !bucket.try_withdraw(now) {
                node.res.budget_exhausted += 1;
                self.fail_request(req);
                return;
            }
        }
        if let Some(br) = node.hop_breaker.as_mut() {
            if !br.try_acquire(now) {
                self.shed_request(req, tier, rep);
                return;
            }
        }
        node.res.retries += 1;
        let kind = TraceEventKind::AppRetry {
            tier: TierId::from(tier),
        };
        self.tracer.record(self.slab[i].trace, now, kind);
        self.slab[i].hop_attempts = attempt + 1;
        let backoff = retry.backoff_for(attempt, self.rng_jitter.next_f64());
        self.arrive_at(now + backoff, req, tier, visit);
    }

    /// The client's per-attempt timer fired: the attempt becomes an orphan
    /// (it keeps consuming resources downstream — the retry-storm
    /// amplifier) and the retry stack decides whether a fresh attempt goes
    /// out.
    pub(super) fn on_attempt_timeout(&mut self, req: ReqId) {
        let Some(i) = self.slab.live(req) else {
            return;
        };
        if self.slab.hot[i].orphan {
            return;
        }
        self.slab.hot[i].orphan = true;
        self.tiers[0].res.timeouts += 1;
        let attempt = self.slab[i].attempt;
        self.tracer.record(
            self.slab[i].trace,
            self.now,
            TraceEventKind::AttemptTimeout { attempt },
        );
        self.tiers[0].hop_result(self.now, false);
        if !self.try_client_retry(req) {
            self.failed += 1;
            self.terminal(i, TerminalClass::Failed);
            self.client_next(req);
        }
        // With a cancel policy the abandoned attempt does not linger as an
        // orphan eating capacity until it finishes on its own (the classic
        // retry-storm leak): a cancel chases it down and reclaims the
        // threads and backlog slots it holds.
        if self.cancel_policy().is_some() {
            self.chase_cancel(req, 0);
        }
    }

    /// Consults the client's retry policy, budget and breaker; on success
    /// schedules [`Event::RetryFire`] after the capped, jittered backoff.
    fn try_client_retry(&mut self, req: ReqId) -> bool {
        let i = self.slab.live_expect(req);
        let Some(policy) = self.cfg.tiers[0].caller_policy.as_ref() else {
            return false;
        };
        let attempt = self.slab[i].attempt;
        let Some(retry) = policy.retry.filter(|r| r.allows(attempt)) else {
            return false;
        };
        let now = self.now;
        let node = &mut self.tiers[0];
        if let Some(bucket) = node.hop_bucket.as_mut() {
            if !bucket.try_withdraw(now) {
                node.res.budget_exhausted += 1;
                return false;
            }
        }
        if let Some(br) = node.hop_breaker.as_mut() {
            if !br.try_acquire(now) {
                return false;
            }
        }
        node.res.retries += 1;
        let backoff = retry.backoff_for(attempt, self.rng_jitter.next_f64());
        // Capture the relaunch ingredients now: the current attempt's slot
        // is freed on its terminal path, typically before the backoff ends.
        let r = &self.slab[i];
        let ticket = RetryTicket {
            injected_at: r.injected_at,
            client: r.client,
            class: r.class,
            plan: r.plan.share(),
            attempt: attempt + 1,
            trace: r.trace,
        };
        // The ticket keeps the trace alive across the backoff (the current
        // attempt's slot — and its reference — is freed before RetryFire).
        self.tracer.retain(ticket.trace);
        let tid = match self.free_tickets.pop() {
            Some(tid) => {
                self.tickets[tid as usize] = Some(ticket);
                tid
            }
            None => {
                self.tickets.push(Some(ticket));
                (self.tickets.len() - 1) as u32
            }
        };
        self.queue
            .push(now + backoff, Event::RetryFire { ticket: tid });
        true
    }

    /// Launches the next attempt of the logical request a granted retry
    /// ticket describes: a fresh slot inheriting the plan, class, client
    /// and — crucially — the original injection time, so end-to-end
    /// latency spans all attempts. `injected` is *not* incremented: a retry
    /// is the same logical request.
    pub(super) fn on_retry_fire(&mut self, ticket: u32) {
        let RetryTicket {
            injected_at,
            client,
            class,
            plan,
            attempt,
            trace,
        } = self.tickets[ticket as usize]
            .take()
            .expect("a retry ticket fires exactly once");
        self.free_tickets.push(ticket);
        let id = self.slab.alloc(injected_at, client, class, plan, attempt);
        // The ticket's reference transfers to the new attempt (a ticket
        // fires exactly once), so no retain/release pair is needed here.
        self.slab[id.slot as usize].trace = trace;
        self.tracer
            .record(trace, self.now, TraceEventKind::ClientSend { attempt });
        self.arm_attempt_timer(id);
        self.send(id, 0, 0);
    }

    /// Terminally rejects `req` at `tier`'s admission point (shed policy or
    /// open hop breaker): resources are freed and the request counts as
    /// shed, not failed — unless the attempt is already an orphan, in which
    /// case the logical outcome was decided at timeout time.
    pub(super) fn shed_request(&mut self, req: ReqId, tier: usize, rep: usize) {
        let i = self.slab.live_expect(req);
        self.tiers[tier].res.shed += 1;
        self.tracer.record(
            self.slab[i].trace,
            self.now,
            TraceEventKind::Shed {
                tier: TierId::from(tier),
                replica: ReplicaId::from(rep),
            },
        );
        self.release_resources(req);
        if self.retire_detached(req, i) {
            return;
        }
        if !self.slab.hot[i].orphan {
            self.shed += 1;
            self.class_stats.entry(self.slab[i].class).or_default().shed += 1;
            self.terminal(i, TerminalClass::Shed);
            self.tiers[0].hop_result(self.now, false);
            self.client_next(req);
        }
        self.free_request(i);
    }

    pub(super) fn fail_request(&mut self, req: ReqId) {
        let i = self.slab.live_expect(req);
        self.release_resources(req);
        if self.retire_detached(req, i) {
            return;
        }
        if !self.slab.hot[i].orphan {
            if self.cfg.tiers[0].caller_policy.is_some() {
                self.tiers[0].hop_result(self.now, false);
                if self.try_client_retry(req) {
                    self.free_request(i);
                    return;
                }
            }
            self.failed += 1;
            self.terminal(i, TerminalClass::Failed);
            self.client_next(req);
        }
        self.free_request(i);
    }

    /// Frees a dead attempt whose outcome belongs to no client: a scatter
    /// arm feeds its parent's quorum bookkeeping, and one hedged attempt
    /// dropping out does not decide its logical request — its siblings,
    /// the hedge ladder or the deadline still may. Returns whether `req`
    /// was one of these.
    fn retire_detached(&mut self, req: ReqId, i: usize) -> bool {
        if let Some(parent) = self.slab[i].arm_parent {
            self.free_request(i);
            self.on_arm_failed(parent);
        } else if self.slab[i].logical != LOGICAL_NONE {
            self.unlink_from_logical(req);
            self.free_request(i);
        } else {
            return false;
        }
        true
    }

    /// Closes attempt `i`'s trace as `class` and returns the request's
    /// end-to-end latency.
    fn terminal(&mut self, i: usize, class: TerminalClass) -> SimDuration {
        let latency = self.now - self.slab[i].injected_at;
        self.tracer
            .set_terminal(self.slab[i].trace, self.now, class, latency);
        latency
    }

    pub(super) fn complete_request(&mut self, req: ReqId) {
        let i = self.slab.live_expect(req);
        if self.slab.hot[i].orphan {
            // The reply nobody is waiting for: all that work was wasted.
            self.tiers[0].res.orphan_completions += 1;
            self.unlink_from_logical(req);
            self.free_request(i);
            return;
        }
        // A hedged attempt finishing first *wins* its logical request: the
        // logical resolves as completed exactly once, and every still-live
        // sibling becomes a loser — orphaned, and (with a cancel policy)
        // chased down so it stops eating capacity.
        let lid = self.slab[i].logical;
        if lid != LOGICAL_NONE {
            self.logicals[lid as usize].resolved = true;
            self.orphan_attempts(lid, Some(req));
        }
        self.tiers[0].hop_result(self.now, true);
        self.completed += 1;
        let latency = self.terminal(i, TerminalClass::Completed);
        self.latency.record(latency);
        self.planes.on_complete(self.now, latency);
        let stats = self.class_stats.entry(self.slab[i].class).or_default();
        stats.completed += 1;
        stats.latency_sum_us += u128::from(latency.as_micros());
        if latency >= SimDuration::from_millis(ntier_telemetry::VLRT_THRESHOLD_MS) {
            stats.vlrt += 1;
            self.vlrt_total += 1;
            self.vlrt_by_completion.add(self.now, 1);
            let first = self.slab[i].first_drop;
            if !first.is_none() {
                self.tiers[usize::from(first.tier)].replicas[usize::from(first.replica)]
                    .vlrt
                    .add(first.at, 1);
            }
        }
        self.client_next(req);
        self.unlink_from_logical(req);
        self.free_request(i);
    }
}
