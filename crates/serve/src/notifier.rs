//! Fan-out of streamed progress events to subscribed connections.
//!
//! Each client connection that issues `watch` registers an
//! [`std::sync::mpsc::Sender`] here; a per-connection writer thread owns
//! the socket and drains the channel, so the executor never blocks on a
//! slow client. The channel is unbounded: a connection that stops reading
//! does not stall anything, it accumulates its events in memory until it
//! reads again or closes (bounding that is ROADMAP 8b). A subscription
//! goes away when a send fails (the writer thread exited and closed the
//! channel) and, for one scoped to a job, as soon as that job's `done`
//! event has been handed to it — so the registry holds subscriptions to
//! open jobs only, never one per job a long-lived client has ever watched.

use std::sync::mpsc::Sender;
use std::sync::Mutex;

use crate::json::Json;

struct Sub {
    /// `None` subscribes to every job's events.
    job: Option<String>,
    tx: Sender<String>,
}

/// Subscription registry shared by the server and the executor.
#[derive(Default)]
pub(crate) struct Notifier {
    subs: Mutex<Vec<Sub>>,
}

impl Notifier {
    /// Creates an empty registry.
    pub(crate) fn new() -> Notifier {
        Notifier::default()
    }

    /// Registers a subscriber for every job's events.
    ///
    /// # Panics
    ///
    /// Panics if the subscription mutex is poisoned (never: no panics
    /// under it).
    pub(crate) fn subscribe_all(&self, tx: Sender<String>) {
        self.subs.lock().unwrap().push(Sub { job: None, tx });
    }

    /// Registers a subscriber for one job's events — unless the job has
    /// already finished, in which case its `done` event is sent at once
    /// and nothing is registered. `outcome_if_done` is asked under the
    /// subscription lock, which [`Notifier::publish_done`] also takes, and
    /// the executor marks a job done *before* publishing: so either the
    /// job reads as done here, or the subscription is in place before its
    /// `done` is published. The event is never missed and never left
    /// waiting for.
    ///
    /// # Panics
    ///
    /// Panics if the subscription mutex is poisoned (never: no panics
    /// under it).
    pub(crate) fn subscribe_job(
        &self,
        job_id: &str,
        tx: &Sender<String>,
        outcome_if_done: impl FnOnce() -> Option<String>,
    ) {
        let mut subs = self.subs.lock().unwrap();
        match outcome_if_done() {
            Some(outcome) => {
                let _ = tx.send(done_event(job_id, &outcome).to_string());
            }
            None => subs.push(Sub {
                job: Some(job_id.to_string()),
                tx: tx.clone(),
            }),
        }
    }

    /// Sends `event` (serialized once) to every live subscriber of
    /// `job_id`; subscribers whose connection has gone away are dropped.
    ///
    /// # Panics
    ///
    /// Panics if the subscription mutex is poisoned (never: no panics
    /// under it).
    pub(crate) fn publish(&self, job_id: &str, event: &Json) {
        self.fan_out(job_id, &event.to_string(), false);
    }

    /// Sends `job_id`'s `done` event, the last one it will ever have, and
    /// drops the subscriptions scoped to it.
    ///
    /// # Panics
    ///
    /// Panics if the subscription mutex is poisoned (never: no panics
    /// under it).
    pub(crate) fn publish_done(&self, job_id: &str, outcome: &str) {
        self.fan_out(job_id, &done_event(job_id, outcome).to_string(), true);
    }

    fn fan_out(&self, job_id: &str, line: &str, last: bool) {
        let mut subs = self.subs.lock().unwrap();
        subs.retain(|s| match &s.job {
            Some(j) if j != job_id => true, // not interested, but still alive
            Some(_) => s.tx.send(line.to_string()).is_ok() && !last,
            None => s.tx.send(line.to_string()).is_ok(),
        });
    }

    /// Live subscriptions, for the bounded-state tests.
    #[cfg(test)]
    pub(crate) fn subscriptions(&self) -> usize {
        self.subs.lock().unwrap().len()
    }
}

/// Builds a progress event line.
pub(crate) fn progress_event(job_id: &str, done_units: usize, total_units: usize) -> Json {
    Json::obj(vec![
        ("event", Json::str("progress")),
        ("id", Json::str(job_id)),
        ("done_units", Json::num_u64(done_units as u64)),
        ("total_units", Json::num_u64(total_units as u64)),
    ])
}

/// Builds a job-completion event line.
pub(crate) fn done_event(job_id: &str, outcome: &str) -> Json {
    Json::obj(vec![
        ("event", Json::str("done")),
        ("id", Json::str(job_id)),
        ("outcome", Json::str(outcome)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    #[test]
    fn publish_routes_by_job_and_drops_dead_subscribers() {
        let n = Notifier::new();
        let (tx_a, rx_a) = mpsc::channel();
        let (tx_all, rx_all) = mpsc::channel();
        let (tx_dead, rx_dead) = mpsc::channel();
        n.subscribe_job("j000001", &tx_a, || None);
        n.subscribe_all(tx_all);
        n.subscribe_job("j000002", &tx_dead, || None);
        drop(rx_dead);

        n.publish("j000001", &progress_event("j000001", 1, 4));
        n.publish("j000002", &progress_event("j000002", 1, 4));

        let got = rx_a.try_recv().unwrap();
        assert!(got.contains("\"done_units\":1"), "{got}");
        assert!(rx_a.try_recv().is_err(), "job-scoped sub saw another job");
        assert_eq!(rx_all.try_iter().count(), 2);

        // The dead j000002 subscriber was pruned on the failed send.
        assert_eq!(n.subscriptions(), 2);
        n.publish("j000002", &progress_event("j000002", 2, 4));
        assert_eq!(rx_all.try_iter().count(), 1);
    }

    #[test]
    fn a_job_scoped_subscription_ends_with_its_done_event() {
        let n = Notifier::new();
        let (tx, rx) = mpsc::channel();
        let (tx_all, rx_all) = mpsc::channel();
        n.subscribe_job("j000001", &tx, || None);
        n.subscribe_job("j000002", &tx, || None);
        n.subscribe_all(tx_all);
        n.publish("j000001", &progress_event("j000001", 1, 1));
        assert_eq!(n.subscriptions(), 3);
        n.publish_done("j000001", "ok");
        assert_eq!(n.subscriptions(), 2, "j000002's and the global one stay");
        let lines: Vec<String> = rx.try_iter().collect();
        assert_eq!(lines.len(), 2, "{lines:?}");
        assert_eq!(lines[1], done_event("j000001", "ok").to_string());
        assert_eq!(rx_all.try_iter().count(), 2);

        // A watch that arrives after the job finished is answered on the
        // spot and leaves nothing behind.
        n.subscribe_job("j000001", &tx, || Some("quarantined".to_string()));
        assert_eq!(n.subscriptions(), 2);
        let late = rx.try_recv().unwrap();
        assert_eq!(late, done_event("j000001", "quarantined").to_string());
    }
}
